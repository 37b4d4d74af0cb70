"""Pin BLAS pools and the forward deposit to one thread before numpy loads
anywhere (so measured runtimes reflect the single-threaded budget), echo
the acceptance report lines in the terminal summary, and keep the compiled
helpers' per-process memo from crossing tests that change how they build."""

import os
import sys

import pytest

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
# one deposit worker too, so the runtime budgets stay single-threaded; tests
# that exercise threads set GENTOMO_THREADS themselves
os.environ.setdefault("GENTOMO_THREADS", "1")


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance") \
        or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def fresh_builds():
    """Clear ``_native.build_library``'s memo before and after the test.

    A test that changes PATH, XDG_CACHE_HOME or a source path takes this
    fixture, so its build comes from its own settings, and a library it
    found missing does not send later tests down the pure-Python path."""
    from gentomo._native import build_library
    build_library.cache_clear()
    yield
    build_library.cache_clear()
