"""Pin BLAS pools and the forward deposit to one thread before numpy loads
anywhere (so measured runtimes reflect the single-threaded budget) and echo
the acceptance report lines in the terminal summary."""

import os
import sys

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
