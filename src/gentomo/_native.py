"""Build, cache, load and type the package's compiled helpers.

Three helpers, each one source file beside this module with a twin that
gives the same bytes: ``_deposit.c``, the forward deposit (twin: numpy),
and ``_nufft.c``, the NUFFT kernel sum's window sums (twin: numpy), built
with the no-FMA C flags of ``_FLAGS``; and ``_csvformat.cpp``, the CSV
writer (twin: ``repr``), built with the C++17 flags.  ``load_function``
answers a helper's exported function, typed from the caller's ctypes
signature, or None, and None means take the twin.  Each library is
compiled on first use, never at import, and loaded once per process: the
library, or the reason it is missing, is remembered by ``build_library``.
Nothing here writes to stdout or stderr.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import tempfile
from pathlib import Path

# compiler flags by language.  C: no -ffast-math or -march=native: no FMA
# and no reassociation, so every operation rounds as the numpy twin's does.
# -fno-trapping-math lets gcc vectorize the deposit's tiled floor; it only
# drops the promise that the floating-point exception flags are raised as
# written, which nothing reads, and changes no rounding
_FLAGS = {"c": ("-O3", "-ffp-contract=off", "-fno-trapping-math", "-fPIC",
                "-shared"),
          "c++": ("-O2", "-std=c++17", "-fPIC", "-shared")}
# the compilers tried in order, by language
_COMPILERS = {"c": ("cc", "gcc"), "c++": ("c++", "g++")}
# every helper: its source file in _SOURCE_DIR, and the source's language
_HELPERS = {"_deposit.c": "c", "_nufft.c": "c", "_csvformat.cpp": "c++"}
_SOURCE_DIR = Path(__file__).parent


def _compile(compilers, flags, lang: str, source: bytes, target: Path):
    """Compile with the first of ``compilers`` on PATH into a temporary name
    next to ``target`` and rename it, so a concurrent process sees the whole
    library or none; compiler output is captured.  Raises OSError on an
    unwritable directory, RuntimeError if no compiler is found or it fails."""
    import subprocess       # on first use: imports add to startup time
    cc = next(filter(None, map(shutil.which, compilers)), None)
    if cc is None:
        raise RuntimeError(f"no {lang.upper()} compiler "
                           f"({' or '.join(compilers)}) on PATH")
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
    os.close(fd)
    try:
        proc = subprocess.run([cc, *flags, "-x", lang, "-o", tmp, "-"],
                              input=source, capture_output=True)
        if proc.returncode:
            err = proc.stderr.decode(errors="replace").strip().splitlines()
            raise RuntimeError(f"{cc} exited {proc.returncode}"
                               + (f": {err[-1]}" if err else ""))
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def build_library(helper: str):
    """(library, "") for the source file ``helper`` compiled with its
    language's flags by the first compiler of that language on PATH, or
    (None, reason).

    Each helper is built and loaded once per process, on the first call;
    later calls return the same result, a missing library included, until
    ``build_library.cache_clear()``.  The library is named by the source's
    stem and the sha256 of source and flags, and one cached under
    ``$XDG_CACHE_HOME/gentomo`` (default ``~/.cache/gentomo``) loads with
    no compiler; where that cannot be written, or no home directory is
    known, it is built per process.
    """
    import hashlib          # on first use: imports add to startup time
    lang = _HELPERS[helper]
    compilers, flags = _COMPILERS[lang], _FLAGS[lang]
    try:
        source = (_SOURCE_DIR / helper).read_bytes()
    except OSError as exc:
        return None, f"cannot read {helper}: {exc}"
    digest = hashlib.sha256(source + " ".join(flags).encode())
    name = f"{Path(helper).stem.lstrip('_')}-{digest.hexdigest()[:16]}.so"
    try:
        try:
            cache = Path(os.environ.get("XDG_CACHE_HOME")
                         or Path.home() / ".cache") / "gentomo"
        except RuntimeError as exc:     # no home: as if unwritable
            raise OSError(str(exc)) from None
        target = cache / name
        if not target.exists():
            cache.mkdir(parents=True, exist_ok=True)
            _compile(compilers, flags, lang, source, target)
        lib = ctypes.CDLL(str(target))
    except OSError:
        with tempfile.TemporaryDirectory(prefix="gentomo-") as tmp:
            try:
                _compile(compilers, flags, lang, source, Path(tmp) / name)
                # the mapping outlives the file
                lib = ctypes.CDLL(str(Path(tmp) / name))
            except (OSError, RuntimeError) as exc:
                return None, str(exc)
    except RuntimeError as exc:
        return None, str(exc)
    return lib, ""


def load_function(helper: str, symbol: str, restype, *argtypes):
    """``symbol`` of the library built from ``helper``, typed as returning
    ``restype`` from ``argtypes``, or None where the library is missing:
    the caller then takes its twin."""
    lib = build_library(helper)[0]
    if lib is None:
        return None
    fn = getattr(lib, symbol)
    fn.restype, fn.argtypes = restype, argtypes
    return fn
