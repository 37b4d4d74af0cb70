"""Build, cache and load the package's compiled helpers.

Each helper is one source file beside this module (``_deposit.c`` for the
forward deposit, ``_nufft.c`` for the NUFFT kernel sum's window sums,
``_csvformat.cpp`` for the CSV writer), compiled on first
use into a shared library that ``ctypes`` loads, once per process: the
library, or the reason it is missing, is remembered by ``build_library``.
A caller that gets no library takes its pure-Python path, which gives the
same bytes; nothing here writes to stdout or stderr.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import tempfile
from pathlib import Path

# by source suffix: the compiler language, and the compilers tried in order
_LANGUAGES = {".c": ("c", ("cc", "gcc")), ".cpp": ("c++", ("c++", "g++"))}


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
def build_library(source_path: Path, flags: tuple[str, ...]):
    """(library, "") for ``source_path`` compiled with ``flags`` by the
    first compiler of its language on PATH, or (None, reason).

    Each (source, flags) pair is built and loaded once per process, on the
    first call; later calls return the same result, a missing library
    included, until ``build_library.cache_clear()``.  The library is named
    by the source's stem and the sha256 of source and flags, and one cached
    under ``$XDG_CACHE_HOME/gentomo`` (default ``~/.cache/gentomo``) loads
    with no compiler; where that cannot be written, or no home directory is
    known, it is built per process.
    """
    import hashlib          # on first use: imports add to startup time
    lang, compilers = _LANGUAGES[source_path.suffix]
    try:
        source = source_path.read_bytes()
    except OSError as exc:
        return None, f"cannot read {source_path.name}: {exc}"
    digest = hashlib.sha256(source + " ".join(flags).encode())
    name = f"{source_path.stem.lstrip('_')}-{digest.hexdigest()[:16]}.so"
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
