"""Binned co-area marginal engine: one entry point, one block loop.

``forward_binned`` serves every level family and takes a parameter box or
a list of points.  Source mass is deposited into X bins centered on the
x_grid points with linear (triangle) weights, so bins plus overflow equal
the source quadrature mass up to rounding, and the result is nonnegative
for nonnegative sources (``TestDepositProperties``).  Mass outside the X
window is kept in per-parameter overflow counters, so normalization checks
can tell truncation from bugs.  The closed forms that check the engine
live in ``oracle``.

``_deposit`` runs one block loop over one of two slab functions: the
compiled loop of ``_deposit.c`` (built on first use: vectorized up to 4-d
on x86-64-v3 and -v4 CPUs, one pass per point elsewhere) or, where nothing
can be compiled, the same steps in numpy.  The output bytes are equal on
both paths and for every loop (tests/test_forward.py,
``TestCompiledDeposit``), for every ``GENTOMO_THREADS``
(``TestDepositThreads``; AC-10 through the CLI) and for every block of
parameter columns (``TestDepositKernel::test_block_size_tolerance`` and
the ``cols`` parameters of ``test_matches_reference_loop``).  Only the
slab partition of the source points, which depends on the point count
alone, moves results, by at most 1e-13 of the peak
(``TestDepositKernel::test_slabs_match_reference_loop``).
"""

from __future__ import annotations

import ctypes
import math
import os
import shutil
import tempfile
import threading
from pathlib import Path

import numpy as np

from .core import (DimensionMismatchError, GridError, GridSpec, Phantom,
                   ScalarField, TomogramFamily)
from .geometry import Diffeomorphism, LevelFamily, combine_levels

# (source point x parameter) pairs per deposit slab; sized so the slab
# arrays stay cache-resident, which dominates deposit throughput
_CHUNK_ELEMS = 500_000
# bytes of histograms and accumulator rows per block of the compiled
# deposit: kept in L2 while one tile of points serves every column
_BLOCK_BYTES = 1 << 18
# deposit, quadrature and kernel-sum workers at most: the deposit builds
# every slab's level terms before its workers start, so this bounds only
# per-worker scratch, chiefly the numpy deposit's (columns x slab) arrays
# and the kernel sum's b x P_k tables, and the threads a large
# GENTOMO_THREADS starts
_MAX_WORKERS = 4
# phantom quadrature nodes per pdf call
_PDF_SLAB = 1 << 16

DEFAULT_OVERFLOW_THRESHOLD = 0.01


def _source_points_masses(source, q_grid: GridSpec | None, supersample: int = 1):
    """Quadrature nodes and masses for a field or phantom source.

    Fields are integrated on their own grid points with trapezoid weights,
    and refuse any ``supersample`` but 1.  Phantoms are evaluated at cell
    centers (midpoint rule), which halves the bias for smooth densities;
    ``supersample`` subdivides each cell s-fold per axis, damping the beat
    between the source lattice and the X bins when a slicing direction
    aligns with a grid axis.

    The phantom's pdf runs on fixed slabs of ``_PDF_SLAB`` nodes, shared by
    ``thread_count()`` workers (at most ``_MAX_WORKERS``).  Every shipped
    phantom is pointwise, so the masses are byte-identical to one
    full-array ``pdf`` call, for every thread count; a Gaussian mixture's
    pdf runs in one fixed order without LAPACK, so its masses are the same
    on every BLAS/LAPACK build.
    """
    if isinstance(source, ScalarField):
        if q_grid is not None and q_grid != source.grid:
            raise GridError("q_grid must be omitted or equal the field's grid")
        if supersample != 1:
            raise GridError(f"supersample applies to phantom cells; a field "
                            f"is integrated on its own grid, got {supersample}")
        grid = source.grid
        return grid.points(), source.flat * grid.trapezoid_weights().ravel()
    if isinstance(source, Phantom):
        if q_grid is None:
            raise GridError("phantom sources require a q_grid")
        if q_grid.ndim != source.ndim:
            raise DimensionMismatchError("phantom and q_grid dimensions differ")
        s = int(supersample)
        pts = q_grid.cell_centers(s)
        volume = q_grid.cell_volume / s**q_grid.ndim
        masses = np.empty(len(pts))

        def weigh(start):
            stop = start + _PDF_SLAB
            np.multiply(source.pdf(pts[start:stop]), volume,
                        out=masses[start:stop])

        starts = range(0, len(pts), _PDF_SLAB)
        _run_blocks(lambda: weigh, starts,
                    min(thread_count(), _MAX_WORKERS, len(starts)))
        return pts, masses
    raise TypeError(f"source must be a ScalarField or Phantom, got {type(source)}")


def thread_count() -> int:
    """Deposit, quadrature and kernel-sum worker threads from
    ``GENTOMO_THREADS``; each of the three runs at most ``_MAX_WORKERS``.

    0 or unset means the cores this process may run on, or all cores where
    the OS cannot tell.  Raises ValueError unless an integer >= 0.
    """
    raw = os.environ.get("GENTOMO_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(
            f"GENTOMO_THREADS must be an integer, got {raw!r}") from None
    if n < 0:
        raise ValueError(f"GENTOMO_THREADS must be >= 0, got {raw!r}")
    affinity = getattr(os, "sched_getaffinity", None)   # none on macOS, Windows
    return n or (len(affinity(0)) if affinity else os.cpu_count() or 1)


def _run_blocks(new_worker, starts, workers: int) -> None:
    """Run every block start on ``workers`` threads, the caller's included.

    Each thread calls ``new_worker()`` once for a block function that owns
    its scratch buffers, then feeds it starts taken from a shared iterator.
    The first exception raised in any thread is re-raised after all threads
    have stopped.
    """
    pending = iter(starts)
    lock = threading.Lock()
    errors = []

    def work():
        try:
            run = new_worker()
            while not errors:
                with lock:
                    start = next(pending, None)
                if start is None:
                    return
                run(start)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(1, workers)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


# the compiled deposit: _UNSET until the first deposit builds it, then the
# ctypes function, or None (numpy path) with the reason in _kernel_missing
_UNSET = object()
_kernel = _UNSET
_kernel_missing = ""
_KERNEL_SOURCE = Path(__file__).with_name("_deposit.c")
# no -ffast-math or -march=native: no FMA and no reassociation, so every
# operation rounds as the numpy path's does
_KERNEL_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
# bins the compiled loop indexes (a C int bucket); more take the numpy path
_KERNEL_MAX_BINS = 2**31 - 4


def _compile_kernel(cc: str, source: bytes, target: Path) -> None:
    """Compile into a temporary name next to ``target``, then rename it, so
    a concurrent process sees the whole library or none.  Raises OSError
    when the directory cannot be written, RuntimeError when cc fails."""
    import subprocess       # on first use: imports add to startup time
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
    os.close(fd)
    try:
        proc = subprocess.run([cc, *_KERNEL_FLAGS, "-x", "c", "-o", tmp, "-"],
                              input=source, capture_output=True)
        if proc.returncode:
            err = proc.stderr.decode(errors="replace").strip().splitlines()
            raise RuntimeError(f"{cc} exited {proc.returncode}"
                               + (f": {err[-1]}" if err else ""))
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _build_kernel():
    """(function, "") for the compiled deposit, or (None, reason).

    The library is named by the sha256 of source and flags, under
    ``$XDG_CACHE_HOME/gentomo`` (default ``~/.cache/gentomo``); when that
    cannot be written it is built into a per-process temporary directory.
    """
    import hashlib          # on first use: imports add to startup time
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return None, "no C compiler (cc or gcc) on PATH"
    try:
        source = _KERNEL_SOURCE.read_bytes()
    except OSError as exc:
        return None, f"cannot read the kernel source: {exc}"
    digest = hashlib.sha256(source + " ".join(_KERNEL_FLAGS).encode())
    name = f"deposit-{digest.hexdigest()[:16]}.so"
    cache = Path(os.environ.get("XDG_CACHE_HOME")
                 or Path.home() / ".cache") / "gentomo"
    try:
        target = cache / name
        if not target.exists():
            cache.mkdir(parents=True, exist_ok=True)
            _compile_kernel(cc, source, target)
        lib = ctypes.CDLL(str(target))
    except OSError:
        with tempfile.TemporaryDirectory(prefix="gentomo-") as tmp:
            try:
                _compile_kernel(cc, source, Path(tmp) / name)
                # the mapping outlives the file
                lib = ctypes.CDLL(str(Path(tmp) / name))
            except (OSError, RuntimeError) as exc:
                return None, str(exc)
    except RuntimeError as exc:
        return None, str(exc)
    return _bind(lib), ""


def _bind(lib: ctypes.CDLL):
    """The ``gentomo_deposit`` function of a loaded library, typed."""
    fn = lib.gentomo_deposit
    ptr, long_ = ctypes.c_void_p, ctypes.c_long
    fn.argtypes = [ptr, ptr, ptr, long_, long_, ptr, ptr, long_,
                   ctypes.c_double, ctypes.c_double, long_, ptr]
    fn.restype = ctypes.c_int
    return fn


def _load_kernel():
    """The compiled deposit function, or None for the numpy path; built on
    the first call, never at import."""
    global _kernel, _kernel_missing
    if _kernel is _UNSET:
        _kernel, _kernel_missing = _build_kernel()
    return _kernel


def _kernel_columns(n_par: int, n_bins: int, workers: int) -> int:
    """Parameter columns per block of the compiled deposit: at least two
    blocks per worker, and the block's histograms (2 (n_bins + 2) doubles
    per column) and accumulator rows (n_bins + 3) within _BLOCK_BYTES."""
    per_column = 8 * (3 * n_bins + 7)
    return max(1, min(_BLOCK_BYTES // per_column, -(-n_par // (2 * workers))))


_NON_FINITE_LEVEL = ("non-finite level value (nan or inf): a source point or "
                     "parameter is not finite, or the deformation overflowed")


def _compiled_slab(kernel):
    """``kernel`` behind the slab call of ``_numpy_slab``: return code -1
    raises ValueError, any other nonzero code MemoryError."""
    def run(L, a, m, M, b, inv_dx, shift, acc):
        rc = kernel(L.ctypes.data, None if a is None else a.ctypes.data,
                    m.ctypes.data, len(L), L.shape[1], M.ctypes.data,
                    None if b is None else b.ctypes.data, len(M),
                    inv_dx, shift, acc.shape[1] - 3, acc.ctypes.data)
        if rc == -1:
            raise ValueError(_NON_FINITE_LEVEL)
        if rc:
            raise MemoryError(f"the compiled deposit cannot allocate {len(M)} "
                              f"columns of {acc.shape[1] - 3} bins")

    return run


def _numpy_slab(chunk: int, slab: int):
    """The compiled loop's steps in numpy, for blocks of up to ``chunk``
    columns and slabs of up to ``slab`` points.

    ``run(L, a, m, M, b, inv_dx, shift, acc)`` adds one slab's buckets into
    the block's (columns, n_bins + 3) rows of ``acc``, as the compiled loop
    does, and raises ValueError on a non-finite level.  The scratch arrays
    are reused by every slab: a fresh multi-MB array per slab would be
    page-faulted in anew each time.
    """
    g_buf = np.empty(chunk * slab)
    key_buf = np.empty(chunk * slab)
    idx_buf = np.empty(chunk * slab, dtype=np.int64)

    def run(L, a, m, M, b, inv_dx, shift, acc):
        c, slots = acc.shape
        # (column, point) rows, so every pass runs along the points; each
        # bucket holds one column, whose masses still add in point order
        g = g_buf[:c * len(L)].reshape(c, len(L))
        key = key_buf[:g.size].reshape(g.shape)
        idx = idx_buf[:g.size]
        combine_levels(L, a, M, b, out=g.T, scratch=key.T)
        # the sum is finite when every level is; only an overflowing sum of
        # finite levels needs the exact test
        if not (math.isfinite(g.sum()) or np.isfinite(g).all()):
            raise ValueError(_NON_FINITE_LEVEL)
        np.multiply(g, inv_dx, out=g)
        g -= shift
        np.clip(g, -1.0, float(slots - 3), out=g)
        np.floor(g, out=key)
        g -= key                                  # g now holds frac
        # bucket of the left neighbour, column * slots + left + 1: exact in
        # float for these integers, so one cast gives it
        key += np.arange(1, c * slots, slots, dtype=float)[:, None]
        np.copyto(idx, key.ravel(), casting="unsafe")
        g *= m                                    # right weight
        np.subtract(m, g, out=key)                # left weight
        part = np.bincount(idx, key.ravel(), acc.size).reshape(c, slots)
        right = np.bincount(idx, g.ravel(), acc.size).reshape(c, slots)
        part[:, 1:] += right[:, :-1]              # right neighbour: one slot up
        acc += part

    return run


def _deposit(family: LevelFamily, points, masses, param_points, x_grid: GridSpec):
    """Accumulate mass into X bins for every parameter point.

    Returns (values (P, Nx), overflow (P,)).  The N source points are cut
    into fixed slabs of ``slab = min(N, _CHUNK_ELEMS)`` points, a cut that
    depends on N alone, and the parameter points into blocks of columns.
    Up to ``thread_count()`` workers (at most ``_MAX_WORKERS``) take whole
    blocks.  One block loop serves both paths: a block calls its slab
    function (``_compiled_slab`` or ``_numpy_slab``) once per slab, in slab
    order, into its (columns, Nx + 3) accumulator, then writes its own rows
    of values and overflow, so each column sums in one order for every
    ``GENTOMO_THREADS``.  Both slab functions evaluate every level and
    weight in one fixed order and add each column's masses in point order,
    so they give equal bytes, for every block size.  The compiled loop
    takes ``_kernel_columns(P, Nx, workers)`` columns per block: at least
    two blocks per worker, each block's histograms within ``_BLOCK_BYTES``,
    so one pass over a tile of points serves every column of the block.
    The numpy path takes ``min(_CHUNK_ELEMS // slab, P)`` columns, which
    bounds its (columns x slab) scratch; it also takes every deposit of
    more than ``_KERNEL_MAX_BINS`` bins.  Against one slab per block, slab
    partial sums move tomograms by at most 1e-13 of their peak (1.2e-14 on
    4.19 M nodes and 16 hyperplane directions).  A non-finite level raises
    ValueError on both paths.
    """
    n_bins = x_grid.shape[0]
    x0 = x_grid.axes[0][0]
    dx = x_grid.spacing[0]
    inv_dx, shift = 1.0 / dx, x0 / dx
    if not (math.isfinite(inv_dx) and math.isfinite(shift)):
        raise ValueError(f"X grid spacing {dx:g} is too fine to bin")
    n_par = len(param_points)
    values = np.zeros((n_par, n_bins))
    overflow = np.zeros(n_par)
    if len(points) == 0 or n_par == 0:
        return values, overflow

    slab = min(len(points), _CHUNK_ELEMS)
    workers = min(thread_count(), _MAX_WORKERS)
    # buckets per column: [0] underflow, [1 .. n_bins] bins, [n_bins+1] and
    # [n_bins+2] overflow (the clamp parks far-out mass at the edges, where
    # the split weight degenerates to all-left)
    slots = n_bins + 3
    d = family.ndim
    slabs = []
    for lo in range(0, len(points), slab):
        L, a = family.level_terms(points[lo:lo + slab])
        m = np.ascontiguousarray(masses[lo:lo + slab], dtype=float)
        # the compiled loop reads these as (len(m), d) and (len(m),) doubles
        if L.shape != (len(m), d) or (a is not None and a.shape != m.shape):
            raise DimensionMismatchError(
                f"level terms of shape {L.shape} for {len(m)} points, "
                f"family wants ({len(m)}, {d})")
        slabs.append((L, a, m))
    kernel = _load_kernel() if n_bins <= _KERNEL_MAX_BINS else None
    if kernel is not None:
        chunk = _kernel_columns(n_par, n_bins, workers)
    else:
        chunk = min(_CHUNK_ELEMS // slab, n_par)
    workers = min(workers, -(-n_par // chunk))

    def new_worker():
        run = (_compiled_slab(kernel) if kernel is not None
               else _numpy_slab(chunk, slab))
        acc_buf = np.empty((chunk, slots))

        def deposit_block(start):
            M, b = family.param_terms(param_points[start:start + chunk])
            if M.shape[1] != d:
                raise DimensionMismatchError(
                    f"parameters are {M.shape[1]}-d, family wants {d}-d")
            acc = acc_buf[:len(M)]
            acc.fill(0.0)
            for L, a, m in slabs:
                run(L, a, m, M, b, inv_dx, shift, acc)
            rows = slice(start, start + len(M))
            np.divide(acc[:, 1:n_bins + 1], dx, out=values[rows])
            overflow[rows] = acc[:, 0] + acc[:, n_bins + 1] + acc[:, n_bins + 2]

        return deposit_block

    _run_blocks(new_worker, range(0, n_par, chunk), workers)
    return values, overflow


def forward_binned(source, family: LevelFamily, params, x_grid: GridSpec,
                   q_grid: GridSpec | None = None,
                   supersample: int = 1) -> TomogramFamily:
    """Tomogram family of a source at a set of parameter points.

    ``params`` is a GridSpec parameter box, which the result keeps as
    ``param_grid`` (inversion and the GTM-T format need one), or a
    (P, param_dim) array of points, in which case ``param_grid`` is None.
    ``source`` is a ScalarField (integrated on its own grid) or a Phantom
    (integrated over q_grid cells).  Source points on the family's singular
    set contribute nothing and are tallied.  A (P, Nx) table larger than
    physical memory is refused before anything is allocated.
    """
    box = isinstance(params, GridSpec)
    if not box:
        params = np.atleast_2d(np.asarray(params, dtype=float))
    n_par, n_bins = params.size if box else len(params), x_grid.shape[0]
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if n_par * n_bins * 8 > have:
        raise ValueError(
            f"the tomogram table of {n_par} parameters x {n_bins} bins needs "
            f"{n_par * n_bins * 8} bytes, more than the {have} bytes of "
            f"physical memory")
    if x_grid.ndim != 1:
        raise GridError("x_grid must be one-dimensional")
    param_points = params.points() if box else params
    if param_points.shape[1] != family.param_dim:
        raise DimensionMismatchError(
            f"parameter points are {param_points.shape[1]}-d, "
            f"family wants {family.param_dim}-d")
    points, masses = _source_points_masses(source, q_grid, supersample)
    if points.shape[1] != family.ndim:
        raise DimensionMismatchError("source dimension does not match family")

    sing = family.singular_mask(points)
    n_sing = int(sing.sum())
    singular_fraction = n_sing / len(points)
    if n_sing:
        points, masses = points[~sing], masses[~sing]

    values, overflow = _deposit(family, points, masses, param_points, x_grid)

    warnings = []
    total = float(masses.sum())
    if total > 0.0 and n_par:
        worst = float(overflow.max()) / total
        if worst > DEFAULT_OVERFLOW_THRESHOLD:
            warnings.append(
                f"overflow mass up to {worst:.3g} of source mass exceeds "
                f"threshold {DEFAULT_OVERFLOW_THRESHOLD:g}")
    if singular_fraction > 0.05:
        warnings.append(
            f"singular set covers {singular_fraction:.3g} of source points")
    return TomogramFamily(x_grid=x_grid, values=values, family_tag=family.tag,
                          param_grid=params if box else None,
                          param_points=param_points, overflow=overflow,
                          singular_fraction=singular_fraction,
                          warnings=warnings)


# a second name for the one entry point, which callers of point lists use
forward_binned_at = forward_binned


# ---------------------------------------------------------------------------
# property measurements
# ---------------------------------------------------------------------------


def normalization_profile(t) -> np.ndarray:
    """Trapezoid integral of each tomogram over X (one value per parameter)."""
    w = t.x_grid.trapezoid_weights().ravel()
    return t.values @ w


def homogeneity_residual(source, family: LevelFamily, params, lam: float,
                         q_grid: GridSpec | None, x_grid: GridSpec) -> float:
    """Largest violation of |lam| w(lam X; lam params) = w(X; params).

    Two binned runs with matched binning: the second uses the scaled
    parameters and an X grid whose bins are the first grid's bins scaled by
    lam, so corresponding bins describe the same level sets exactly.  Only
    meaningful for families whose level function is linear in the parameters;
    lam must be finite and nonzero.
    """
    if not (math.isfinite(lam) and lam != 0.0):
        raise ValueError(f"lam must be finite and nonzero, got {lam:g}")
    if not family.linear_in_params:
        raise ValueError(
            f"homogeneity needs a parameter-linear family, not {family.tag}")
    params = np.asarray(params, dtype=float)
    lo, hi, n = x_grid.axes[0]
    base = forward_binned(source, family, params[None, :], x_grid, q_grid)
    if lam > 0:
        scaled_grid = GridSpec(((lam * lo, lam * hi, n),))
        reorder = slice(None)
    else:
        scaled_grid = GridSpec(((lam * hi, lam * lo, n),))
        reorder = slice(None, None, -1)
    scaled = forward_binned(source, family, (lam * params)[None, :],
                            scaled_grid, q_grid)
    diff = np.abs(abs(lam) * scaled.values[0][reorder] - base.values[0])
    return float(diff.max())


def pullback_density(target: Phantom, diffeo: Diffeomorphism,
                     q_grid: GridSpec) -> ScalarField:
    """Density f(q) = target(phi(q)) * J(q), the source whose deformed
    tomograms coincide with the target's straight-line tomograms.

    Grid points on the singular set get value zero (a measure-zero set).
    """
    if q_grid.ndim != diffeo.ndim:
        raise DimensionMismatchError("grid and diffeomorphism dimensions differ")
    pts = q_grid.points()
    ok = ~diffeo.singular_fn(pts)
    values = np.zeros(len(pts))
    if np.any(ok):
        values[ok] = target.pdf(diffeo.map_fn(pts[ok])) * diffeo.jacobian_fn(pts[ok])
    return ScalarField(q_grid, values)
