"""Binned co-area marginal engine plus closed-form tomograms for oracle use.

One engine serves every level family: source mass is deposited into X bins
centered on the x_grid points with linear (triangle) weights, so the total
deposited mass (bins + overflow) equals the source quadrature mass up to
rounding and the result is nonnegative for nonnegative sources
(``TestDepositProperties``).  Mass that lands outside the X window is kept
in per-parameter overflow counters so normalization checks can tell
truncation from bugs.

The deposit runs a compiled loop (``_deposit.c``, built on first use: a
vectorized loop on x86-64-v3 and -v4 CPUs, a one-pass loop elsewhere) or,
where nothing can be compiled, the same steps in numpy; every loop and the
numpy path give equal bytes (tests/test_forward.py,
``TestCompiledDeposit``).  The output bytes are identical for every
``GENTOMO_THREADS``
(``TestDepositThreads::test_bytes_identical_for_every_thread_count`` and
``::test_slab_bytes_identical_for_every_thread_count``; AC-10 through the
CLI) and for every block of parameter columns
(``TestDepositKernel::test_block_size_tolerance`` and the ``cols``
parameters of ``test_matches_reference_loop``).  The compiled path sizes
its column blocks from the parameter count, the bin count and the worker
count, since they move no byte; the numpy path sizes them from the slab.
Only the slab partition of the source points, which depends on the point
count alone, moves results, by at most 1e-13 of the peak
(``TestDepositKernel::test_slabs_match_reference_loop``).
"""

from __future__ import annotations

import ctypes
import math
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (DimensionMismatchError, GridError, GridSpec, Phantom,
                   ScalarField, TomogramFamily, gaussian)
from .geometry import Diffeomorphism, LevelFamily, combine_levels

# (source point x parameter) pairs per deposit slab; sized so the slab
# arrays stay cache-resident, which dominates deposit throughput
_CHUNK_ELEMS = 500_000
# bytes of histograms and accumulator rows per block of the compiled
# deposit: kept in L2 while one tile of points serves every column
_BLOCK_BYTES = 1 << 18
# deposit workers at most: 4 slabs in flight bound peak memory
_MAX_WORKERS = 4
# phantom quadrature nodes per pdf call
_PDF_SLAB = 1 << 16

DEFAULT_OVERFLOW_THRESHOLD = 0.01


def _source_points_masses(source, q_grid: GridSpec | None, supersample: int = 1):
    """Quadrature nodes and masses for a field or phantom source.

    Fields are integrated on their own grid points with trapezoid weights.
    Phantoms are evaluated at cell centers (midpoint rule), which halves the
    bias for smooth densities; ``supersample`` subdivides each cell s-fold
    per axis, damping the beat between the source lattice and the X bins
    when a slicing direction aligns with a grid axis.

    The phantom's pdf runs on fixed slabs of ``_PDF_SLAB`` nodes, shared by
    ``thread_count()`` workers.  Every shipped phantom is pointwise, so the
    masses are byte-identical to one full-array ``pdf`` call, for every
    thread count; a Gaussian mixture's pdf runs in one fixed order without
    LAPACK, so its masses are the same on every BLAS/LAPACK build.
    """
    if isinstance(source, ScalarField):
        if q_grid is not None and q_grid != source.grid:
            raise GridError("q_grid must be omitted or equal the field's grid")
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
        _run_blocks(lambda: weigh, starts, min(thread_count(), len(starts)))
        return pts, masses
    raise TypeError(f"source must be a ScalarField or Phantom, got {type(source)}")


def thread_count() -> int:
    """Deposit and quadrature worker threads from ``GENTOMO_THREADS``.

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


def _deposit(family: LevelFamily, points, masses, param_points, x_grid: GridSpec):
    """Accumulate mass into X bins for every parameter point.

    Returns (values (P, Nx), overflow (P,)).  The N source points are cut
    into fixed slabs of ``slab = min(N, _CHUNK_ELEMS)`` points; this cut
    depends on N alone.  The parameter points are cut into blocks of
    columns.  Up to ``thread_count()`` workers (at most ``_MAX_WORKERS``)
    take whole blocks; a block adds its slab accumulators in slab order and
    writes its own rows of values and overflow.  Every column is therefore
    summed in the same order, and the output bytes are identical for every
    ``GENTOMO_THREADS``.

    Each block runs the compiled loop of ``_deposit.c`` once per slab, or,
    where nothing can be compiled, the same steps in numpy: the levels of
    ``combine_levels``, then bucket keys and two ``bincount`` calls.  Both
    evaluate every level and weight in one fixed order and add each
    column's masses in point order, so the two paths give equal bytes, and
    so does every block size.  The compiled loop takes
    ``_kernel_columns(P, Nx, workers)`` columns per block: at least two
    blocks per worker, each block's histograms within ``_BLOCK_BYTES``, so
    the vectorized loop's pass over a tile of points serves every column
    of the block.  The numpy path takes ``_CHUNK_ELEMS // slab`` columns,
    which bounds its (slab x columns) scratch arrays; it also takes every
    deposit of more than ``_KERNEL_MAX_BINS`` bins.  Only the slab
    partition moves results: slab partial sums replace one long sum per
    bucket, and against one slab per block tomograms move by at most 1e-13
    of their peak (1.2e-14 on 4.19 M nodes and 16 hyperplane directions).
    A non-finite level raises ValueError on both paths.
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
    if len(points) == 0:
        return values, overflow

    slab = min(len(points), _CHUNK_ELEMS)
    workers = min(thread_count(), _MAX_WORKERS)
    # buckets per column: [0] underflow, [1 .. n_bins] bins, [n_bins+1] and
    # [n_bins+2] overflow (the clamp below parks far-out mass at the edges,
    # where the split weight degenerates to all-left)
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
        chunk = _CHUNK_ELEMS // slab
    workers = min(workers, -(-n_par // chunk))

    def finish(start, acc):
        """Write the (slots, c) buckets of one block into its rows."""
        c = acc.shape[1]
        np.divide(acc[1:n_bins + 1].T, dx, out=values[start:start + c])
        overflow[start:start + c] = acc[0] + acc[n_bins + 1] + acc[n_bins + 2]

    def new_worker():
        if kernel is not None:
            # (column, bucket) rows, the layout the loop fills
            acc_buf = np.empty((chunk, slots))

            def deposit_block(start):
                M, b = family.param_terms(param_points[start:start + chunk])
                if M.shape[1] != d:
                    raise DimensionMismatchError(
                        f"parameters are {M.shape[1]}-d, family wants {d}-d")
                acc = acc_buf[:len(M)]
                acc.fill(0.0)
                for L, a, m in slabs:
                    rc = kernel(L.ctypes.data, None if a is None else a.ctypes.data,
                                m.ctypes.data, len(L), d, M.ctypes.data,
                                None if b is None else b.ctypes.data, len(M),
                                inv_dx, shift, n_bins, acc.ctypes.data)
                    if rc == -1:
                        raise ValueError(_NON_FINITE_LEVEL)
                    if rc:
                        raise MemoryError(
                            f"the compiled deposit cannot allocate "
                            f"{len(M)} columns of {n_bins} bins")
                finish(start, acc.T)

            return deposit_block

        # scratch reused by every slab of one worker: a fresh multi-MB
        # array per slab would be page-faulted in anew each time
        g_buf = np.empty(chunk * slab)
        key_buf = np.empty(chunk * slab)
        idx_buf = np.empty(chunk * slab, dtype=np.int64)

        def deposit_block(start):
            M, b = family.param_terms(param_points[start:start + chunk])
            c = len(M)
            total = None
            for L, a, m in slabs:
                # (column, point) rows, so every pass runs along the points;
                # each bucket holds one column, whose masses still add in
                # point order
                g = g_buf[:c * len(L)].reshape(c, len(L))
                key = key_buf[:g.size].reshape(g.shape)
                idx = idx_buf[:g.size]
                combine_levels(L, a, M, b, out=g.T, scratch=key.T)
                # the sum is finite when every level is; only an overflowing
                # sum of finite levels needs the exact test
                if not (math.isfinite(g.sum()) or np.isfinite(g).all()):
                    raise ValueError(_NON_FINITE_LEVEL)
                np.multiply(g, inv_dx, out=g)
                g -= shift
                np.clip(g, -1.0, float(n_bins), out=g)
                np.floor(g, out=key)
                g -= key                                  # g now holds frac
                # bucket of the left neighbour, (left + 1) * c + column:
                # exact in float for these integers, so one cast gives it
                key *= c
                key += np.arange(c, 2 * c, dtype=float)[:, None]
                np.copyto(idx, key.ravel(), casting="unsafe")
                g *= m                                    # right weight
                np.subtract(m, g, out=key)                # left weight
                acc = np.bincount(idx, weights=key.ravel(), minlength=slots * c)
                right = np.bincount(idx, weights=g.ravel(), minlength=slots * c)
                acc[c:] += right[:-c]        # right neighbour: one bin row up
                if total is None:
                    total = acc
                else:
                    total += acc
            finish(start, total.reshape(slots, -1))

        return deposit_block

    _run_blocks(new_worker, range(0, n_par, chunk), workers)
    return values, overflow


def _binned(source, family, param_points, x_grid, q_grid, supersample,
            param_grid=None) -> TomogramFamily:
    if x_grid.ndim != 1:
        raise GridError("x_grid must be one-dimensional")
    param_points = np.atleast_2d(np.asarray(param_points, dtype=float))
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
    if total > 0.0:
        worst = float(overflow.max()) / total
        if worst > DEFAULT_OVERFLOW_THRESHOLD:
            warnings.append(
                f"overflow mass up to {worst:.3g} of source mass exceeds "
                f"threshold {DEFAULT_OVERFLOW_THRESHOLD:g}")
    if singular_fraction > 0.05:
        warnings.append(
            f"singular set covers {singular_fraction:.3g} of source points")
    return TomogramFamily(x_grid=x_grid, values=values, family_tag=family.tag,
                          param_grid=param_grid, param_points=param_points,
                          overflow=overflow,
                          singular_fraction=singular_fraction,
                          warnings=warnings)


def _check_table_fits(n_par: int, n_bins: int) -> None:
    """Refuse a (P, Nx) tomogram table larger than physical memory before
    anything is allocated."""
    need = n_par * n_bins * 8
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"the tomogram table of {n_par} parameters x {n_bins} bins needs "
            f"{need} bytes, more than the {have} bytes of physical memory")


def forward_binned(source, family: LevelFamily, param_grid: GridSpec,
                   x_grid: GridSpec, q_grid: GridSpec | None = None,
                   supersample: int = 1) -> TomogramFamily:
    """Tomogram family of a source over a rectangular parameter grid.

    ``source`` is a ScalarField (integrated on its own grid) or a Phantom
    (integrated over q_grid cells).  Source points on the family's singular
    set contribute nothing and are tallied.
    """
    _check_table_fits(math.prod(param_grid.shape), x_grid.shape[0])
    return _binned(source, family, param_grid.points(), x_grid, q_grid,
                   supersample, param_grid)


def forward_binned_at(source, family: LevelFamily, param_points,
                      x_grid: GridSpec, q_grid: GridSpec | None = None,
                      supersample: int = 1) -> TomogramFamily:
    """Tomograms at an explicit (P, param_dim) array of parameter points;
    the result has no parameter box (``param_grid`` is None)."""
    _check_table_fits(len(param_points), x_grid.shape[0])
    return _binned(source, family, param_points, x_grid, q_grid, supersample)


# ---------------------------------------------------------------------------
# closed forms and property measurements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gaussian1D:
    """One-dimensional Gaussian density descriptor."""

    mean: float
    variance: float

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.exp(-((x - self.mean) ** 2) / (2 * self.variance)) / math.sqrt(
            2 * math.pi * self.variance)


def gaussian_hyperplane_tomogram(mean, covariance, mu) -> Gaussian1D:
    """Exact hyperplane tomogram of a Gaussian: the linear functional mu . q
    is Gaussian with mean mu . m and variance mu^T Sigma mu."""
    mu = np.asarray(mu, dtype=float)
    if not np.any(mu != 0.0):
        raise ValueError("mu must be nonzero")
    g = gaussian(mean, covariance)      # checks symmetry and definiteness
    mean, cov = np.asarray(g.means[0]), np.asarray(g.covariances[0])
    return Gaussian1D(mean=float(mu @ mean), variance=float(mu @ cov @ mu))


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
    base = forward_binned_at(source, family, params[None, :], x_grid, q_grid)
    if lam > 0:
        scaled_grid = GridSpec(((lam * lo, lam * hi, n),))
        reorder = slice(None)
    else:
        scaled_grid = GridSpec(((lam * hi, lam * lo, n),))
        reorder = slice(None, None, -1)
    scaled = forward_binned_at(source, family, (lam * params)[None, :],
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
