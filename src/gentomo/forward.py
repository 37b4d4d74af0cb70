"""Binned co-area marginal engine: one entry point, one block loop.

``forward_binned`` serves every level family and takes a parameter box or
a list of points.  Source mass is deposited into X bins centered on the
x_grid points with linear (triangle) weights, so bins plus overflow equal
the source quadrature mass up to rounding, and the result is nonnegative
for nonnegative sources (``TestDepositProperties``).  Mass outside the X
window is kept in per-parameter overflow counters, so normalization checks
can tell truncation from bugs.  The closed forms that check the engine
live in ``oracle``.

``_deposit`` fixes its plan (parameter terms, column blocks, a block
function per worker) before the first slab, then streams the source: it
builds the quadrature nodes one slab at a time and deposits each slab into
every parameter column before it builds the next, so forward memory is one
slab plus the (P, Nx) table.  One rule, ``_workers``, sets every worker
count.  Each slab runs one block loop over one of two slab functions: the
compiled loop of ``_deposit.c`` (built on first use: vectorized up to 4-d
on x86-64-v3 and -v4 CPUs, one pass per point elsewhere) or, where nothing
can be compiled, the same steps in numpy.  The output bytes are equal on
both paths and for every loop (tests/test_forward.py,
``TestCompiledDeposit``), for every ``GENTOMO_THREADS``
(``TestDepositThreads``; AC-10 through the CLI) and for every block of
parameter columns (``TestDepositKernel::test_block_size_tolerance`` and
the ``cols`` parameters of ``test_matches_reference_loop``).  Only the
slab partition of the kept source points, which depends on their count
alone, moves results, by at most 1e-13 of the peak
(``TestDepositKernel::test_slabs_match_reference_loop``).

A family linear in mu has g(q; -mu) = -g(q; mu), so w(X; -mu) = w(-X; mu).
When the X axis has lo == -hi and the P > 1 finite parameter points are
reflections of each other in reverse order, as the points of every box
centred on 0 are, ``_deposit`` deposits rows 0 .. ceil(P/2) - 1 and writes
row P - 1 - i as row i reversed along X (``_reflected_rows``).  A mirrored
row differs from a direct deposit of its point by rounding alone, within
1e-13 of the peak, and its overflow within 1e-13 of the kept mass
(``TestReflectedParameters``).
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading

import numpy as np

from ._native import load_function
from .core import (DimensionMismatchError, GridError, GridSpec, Phantom,
                   ScalarField, TomogramFamily, _integer, _mesh_rows,
                   _node_axes, _trapezoid_rows)
from .geometry import Diffeomorphism, LevelFamily, combine_levels

# kept source points per deposit slab (12 MB of 2-d nodes and masses), and
# the numpy deposit's (point x parameter) pairs per block of columns
_CHUNK_ELEMS = 500_000
# bytes of histograms and output rows per block of the compiled
# deposit: kept in L2 while one tile of points serves every column
_BLOCK_BYTES = 1 << 18
# deposit, quadrature and kernel-sum workers at most: this bounds per-worker
# scratch, chiefly the numpy deposit's (columns x slab) arrays, the pdf's
# temporaries and the kernel sum's b x P_k tables, and the threads a large
# GENTOMO_THREADS starts
_MAX_WORKERS = 4
# phantom quadrature nodes per pdf call
_PDF_SLAB = 1 << 16

DEFAULT_OVERFLOW_THRESHOLD = 0.01


def _source_nodes(source, q_grid: GridSpec | None, supersample: int = 1):
    """(N, nodes) for a field or phantom source: its N quadrature nodes, and
    ``nodes(lo, hi)``, the (points, masses) of nodes lo .. hi - 1 in
    row-major order, built for that range alone.

    Fields are integrated on their own grid points with trapezoid weights,
    and refuse any ``supersample`` but 1.  Phantoms are evaluated at cell
    centers (midpoint rule), which halves the bias for smooth densities;
    ``supersample`` subdivides each cell s-fold per axis, damping the beat
    between the source lattice and the X bins when a slicing direction
    aligns with a grid axis.

    A range's points are the rows of ``grid.points()`` or
    ``q_grid.cell_centers(s)`` and its field masses the entries of the
    full product, byte for byte.  The phantom's pdf runs on pieces of
    ``_PDF_SLAB`` nodes, shared by ``_workers`` threads.  Every shipped
    phantom is pointwise, so the masses are byte-identical to one
    full-array ``pdf`` call, for every range and thread count; a Gaussian
    mixture's pdf runs in one fixed order without LAPACK, so its masses are
    the same on every BLAS/LAPACK build.
    """
    s = _integer(supersample, "supersample")
    if isinstance(source, ScalarField):
        if q_grid is not None and q_grid != source.grid:
            raise GridError("q_grid must be omitted or equal the field's grid")
        if s != 1:
            raise GridError(f"supersample applies to phantom cells; a field "
                            f"is integrated on its own grid, got {supersample}")
        grid, flat = source.grid, source.flat
        axes = _node_axes(grid)

        def field_nodes(lo, hi):
            return (_mesh_rows(axes, lo, hi),
                    flat[lo:hi] * _trapezoid_rows(grid, lo, hi))

        return grid.size, field_nodes
    if isinstance(source, Phantom):
        if q_grid is None:
            raise GridError("phantom sources require a q_grid")
        if q_grid.ndim != source.ndim:
            raise DimensionMismatchError("phantom and q_grid dimensions differ")
        axes = _node_axes(q_grid, s)
        volume = q_grid.cell_volume / s**q_grid.ndim

        def phantom_nodes(lo, hi):
            pts = _mesh_rows(axes, lo, hi)
            masses = np.empty(len(pts))

            def weigh(start):
                stop = start + _PDF_SLAB
                np.multiply(source.pdf(pts[start:stop]), volume,
                            out=masses[start:stop])

            starts = range(0, len(pts), _PDF_SLAB)
            _run_blocks([weigh] * _workers(len(starts)), starts)
            return pts, masses

        return math.prod(len(ax) for ax in axes), phantom_nodes
    raise TypeError(f"source must be a ScalarField or Phantom, got {type(source)}")


def thread_count() -> int:
    """Worker threads asked for by ``GENTOMO_THREADS``; ``_workers`` turns
    this into the worker count of the deposit, the phantom quadrature and
    the kernel sum, one rule for all three.

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


def _workers(n_blocks: int) -> int:
    """Threads for a loop over ``n_blocks`` blocks: ``thread_count()``, at
    most ``_MAX_WORKERS`` and one per block, and at least one."""
    return max(1, min(thread_count(), _MAX_WORKERS, n_blocks))


def _run_blocks(blocks, starts) -> None:
    """Run every start on ``len(blocks)`` threads, the caller's included.

    Each thread feeds its own block function, which owns its scratch
    buffers, starts taken from a shared iterator.  The first exception
    raised in any thread is re-raised after all threads have stopped.
    """
    pending = iter(starts)
    lock = threading.Lock()
    errors = []

    def work(run):
        try:
            while not errors:
                with lock:
                    start = next(pending, None)
                if start is None:
                    return
                run(start)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=[run]) for run in blocks[1:]]
    for t in threads:
        t.start()
    work(blocks[0])
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


# the compiled deposit's ``load_function`` arguments
_PTR, _LONG = ctypes.c_void_p, ctypes.c_long
_DEPOSIT = ("_deposit.c", "gentomo_deposit", ctypes.c_int,
            _PTR, _PTR, _PTR, _LONG, _LONG, _PTR, _PTR, _LONG,
            ctypes.c_double, ctypes.c_double, _LONG, _PTR, _PTR)
# bins the compiled loop indexes (a C int bucket); more take the numpy path
_KERNEL_MAX_BINS = 2**31 - 4


def _kernel_columns(n_par: int, n_bins: int, workers: int) -> int:
    """Parameter columns per block of the compiled deposit: at least two
    blocks per worker, and the block's histograms (2 (n_bins + 2) doubles
    per column) and output rows (n_bins bins and an overflow slot, with two
    doubles to spare) within _BLOCK_BYTES.  A count above 1 is even, since
    the tiled loop scatters columns in pairs and a lone last column alone,
    more slowly."""
    per_column = 8 * (3 * n_bins + 7)
    cols = min(_BLOCK_BYTES // per_column, -(-n_par // (2 * workers)))
    return max(1, cols - cols % 2)


_NON_FINITE_LEVEL = ("non-finite level value (nan or inf): a source point or "
                     "parameter is not finite, or the deformation overflowed")


def _compiled_slab(kernel):
    """``kernel`` behind the slab call of ``_numpy_slab``: return code -1
    raises ValueError, any other nonzero code MemoryError."""
    def run(L, a, m, M, b, inv_dx, shift, bins, overflow):
        rc = kernel(L.ctypes.data, None if a is None else a.ctypes.data,
                    m.ctypes.data, len(L), L.shape[1], M.ctypes.data,
                    None if b is None else b.ctypes.data, len(M),
                    inv_dx, shift, bins.shape[1], bins.ctypes.data,
                    overflow.ctypes.data)
        if rc == -1:
            raise ValueError(_NON_FINITE_LEVEL)
        if rc:
            raise MemoryError(f"the compiled deposit cannot allocate {len(M)} "
                              f"columns of {bins.shape[1]} bins")

    return run


def _numpy_slab(chunk: int, slab: int):
    """The compiled loop's steps in numpy, for blocks of up to ``chunk``
    columns and slabs of up to ``slab`` points.

    ``run(L, a, m, M, b, inv_dx, shift, bins, overflow)`` adds one slab's
    buckets into the block's (columns, n_bins) rows of ``bins`` and the sum
    of its three edge buckets into the block's ``overflow`` entries, as the
    compiled loop does, and raises ValueError on a non-finite level.  The
    scratch arrays are reused by every slab: a fresh multi-MB array per
    slab would be page-faulted in anew each time.
    """
    g_buf = np.empty(chunk * slab)
    key_buf = np.empty(chunk * slab)
    idx_buf = np.empty(chunk * slab, dtype=np.int64)

    def run(L, a, m, M, b, inv_dx, shift, bins, overflow):
        c, n_bins = bins.shape
        slots = n_bins + 3
        # (column, point) rows, so every pass runs along the points; each
        # bucket holds one column, whose masses still add in point order
        g = g_buf[:c * len(L)].reshape(c, len(L))
        key = key_buf[:g.size].reshape(g.shape)
        idx = idx_buf[:g.size]
        # no floating-point warning: a non-finite level raises here.  The
        # sum is finite when every level is; only an overflowing sum of
        # finite levels needs the exact test
        with np.errstate(over="ignore", invalid="ignore"):
            combine_levels(L, a, M, b, out=g.T, scratch=key.T)
            if not (math.isfinite(g.sum()) or np.isfinite(g).all()):
                raise ValueError(_NON_FINITE_LEVEL)
        np.multiply(g, inv_dx, out=g)
        g -= shift
        np.clip(g, -1.0, float(n_bins), out=g)
        np.floor(g, out=key)
        g -= key                                  # g now holds frac
        # bucket of the left neighbour, column * slots + left + 1: exact in
        # float for these integers, so one cast gives it
        key += np.arange(1, c * slots, slots, dtype=float)[:, None]
        np.copyto(idx, key.ravel(), casting="unsafe")
        g *= m                                    # right weight
        np.subtract(m, g, out=key)                # left weight
        part = np.bincount(idx, key.ravel(), c * slots).reshape(c, slots)
        right = np.bincount(idx, g.ravel(), c * slots).reshape(c, slots)
        part[:, 1:] += right[:, :-1]              # right neighbour: one slot up
        bins += part[:, 1:n_bins + 1]
        # underflow and overflow: the clamp parks far-out mass at the
        # edges, where the split weight degenerates to all-left
        overflow += part[:, 0] + part[:, n_bins + 1] + part[:, n_bins + 2]

    return run


def _reflected_rows(family: LevelFamily, param_points: np.ndarray,
                    x_grid: GridSpec) -> int:
    """P // 2 when row P - 1 - i of the forward's table is row i reversed
    along X for every i (the rule stated in ``forward_binned``), else 0.
    It reads the points alone and raises no floating-point warning."""
    lo, hi, _ = x_grid.axes[0]
    n_par = len(param_points)
    if not (family.linear_in_params and lo == -hi and n_par > 1
            and np.isfinite(param_points).all()):
        return 0
    tol = 4 * np.finfo(float).eps * np.abs(param_points).max()
    with np.errstate(over="ignore"):
        gap = np.abs(param_points + param_points[::-1]).max()
    return n_par // 2 if gap <= tol else 0


def _deposit(family: LevelFamily, n_nodes: int, nodes, param_points,
             x_grid: GridSpec):
    """Accumulate the mass of a streamed source into X bins for every
    parameter point.

    ``nodes(lo, hi)`` gives the (points, masses) of source nodes lo .. hi - 1
    of ``n_nodes`` (see ``_source_nodes``).  Returns (values (P, Nx),
    overflow (P,), the count of nodes on the family's singular set, the
    mass of the other nodes).

    The plan is fixed before the first slab: one ``param_terms`` call for
    all P columns, of which each block takes its rows, the blocks, and a
    block function for each of ``_workers(blocks)`` workers.  Then the
    source is the outer loop.  Nodes are built ``_CHUNK_ELEMS`` at a
    time; those on the singular set are dropped, and a carry holds the kept
    points until they fill a slab of ``_CHUNK_ELEMS``, so the slabs are the
    ones a cut of all kept points would give, whatever the singular set.
    Each slab's level terms are built, then every block of parameter
    columns takes the slab, and the slab is freed before the next is
    built: forward memory is O(slab d + P Nx).

    One block loop serves both paths: a block calls its slab function
    (``_compiled_slab`` or ``_numpy_slab``), which adds the slab straight
    into the block's own rows of values (the bins) and of overflow.  Slabs
    come in slab order, so each column sums in one order for every
    ``GENTOMO_THREADS``, and values is divided by dx once at the end.
    Both slab functions evaluate every level and weight in one fixed order
    and add each column's masses in point order, so they give equal bytes,
    for every block size.  The compiled loop takes
    ``_kernel_columns`` columns per block, so one pass over a tile of
    points serves every column of the block.  The numpy path takes
    ``min(_CHUNK_ELEMS // slab, P)`` columns, ``slab = min(N,
    _CHUNK_ELEMS)``, which bounds its (columns x slab) scratch by
    ``_CHUNK_ELEMS`` pairs; it also takes every deposit of more than
    ``_KERNEL_MAX_BINS`` bins.  Against one slab per block, slab partial
    sums move tomograms by at most 1e-13 of their peak (1.2e-14 on 4.19 M
    nodes and 16 hyperplane directions).  A non-finite level raises
    ValueError on both paths.

    Where ``_reflected_rows`` finds the points reflected, only the first
    ceil(P/2) rows are planned and deposited; the last P // 2 are written
    in place as the first ones reversed along X, with their overflow.
    """
    n_bins = x_grid.shape[0]
    x0 = x_grid.axes[0][0]
    dx = x_grid.spacing[0]
    inv_dx, shift = 1.0 / dx, x0 / dx
    if not (math.isfinite(inv_dx) and math.isfinite(shift)):
        raise ValueError(f"X grid spacing {dx:g} is too fine to bin")
    n_par = len(param_points)
    d = family.ndim
    if param_points.shape[1] != d:
        raise DimensionMismatchError(
            f"parameter points are {param_points.shape[1]}-d, "
            f"family wants {d}-d")
    values = np.zeros((n_par, n_bins))
    overflow = np.zeros(n_par)
    n_singular = 0
    kept_mass = 0.0
    # the last n_mirror rows are the first ones reflected; only the first
    # n_dep rows are deposited
    n_mirror = _reflected_rows(family, param_points, x_grid)
    n_dep = n_par - n_mirror
    if n_par:
        M, b = family.param_terms(param_points[:n_dep])
        kernel = (load_function(*_DEPOSIT) if n_bins <= _KERNEL_MAX_BINS
                  else None)
        slab = min(n_nodes, _CHUNK_ELEMS)
        chunk = (min(_CHUNK_ELEMS // slab, n_dep) if kernel is None
                 else _kernel_columns(n_dep, n_bins, _workers(n_dep)))
        starts = range(0, n_dep, chunk)

        def deposit_block(run, start):  # L, a, m: the current slab's
            rows = slice(start, min(start + chunk, n_dep))
            run(L, a, m, M[rows], None if b is None else b[rows],
                inv_dx, shift, values[rows], overflow[rows])

        blocks = [functools.partial(deposit_block, _numpy_slab(chunk, slab)
                                    if kernel is None else
                                    _compiled_slab(kernel))
                  for _ in range(_workers(len(starts)))]

    def slabs():
        nonlocal n_singular
        carry = None
        for lo in range(0, n_nodes, _CHUNK_ELEMS):
            p, m = nodes(lo, min(lo + _CHUNK_ELEMS, n_nodes))
            if p.shape[1] != d:
                raise DimensionMismatchError(
                    "source dimension does not match family")
            sing = family.singular_mask(p)
            if sing.any():
                n_singular += int(sing.sum())
                p, m = p[~sing], m[~sing]
            if carry is not None:
                p, m = np.concatenate([carry[0], p]), np.concatenate([carry[1], m])
            whole = len(p) - len(p) % _CHUNK_ELEMS
            for start in range(0, whole, _CHUNK_ELEMS):
                yield p[start:start + _CHUNK_ELEMS], m[start:start + _CHUNK_ELEMS]
            carry = (p[whole:], m[whole:]) if whole < len(p) else None
            del p, m        # this chunk's, before the next one is built
        if carry is not None:
            yield carry

    for p, m in slabs():
        kept_mass += float(m.sum())
        if not n_par:
            continue
        L, a = family.level_terms(p)
        m = np.ascontiguousarray(m, dtype=float)
        # the compiled loop reads these as (len(m), d) and (len(m),) doubles
        if L.shape != (len(m), d) or (a is not None and a.shape != m.shape):
            raise DimensionMismatchError(
                f"level terms of shape {L.shape} for {len(m)} points, "
                f"family wants ({len(m)}, {d})")
        _run_blocks(blocks, starts)
        del p, m, L, a      # this slab's, before the next one is built

    np.divide(values[:n_dep], dx, out=values[:n_dep])
    if n_mirror:
        # in place: the two row ranges do not overlap, so numpy copies
        # through no temporary table
        values[n_dep:] = values[n_mirror - 1::-1, ::-1]
        overflow[n_dep:] = overflow[n_mirror - 1::-1]
    return values, overflow, n_singular, kept_mass


def forward_binned(source, family: LevelFamily, params, x_grid: GridSpec,
                   q_grid: GridSpec | None = None,
                   supersample: int = 1) -> TomogramFamily:
    """Tomogram family of a source at a set of parameter points.

    ``params`` is a GridSpec parameter box, which the result keeps as
    ``param_grid`` (inversion and the GTM-T format need one), or a
    (P, ndim) array of points, in which case ``param_grid`` is None.
    ``source`` is a ScalarField (integrated on its own grid) or a Phantom
    (integrated over q_grid cells).  Source points on the family's singular
    set contribute nothing and are tallied.  The source is streamed in
    slabs (see ``_deposit``), so its size costs time, not memory; a (P, Nx)
    table larger than physical memory is refused before anything is
    allocated, where the OS can tell its size.  The overflow warning
    compares against the kept source mass summed slab by slab.  ``supersample`` and every grid count must be
    integers; an integral float such as 2.0 is taken as 2, and a fraction
    or a string raises GridError.

    For a family linear in mu (hyperplane, circle, hyperbola, hyperboloid)
    on an X grid with lo == -hi, P > 1 finite parameter points that are
    reflections of each other in reverse order, |mu[P - 1 - i] + mu[i]| <=
    4 eps max|mu|, are deposited for the first half only: row P - 1 - i is
    row i reversed along X, within 1e-13 of the peak of a direct deposit,
    with row i's overflow, within 1e-13 of the kept mass.  Every box
    centred on 0 passes; the rule reads the points, so a box and its
    ``points()`` give equal bytes.
    """
    box = isinstance(params, GridSpec)
    if not box:
        params = np.asarray(params, dtype=float)
        params = params.reshape(0, family.ndim) if params.shape == (0,) \
            else np.atleast_2d(params)
    n_par, n_bins = params.size if box else len(params), x_grid.shape[0]
    sysconf = getattr(os, "sysconf", None)      # none on Windows
    have = (sysconf("SC_PAGE_SIZE") * sysconf("SC_PHYS_PAGES") if sysconf
            else math.inf)
    if n_par * n_bins * 8 > have:
        raise ValueError(
            f"the tomogram table of {n_par} parameters x {n_bins} bins needs "
            f"{n_par * n_bins * 8} bytes, more than the {have} bytes of "
            f"physical memory")
    if x_grid.ndim != 1:
        raise GridError("x_grid must be one-dimensional")
    param_points = params.points() if box else params
    n_nodes, nodes = _source_nodes(source, q_grid, supersample)
    values, overflow, n_sing, total = _deposit(family, n_nodes, nodes,
                                               param_points, x_grid)
    singular_fraction = n_sing / n_nodes

    warnings = []
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
                          param_points=None if box else param_points,
                          overflow=overflow,
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


def pullback_density(target: Phantom, diffeo: Diffeomorphism,
                     q_grid: GridSpec) -> ScalarField:
    """Density f(q) = target(phi(q)) * J(q), the source whose deformed
    tomograms coincide with the target's straight-line tomograms.

    Grid points on the singular set get value zero (a measure-zero set).
    """
    if q_grid.ndim != diffeo.ndim:
        raise DimensionMismatchError("grid and diffeomorphism dimensions differ")
    pts = q_grid.points()
    ok = ~diffeo.singular_mask(pts)
    values = np.zeros(len(pts))
    if np.any(ok):
        values[ok] = target.pdf(diffeo.map_fn(pts[ok])) * diffeo.jacobian_fn(pts[ok])
    return ScalarField(q_grid, values)
