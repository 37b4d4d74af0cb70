"""Grids, scalar fields and analytic phantoms shared by every transform.

All containers are immutable after construction and every operation is a
pure function, so concurrent reads are always safe.  Field values are kept
in row-major (C) order with axes in the order they were declared.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


class GridError(ValueError):
    """Invalid grid description."""


class DimensionMismatchError(ValueError):
    """Operands live on different grids or dimensions."""


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def _integer(value, what: str) -> int:
    """``value`` as an int: an integer, or a float with an integral value
    such as 2.0.  A fraction, a string or any other type raises GridError
    instead of being truncated."""
    if isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and float(value).is_integer()):
        return int(value)
    raise GridError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular sampling grid in R^n.

    ``axes`` is a tuple of ``(min, max, count)`` triples; spacing on axis i
    is ``(max_i - min_i) / (count_i - 1)`` and grid points are exactly
    ``min_i + k * spacing_i``.
    """

    axes: tuple[tuple[float, float, int], ...]

    def __post_init__(self):
        if not self.axes:
            raise GridError("grid needs at least one axis")
        norm = []
        for a in self.axes:
            if len(a) != 3:
                raise GridError(f"axis spec must be (min, max, count), got {a!r}")
            lo, hi, n = float(a[0]), float(a[1]), _integer(a[2], "axis count")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise GridError(f"non-finite axis bounds ({lo}, {hi})")
            if n < 2:
                raise GridError(f"axis count must be >= 2, got {n}")
            if not hi > lo:
                raise GridError(f"axis max must exceed min, got ({lo}, {hi})")
            # the last point as axis_points computes it; the spacing of
            # finite bounds can still overflow, as for (-1e308, 1e308)
            if not math.isfinite(lo + (hi - lo) / (n - 1) * (n - 1)):
                raise GridError(f"axis spacing of ({lo}, {hi}, {n}) overflows")
            norm.append((lo, hi, n))
        object.__setattr__(self, "axes", tuple(norm))

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(n for _, _, n in self.axes)

    @property
    def size(self) -> int:
        # Python ints: an int64 product would wrap past 2**63 points
        return math.prod(self.shape)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((hi - lo) / (n - 1) for lo, hi, n in self.axes)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_points(self, i: int) -> np.ndarray:
        lo, hi, n = self.axes[i]
        return lo + (hi - lo) / (n - 1) * np.arange(n)

    def points(self) -> np.ndarray:
        """All grid points, shape (size, ndim), row-major in the axis order."""
        return _mesh_points(_node_axes(self))

    def cell_centers(self, s: int = 1) -> np.ndarray:
        """Centers of the cells subdivided s-fold per axis, row-major."""
        return _mesh_points(_node_axes(self, s))

    def trapezoid_weights(self) -> np.ndarray:
        """Quadrature weights (outer product of per-axis trapezoid weights),
        shaped like the grid."""
        w = np.array([1.0])
        for wi in _trapezoid_axes(self):
            w = np.multiply.outer(w, wi)
        return w.reshape(self.shape)


def _node_axes(grid: GridSpec, s: int | None = None) -> list[np.ndarray]:
    """Per-axis coordinates of ``grid.points()`` (s None) or of
    ``grid.cell_centers(s)``."""
    if s is None:
        return [grid.axis_points(i) for i in range(grid.ndim)]
    if s < 1:
        raise GridError(f"cell subdivision (supersample) must be >= 1, got {s}")
    return [(grid.axis_points(i)[:-1, None] + d * (np.arange(s) + 0.5) / s).ravel()
            for i, d in enumerate(grid.spacing)]


def _trapezoid_axes(grid: GridSpec) -> list[np.ndarray]:
    """Per-axis trapezoid weights: the spacing, halved at both ends."""
    axes = []
    for n, dx in zip(grid.shape, grid.spacing):
        wi = np.full(n, dx)
        wi[0] *= 0.5
        wi[-1] *= 0.5
        axes.append(wi)
    return axes


def _trapezoid_rows(grid: GridSpec, lo: int, hi: int) -> np.ndarray:
    """Flat entries lo .. hi - 1 of ``grid.trapezoid_weights()``: the
    per-axis weights multiplied in axis order."""
    cols = _mesh_rows(_trapezoid_axes(grid), lo, hi)
    w = cols[:, 0].copy()
    for i in range(1, grid.ndim):
        w *= cols[:, i]
    return w


def _mesh_points(axes) -> np.ndarray:
    """Row-major (prod(len(a)), len(axes)) mesh, filled in place column-wise."""
    out = np.empty(tuple(len(a) for a in axes) + (len(axes),))
    for i, a in enumerate(axes):
        out[..., i] = np.reshape(a, (-1,) + (1,) * (len(axes) - 1 - i))
    return out.reshape(-1, len(axes))


def _mesh_rows(axes, lo: int, hi: int) -> np.ndarray:
    """Rows lo .. hi - 1 of ``_mesh_points(axes)``, cut from the mesh of the
    rows of axis 0 that hold them, so a source can be built one slab at a
    time for at most two rows of axis 0 more than the slab."""
    inner = math.prod(len(a) for a in axes[1:])
    r0, r1 = lo // inner, -(-hi // inner)
    return _mesh_points([axes[0][r0:r1], *axes[1:]])[lo - r0 * inner:hi - r0 * inner]


def make_grid(ndim: int, axes) -> GridSpec:
    """Build a GridSpec, validating the axis count against ``ndim``."""
    axes = tuple(tuple(a) for a in axes)
    if int(ndim) != len(axes):
        raise GridError(f"ndim {ndim} does not match {len(axes)} axis specs")
    return GridSpec(axes)


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real values sampled on a GridSpec, stored C-ordered in the axis order."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.size != self.grid.size:
            raise DimensionMismatchError(
                f"{v.size} values for a grid of {self.grid.size} points")
        v = v.reshape(self.grid.shape)
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must all be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()


def total_mass(f: ScalarField) -> float:
    """Trapezoid-rule integral of the field over its grid."""
    return float(np.sum(f.values * f.grid.trapezoid_weights()))


def l2_rel_error(a: ScalarField, b: ScalarField, mask: np.ndarray | None = None) -> float:
    """Grid-weighted relative L2 distance ||a - b|| / ||b||.

    ``mask`` optionally restricts the norms to a boolean subset of grid
    points (used to exclude margins around singular sets).  Returns 0 when
    both fields vanish and +inf when only the reference does.
    """
    if a.grid != b.grid:
        raise DimensionMismatchError("fields live on different grids")
    w = a.grid.trapezoid_weights()
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).reshape(a.grid.shape)
        w = np.where(mask, w, 0.0)
    num = math.sqrt(float(np.sum(w * (a.values - b.values) ** 2)))
    den = math.sqrt(float(np.sum(w * b.values**2)))
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


# ---------------------------------------------------------------------------
# phantoms
# ---------------------------------------------------------------------------


class Phantom:
    """Analytic probability density on R^n, evaluable pointwise.

    Subclasses are normalized by construction (total mass 1 over R^n) and
    nonnegative everywhere.  ``pdf`` takes an (N, ndim) array of points;
    ``draw`` produces exact samples for the Monte-Carlo oracle.
    """

    ndim: int

    def pdf(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def _check_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.shape[1] != self.ndim:
            raise DimensionMismatchError(
                f"points have dimension {pts.shape[1]}, phantom is {self.ndim}-d")
        return pts


@dataclass(frozen=True)
class GaussianMixture(Phantom):
    """Convex combination of Gaussian components; weights must sum to 1."""

    weights: tuple[float, ...]
    means: tuple[tuple[float, ...], ...]
    covariances: tuple[tuple[tuple[float, ...], ...], ...]
    _chols: tuple = field(init=False, repr=False, compare=False, default=())
    _norms: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        means = [np.asarray(m, dtype=float) for m in self.means]
        covs = [np.asarray(c, dtype=float) for c in self.covariances]
        if not all(np.isfinite(x).all() for x in (w, *means, *covs)):
            raise ValueError("weights, means and covariances must be finite")
        if w.size == 0 or np.any(w <= 0):
            raise ValueError("component weights must be positive")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {w.sum()}, expected 1")
        if not (len(means) == len(covs) == w.size):
            raise ValueError("weights, means and covariances must align")
        nd = means[0].size
        if nd == 0:
            raise ValueError("a component mean needs at least one coordinate")
        chols = []
        for m, c in zip(means, covs):
            if m.size != nd or c.shape != (nd, nd):
                raise DimensionMismatchError("inconsistent component dimensions")
            if not np.allclose(c, c.T, atol=1e-12 * max(1.0, np.abs(c).max())):
                raise ValueError("covariance must be symmetric")
            L = np.zeros((nd, nd))   # Cholesky, row by row, without LAPACK
            for i, j in zip(*np.tril_indices(nd)):
                t = c[i, j]
                for k in range(j):
                    t -= L[i, k] * L[j, k]
                if i == j and not t > 0:
                    raise ValueError("covariance must be positive-definite")
                L[i, j] = math.sqrt(t) if i == j else t * (1.0 / L[j, j])
            chols.append(L)
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "means", tuple(tuple(m) for m in means))
        object.__setattr__(self, "covariances",
                           tuple(tuple(tuple(r) for r in c) for c in covs))
        object.__setattr__(self, "_chols", tuple(chols))
        object.__setattr__(self, "_norms", tuple(
            (2 * np.pi) ** (nd / 2) * np.prod(np.diag(L)) for L in chols))

    @property
    def ndim(self) -> int:
        return len(self.means[0])

    def pdf(self, points: np.ndarray) -> np.ndarray:
        """Density w exp(-|y|^2 / 2) / norm summed over the components, with
        L y = q - m solved by forward substitution; every step runs in index
        order without LAPACK or FMA, the same on any build and point split."""
        pts = self._check_points(points)
        out = np.zeros(len(pts))
        # every step in place: a fresh array per step costs more than it does
        *y, quad, tmp = np.empty((self.ndim + 2, len(pts)))
        for w, m, L, norm in zip(self.weights, self.means, self._chols, self._norms):
            quad.fill(0.0)
            for i, row in enumerate(L):
                np.subtract(pts[:, i], m[i], out=y[i])
                for k in range(i):
                    y[i] -= np.multiply(row[k], y[k], out=tmp)
                y[i] /= row[i]
                quad += np.multiply(y[i], y[i], out=tmp)
            np.exp(np.multiply(quad, -0.5, out=quad), out=quad)
            out += np.divide(np.multiply(quad, w, out=quad), norm, out=quad)
        return out

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        comp = rng.choice(len(self.weights), size=n, p=self.weights)
        z = rng.standard_normal((n, self.ndim))
        out = np.empty((n, self.ndim))
        for k, (m, chol) in enumerate(zip(self.means, self._chols)):
            sel = comp == k
            out[sel] = np.asarray(m) + z[sel] @ chol.T
        return out


def gaussian(mean, covariance) -> GaussianMixture:
    """Single-component Gaussian phantom."""
    return GaussianMixture(weights=(1.0,), means=(mean,),
                           covariances=(covariance,))


def standard_gaussian(ndim: int) -> GaussianMixture:
    """Zero-mean identity-covariance Gaussian in ``ndim`` dimensions."""
    return gaussian(np.zeros(ndim), np.eye(ndim))


@dataclass(frozen=True)
class UniformBall(Phantom):
    """Constant density 1/vol on the closed ball of given center and radius."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if not np.isfinite(np.asarray(self.center, dtype=float)).all():
            raise ValueError("ball center must be finite")
        object.__setattr__(self, "center",
                           tuple(float(x) for x in np.asarray(self.center)))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def ndim(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> float:
        n = self.ndim
        return math.pi ** (n / 2) / math.gamma(n / 2 + 1) * self.radius**n

    def pdf(self, points: np.ndarray) -> np.ndarray:
        pts = self._check_points(points)
        r2 = np.sum((pts - np.asarray(self.center)) ** 2, axis=1)
        return np.where(r2 <= self.radius**2, 1.0 / self.volume, 0.0)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # isotropic direction times U^{1/n}-distributed radius is exact
        z = rng.standard_normal((n, self.ndim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        r = self.radius * rng.random(n) ** (1.0 / self.ndim)
        return np.asarray(self.center) + z * r[:, None]


@dataclass(frozen=True)
class UniformBox(Phantom):
    """Constant density 1/vol on a closed axis-aligned box."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.size != hi.size:
            raise DimensionMismatchError("box corners differ in dimension")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box corners must be finite")
        if not np.all(hi > lo):
            raise ValueError("box max corner must exceed min corner")
        object.__setattr__(self, "lo", tuple(lo))
        object.__setattr__(self, "hi", tuple(hi))

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return float(np.prod(np.asarray(self.hi) - np.asarray(self.lo)))

    def pdf(self, points: np.ndarray) -> np.ndarray:
        pts = self._check_points(points)
        inside = np.all((pts >= np.asarray(self.lo)) & (pts <= np.asarray(self.hi)),
                        axis=1)
        return np.where(inside, 1.0 / self.volume, 0.0)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        return lo + (hi - lo) * rng.random((n, self.ndim))


def sample_phantom(phantom: Phantom, grid: GridSpec) -> ScalarField:
    """Evaluate the phantom density at every grid point."""
    if phantom.ndim != grid.ndim:
        raise DimensionMismatchError(
            f"phantom is {phantom.ndim}-d, grid is {grid.ndim}-d")
    return ScalarField(grid, phantom.pdf(grid.points()))


# ---------------------------------------------------------------------------
# tomogram families
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TomogramFamily:
    """Sampled marginal density over an X grid for every parameter point.

    ``values[p, k]`` is the marginal density in the bin centered at the k-th
    X grid point, for the parameter point ``param_points[p]``.  A tomogram
    taken on a parameter box keeps the box in ``param_grid`` and its points
    in row-major order as ``param_points``, which, if given, must equal
    them (DimensionMismatchError); inversion and the GTM-T format need the
    box.  A tomogram at an explicit list of points, such as unit
    directions, has ``param_grid`` None.  ``overflow[p]`` is the
    source mass that fell outside the X window and was kept out of the bins;
    ``singular_fraction`` is the share of source points skipped because the
    level function is undefined there.  ``warnings`` carries data-quality
    flags, never errors.
    """

    x_grid: GridSpec
    values: np.ndarray
    family_tag: str
    param_grid: GridSpec | None = None
    param_points: np.ndarray = None
    overflow: np.ndarray = None
    singular_fraction: float = 0.0
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.x_grid.ndim != 1:
            raise GridError("x_grid must be one-dimensional")
        if self.param_grid is not None:
            pts = self.param_grid.points()
            if self.param_points is not None and not np.array_equal(
                    self.param_points, pts):
                raise DimensionMismatchError(
                    "param_points differ from the parameter box's points")
        elif self.param_points is None:
            raise GridError("a tomogram needs param_grid or param_points")
        else:
            pts = np.array(self.param_points, dtype=np.float64, ndmin=2)
        pts.setflags(write=False)
        object.__setattr__(self, "param_points", pts)
        n_par = len(pts)
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (n_par, self.x_grid.size):
            raise DimensionMismatchError(
                f"values shape {v.shape} != ({n_par}, {self.x_grid.size})")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        ov = (np.zeros(n_par) if self.overflow is None
              else np.asarray(self.overflow, dtype=np.float64).reshape(n_par))
        ov.setflags(write=False)
        object.__setattr__(self, "overflow", ov)
        object.__setattr__(self, "warnings", tuple(self.warnings))
