"""Level-set family catalogue: hyperplanes, diffeomorphism-deformed surfaces
(circles through the origin, hyperbolas, hyperboloids) and shifted quadrics.

Every family is one ``LevelFamily``: a quadric form, possibly all-linear,
over an optional diffeomorphism.  It exposes a level function g(q; params),
a Jacobian weight used by the deformed inversion kernel, and a singular set
(distance zero).  Singular points are handled by exclusion: the vectorized
methods let the marginal engine skip offending cells (a measure-zero set).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import DimensionMismatchError

# relative spectral threshold below which an eigenvalue counts as zero
ZERO_EIG_RTOL = 1e-10

# every LevelFamily.tag, in GTM-T code order (code = index + 1): append only
FAMILY_NAMES = ("hyperplane", "circle", "hyperbola", "hyperboloid",
                "quadric", "hybrid", "deformed")


# ---------------------------------------------------------------------------
# diffeomorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diffeomorphism:
    """Smooth invertible map of R^n minus a singular set.

    ``map_fn`` and ``jacobian_fn`` are vectorized over an (N, ndim) array of
    points; ``jacobian_fn`` returns the absolute determinant of the map's
    derivative.  ``singular_distance_fn`` is the distance to the set where
    the map is undefined, zero exactly on it and +inf when it is empty.  A
    deformed hyperplane family's ``LevelFamily.tag`` is read off ``name``.
    """

    ndim: int
    name: str
    map_fn: Callable[[np.ndarray], np.ndarray]
    jacobian_fn: Callable[[np.ndarray], np.ndarray]
    singular_distance_fn: Callable[[np.ndarray], np.ndarray]

    def singular_mask(self, points: np.ndarray) -> np.ndarray:
        """True at the (N, ndim) points on the singular set: distance 0."""
        return self.singular_distance_fn(points) == 0.0


@lru_cache(maxsize=None)
def identity_map(ndim: int) -> Diffeomorphism:
    """q -> q; one shared instance per n, so a family can test for it."""
    return Diffeomorphism(
        ndim=ndim,
        name="identity",
        map_fn=lambda q: np.array(q, dtype=float, copy=True),
        jacobian_fn=lambda q: np.ones(len(q)),
        singular_distance_fn=lambda q: np.full(len(q), np.inf),
    )


def conformal_inversion() -> Diffeomorphism:
    """(q, p) -> (q, p) / (q^2 + p^2): lines become circles through the origin."""

    def _map(q):
        r2 = np.sum(q * q, axis=1, keepdims=True)
        return q / r2

    def _jac(q):
        r2 = np.sum(q * q, axis=1)
        return 1.0 / r2**2

    return Diffeomorphism(
        ndim=2,
        name="conformal_inversion",
        map_fn=_map,
        jacobian_fn=_jac,
        singular_distance_fn=lambda q: np.sqrt(np.sum(q * q, axis=1)),
    )


def axis_inversion() -> Diffeomorphism:
    """(q, p) -> (1/q, p): lines become hyperbolas with a vertical asymptote."""

    def _map(q):
        out = np.array(q, dtype=float, copy=True)
        out[:, 0] = 1.0 / q[:, 0]
        return out

    return Diffeomorphism(
        ndim=2,
        name="axis_inversion",
        map_fn=_map,
        jacobian_fn=lambda q: 1.0 / q[:, 0] ** 2,
        singular_distance_fn=lambda q: np.abs(q[:, 0]),
    )


def hyperboloid_map(n: int) -> Diffeomorphism:
    """(q, p) in R^{2n} -> (q, q*p) componentwise; Jacobian prod |q_j|."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def _map(z):
        q, p = z[:, :n], z[:, n:]
        return np.concatenate([q, q * p], axis=1)

    return Diffeomorphism(
        ndim=2 * n,
        name="hyperboloid_map",
        map_fn=_map,
        jacobian_fn=lambda z: np.prod(np.abs(z[:, :n]), axis=1),
        singular_distance_fn=lambda z: np.min(np.abs(z[:, :n]), axis=1),
    )


# ---------------------------------------------------------------------------
# quadric forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuadricForm:
    """Symmetric matrix defining the pattern X = (q - mu, B (q - mu)).

    For hybrid use, ``linear_axes`` declares which coordinates B treats
    linearly; B must vanish on all rows/columns of those axes and be
    non-degenerate on the rest.
    """

    B: np.ndarray
    linear_axes: tuple[int, ...] = ()

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1] or B.size == 0:
            raise ValueError("B must be a non-empty square matrix")
        with np.errstate(over="ignore", invalid="ignore"):
            sym = 0.5 * (B + B.T)
        if not np.isfinite(sym).all():
            raise ValueError("B must be finite, and B + B^T must not overflow")
        scale = max(np.abs(B).max(), 1e-300)
        if not np.allclose(B, B.T, atol=1e-12 * scale):
            raise ValueError("B must be symmetric")
        B = sym
        B.setflags(write=False)
        object.__setattr__(self, "B", B)
        lin = tuple(sorted(int(a) for a in self.linear_axes))
        if any(a < 0 or a >= B.shape[0] for a in lin):
            raise ValueError("linear axis index out of range")
        if len(set(lin)) != len(lin):
            raise ValueError("duplicate linear axes")
        object.__setattr__(self, "linear_axes", lin)
        if lin:
            idx = np.array(lin)
            if np.abs(B[idx, :]).max() > 1e-12 * scale:
                raise ValueError("declared linear axes must decouple from B")

    @property
    def ndim(self) -> int:
        return self.B.shape[0]

    @property
    def quadric_axes(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.ndim) if i not in self.linear_axes)

    @property
    def B_core(self) -> np.ndarray:
        """B restricted to the non-linear coordinates."""
        idx = np.array(self.quadric_axes, dtype=int)
        return self.B[np.ix_(idx, idx)]

    @property
    def signature(self) -> tuple[int, int, int]:
        """(n_plus, n_minus, n_zero) counted with a relative zero threshold.

        Computed on demand: the first LAPACK call of a process costs about
        1 MB of resident memory, which all-linear forms never need."""
        eigs = np.linalg.eigvalsh(self.B)
        tol = ZERO_EIG_RTOL * max(np.abs(eigs).max(), 0.0)
        n_plus = int(np.sum(eigs > tol))
        n_minus = int(np.sum(eigs < -tol))
        return n_plus, n_minus, self.ndim - n_plus - n_minus

    @property
    def core_determinant(self) -> float:
        """Determinant of the non-degenerate block."""
        core = self.B_core
        if core.size == 0:
            return 1.0
        return float(np.linalg.det(core))

    def require_nondegenerate(self):
        n_plus, n_minus, n_zero = self.signature
        if n_zero > 0:
            raise ValueError(
                "B is degenerate; declare linear_axes and use the hybrid family")


# ---------------------------------------------------------------------------
# level families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelFamily:
    """Family of codimension-one level sets g(q; mu) = X: the shifted
    quadric of ``form`` over the optional deformation ``diffeo``,

        g(q; mu) = (p' - mu', B2 (p' - mu')) + mu_lin . p_lin,  p = phi(q)

    with B2 the form's core block on its quadric axes (primed) and p = q
    when ``diffeo`` is None.  An all-linear form gives hyperplanes, or
    deformed hyperplanes under phi; a form with a core gives quadrics, or
    hybrids when linear axes remain.  ``tag`` is read off both fields.
    """

    form: QuadricForm
    diffeo: Diffeomorphism | None = None

    def __post_init__(self):
        if self.diffeo is not None and self.diffeo.ndim != self.form.ndim:
            raise DimensionMismatchError(
                f"diffeomorphism is {self.diffeo.ndim}-d, "
                f"form is {self.form.ndim}-d")

    @property
    def ndim(self) -> int:
        """Dimension of the q space."""
        return self.form.ndim

    @property
    def linear_in_params(self) -> bool:
        """True when the form has no quadric core, so g is linear in mu."""
        return not self.form.quadric_axes

    @property
    def undeformed(self) -> bool:
        """True when p = q: no diffeomorphism, or ``identity_map(ndim)``."""
        return self.diffeo in (None, identity_map(self.ndim))

    @property
    def tag(self) -> str:
        plane, circle, hyperbola, hyperboloid, quadric, hybrid, deformed = \
            FAMILY_NAMES
        if self.undeformed:
            return (plane if self.linear_in_params
                    else hybrid if self.form.linear_axes else quadric)
        name = self.diffeo.name if self.linear_in_params else None
        return {"conformal_inversion": circle, "axis_inversion": hyperbola,
                "hyperboloid_map": hyperboloid}.get(name, deformed)

    def level_evaluator(self, points: np.ndarray):
        """Closure mapping a (C, ndim) parameter block to the (N, C) level
        matrix at the (N, ndim) points: ``combine_levels`` of the point
        terms, computed once here, and the block's parameter terms.  Points
        or a block of any other shape raise DimensionMismatchError."""
        L, a = self.level_terms(self._rows("points", points))

        def evaluate(pblock):
            pblock = self._rows("params", pblock)
            return combine_levels(L, a, *self.param_terms(pblock))

        return evaluate

    def level_terms(self, points: np.ndarray):
        """Point terms (L, a) of the hoisted level, the one place the level
        formula is written:

            g = L(p) . mu + a(p) + b(mu),  L = -2 B2 p' on the core axes and
            p_lin on the linear axes,  a = p'B2p',  b = mu'B2mu',

        with L a C-contiguous (N, ndim) array in axis order and a an (N,)
        array, or None for an all-linear form (then b is None too).  The
        deposit bins g, and the inversion kernel is e^{-i g} built from the
        same terms."""
        p = np.asarray(points, dtype=float)
        if self.diffeo is not None:
            p = self.diffeo.map_fn(p)
        if self.linear_in_params:
            return np.ascontiguousarray(p, dtype=float), None
        qa = self.form.quadric_axes
        Bp, a = _quadratic_terms(self.form.B_core, p[:, qa])
        L = np.array(p, dtype=float, order="C")
        for j, k in enumerate(qa):
            np.multiply(Bp[:, j], -2.0, out=L[:, k])
        return L, a

    def param_terms(self, params: np.ndarray):
        """Parameter terms (M, b) of the hoisted level (see ``level_terms``)
        for a (C, ndim) block: M is the block itself, C-contiguous, and b is
        (C,), or None for an all-linear form."""
        M = np.ascontiguousarray(params, dtype=float)
        if self.linear_in_params:
            return M, None
        return M, _quadratic_terms(self.form.B_core,
                                   M[:, self.form.quadric_axes])[1]

    def jacobian_weights(self, points: np.ndarray) -> np.ndarray:
        if self.diffeo is None:
            return np.ones(len(points))
        return self.diffeo.jacobian_fn(np.asarray(points, dtype=float))

    def singular_mask(self, points: np.ndarray) -> np.ndarray:
        if self.undeformed:
            return np.zeros(len(points), dtype=bool)
        return self.diffeo.singular_mask(np.asarray(points, dtype=float))

    def singular_distance(self, points: np.ndarray) -> np.ndarray:
        if self.diffeo is None:
            return np.full(len(points), np.inf)
        return self.diffeo.singular_distance_fn(np.asarray(points, dtype=float))

    def _rows(self, what: str, x) -> np.ndarray:
        """``x`` as a float array, which must be (n, ndim)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.ndim:
            raise DimensionMismatchError(
                f"{what} of shape {x.shape}, family wants (n, {self.ndim})")
        return x


def _quadratic_terms(B2: np.ndarray, x: np.ndarray):
    """(B2 x, x'B2x) for each row of x, every sum in index order with one
    rounding per product and per sum (no BLAS, so no blocking dependence)."""
    n = B2.shape[0]
    Bx = np.empty((len(x), n))
    for r in range(n):
        Bx[:, r] = B2[r, 0] * x[:, 0]
        for s in range(1, n):
            Bx[:, r] += B2[r, s] * x[:, s]
    q = x[:, 0] * Bx[:, 0]
    for r in range(1, n):
        q += x[:, r] * Bx[:, r]
    return Bx, q


def combine_levels(L: np.ndarray, a, M: np.ndarray, b, out=None,
                   scratch=None) -> np.ndarray:
    """(N, C) levels g[i, j] = sum_k L[i, k] M[j, k] + a[i] + b[j], added in
    exactly this order with one rounding per product and per sum, so the
    bytes depend neither on BLAS nor on how the columns are blocked.  The
    compiled deposit (``_deposit.c``) evaluates the same sequence.

    ``out`` receives the levels and ``scratch`` the products after the
    first, both (N, C) float arrays; either is allocated when None."""
    g = np.multiply(L[:, :1], M[:, 0], out=out)
    for k in range(1, L.shape[1]):
        g += np.multiply(L[:, k:k + 1], M[:, k], out=scratch)
    if a is not None:
        g += a[:, None]
        g += b
    return g


@lru_cache(maxsize=None)
def _plane_wave(n: int) -> QuadricForm:
    """The all-linear form on n axes, g = mu . p; one shared instance per
    n, so equal hyperplane families compare equal."""
    return QuadricForm(np.zeros((n, n)), linear_axes=range(n))


class Hyperplane(LevelFamily):
    """g(q; mu) = mu . q"""

    def __init__(self, ndim: int):
        super().__init__(_plane_wave(ndim))


class Deformed(LevelFamily):
    """g(q; mu) = mu . phi(q) for a fixed diffeomorphism phi."""

    def __init__(self, diffeo: Diffeomorphism):
        super().__init__(_plane_wave(diffeo.ndim), diffeo)


def circle_family() -> Deformed:
    return Deformed(conformal_inversion())


def hyperbola_family() -> Deformed:
    return Deformed(axis_inversion())


def hyperboloid_family(n: int) -> Deformed:
    return Deformed(hyperboloid_map(n))


class Quadric(LevelFamily):
    """g(q; mu) = (q - mu, B (q - mu)) for a fixed non-degenerate B."""

    def __init__(self, form: QuadricForm):
        form.require_nondegenerate()
        super().__init__(form)


class Hybrid(LevelFamily):
    """Degenerate-B transform: quadric in the core coordinates, linear in the
    declared axes.  g(q; mu) = (q' - mu', B2 (q' - mu')) + mu_lin . q_lin."""

    def __init__(self, form: QuadricForm):
        if not form.linear_axes:
            raise ValueError("hybrid family requires a declared linear_axes split")
        if not form.quadric_axes:
            raise ValueError("hybrid form has no quadric core: every axis is "
                             "declared linear; use the hyperplane family")
        QuadricForm(form.B_core).require_nondegenerate()
        super().__init__(form)
