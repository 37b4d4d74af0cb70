"""Reconstruction from tomogram families by two-stage oscillatory quadrature.

Stage one collapses the X axis of each tomogram into its unit-frequency
characteristic value; stage two sums the family's oscillatory kernel over
the parameter box.  Reconstructions report their real part; the size of the
imaginary remainder and the measured decay of the characteristic values at
the parameter-box boundary are returned as diagnostics, never silently
assumed.  A slice carries its family's tag, and only that family inverts it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (DimensionMismatchError, GridError, GridSpec, Phantom,
                   ScalarField, TomogramFamily, l2_rel_error, sample_phantom)
from ._native import load_function
from .forward import (_run_blocks, _workers, forward_binned,
                      normalization_profile, pullback_density)
from .geometry import LevelFamily

DEFAULT_DECAY_FLOOR = 1e-4

# out points per block of the non-separable kernel sums; a direct-sum block
# holds b x P_k tables and a b x P / P_n partial sum, never b x P phases
_OUT_CHUNK = 512
# the NUFFT kernel's width per axis on its 2x fine grid: on random
# coefficients 1e-14 of the peak, against 3e-13 at 14 and 2e-11 at 12
_NUFFT_W = 16


@dataclass(frozen=True, eq=False)
class CharacteristicSlice:
    """Unit-frequency X integral per parameter point, and the family's tag."""

    param_grid: GridSpec
    values: np.ndarray
    family_tag: str


@dataclass(frozen=True)
class InversionDiagnostics:
    """Quality indicators attached to every reconstruction.

    ``imag_ratio`` is the largest imaginary part of the reconstruction over
    its largest real part.  It measures how far the characteristic values
    break c(-mu) = conj c(mu), their symmetry under mu -> -mu for a real
    source, not the reconstruction's error: on a box centred on 0, a family
    linear in mu keeps that symmetry, so the ratio is rounding noise
    whatever the error."""

    imag_ratio: float
    boundary_decay: float
    singular_fraction: float = 0.0
    warnings: tuple[str, ...] = ()


def _endpoint_fit(values: np.ndarray, dx: float, k: int, end: str):
    """Value and slope of omega at a window end, by least-squares line fit
    over the k outermost bins.

    Binned tomograms can be comb-like near the ends when the projected
    source lattice is coarser than the bins; a short mass-conserving fit
    recovers the underlying density where single-bin reads cannot.
    """
    if end == "hi":
        block = values[:, -k:]
        u = dx * (np.arange(k) - (k - 1))        # offsets from the last center
    else:
        block = values[:, :k]
        u = dx * np.arange(k)                    # offsets from the first center
    um = u.mean()
    du = u - um
    denom = float(np.sum(du * du))
    mean = block.mean(axis=1)
    slope = (block @ du) / denom
    return mean + slope * (0.0 - um), slope


def characteristic_slice(t: TomogramFamily) -> CharacteristicSlice:
    """Integrate omega(X) e^{iX} over the X window for every parameter.

    Trapezoid quadrature, plus asymptotic tail terms built from the window
    endpoint values and slopes.  The tail terms restore the contribution of
    smoothly decaying mass beyond the window and vanish when the window
    already covers the support (endpoint density zero).  The tomogram must
    lie on a parameter box.  The real (P, Nx) table meets the quadrature
    kernel in two real matrix-vector products, one per part, never as a
    complex copy; against one complex product the values differ by at most
    1e-14 of their peak (``TestCharacteristicSlice``).  An X spacing of pi
    or more, the Nyquist limit of e^{iX} on the grid, raises ValueError.
    """
    if t.param_grid is None:
        raise GridError("inversion needs a tomogram on a parameter box")
    x = t.x_grid.axis_points(0)
    dx = t.x_grid.spacing[0]
    if not dx < np.pi:
        raise ValueError(f"X grid spacing {dx:g} is not below pi, so the grid "
                         f"cannot resolve the unit-frequency integral")
    n = t.x_grid.shape[0]
    w = t.x_grid.trapezoid_weights().ravel()
    phase = np.exp(1j * x)
    kern = phase * w
    values = np.empty(len(t.values), dtype=complex)
    values.real = t.values @ kern.real
    values.imag = t.values @ kern.imag
    if n >= 3:
        k = min(max(n // 12, 3), 25)
        om_hi, d_hi = _endpoint_fit(t.values, dx, k, "hi")
        om_lo, d_lo = _endpoint_fit(t.values, dx, k, "lo")
        values = values + (1j * (om_hi * phase[-1] - om_lo * phase[0])
                           - (d_hi * phase[-1] - d_lo * phase[0]))
    return CharacteristicSlice(t.param_grid, values, t.family_tag)


# ---------------------------------------------------------------------------
# kernel summation helpers
# ---------------------------------------------------------------------------


def _boundary_decay(slc: CharacteristicSlice) -> float:
    mag = np.abs(slc.values).reshape(slc.param_grid.shape)
    peak = mag.max()
    if peak == 0.0:
        return 0.0
    faces = []
    for ax in range(mag.ndim):
        faces.append(np.take(mag, 0, axis=ax).max())
        faces.append(np.take(mag, -1, axis=ax).max())
    return float(max(faces) / peak)


def _prepare(slc: CharacteristicSlice, decay_floor: float, taper):
    """Quadrature-weighted kernel coefficients of the values, tapered first
    when asked, plus boundary diagnostics and the taper note.  The decay
    floor must be >= 0 (not NaN)."""
    if not decay_floor >= 0:
        raise ValueError(f"decay floor must be >= 0, got {decay_floor!r}")
    warnings = []
    decay = _boundary_decay(slc)
    if decay > decay_floor:
        warnings.append(
            f"characteristic values at the parameter-box boundary are "
            f"{decay:.3g} of the peak (floor {decay_floor:g}); widen the box")
    values = slc.values
    if taper is not None and taper is not False:
        lo, hi, _ = min(slc.param_grid.axes, key=lambda a: a[1] - a[0])
        width = (hi - lo) / 6.0 if taper is True else float(taper)
        if not 1e-100 < width < 1e100:     # so 2 width^2 is finite, not 0
            raise ValueError(
                f"taper width must lie in (1e-100, 1e100), got {width!r}")
        mu = slc.param_grid.points()
        values = values * np.exp(-np.sum(mu * mu, axis=1) / (2.0 * width**2))
        warnings.append(f"taper width {width:g}")
    coef = values * slc.param_grid.trapezoid_weights().ravel()
    return coef, warnings, decay


def _direct_sum(coef: np.ndarray, phase_lhs: np.ndarray,
                param_grid: GridSpec) -> np.ndarray:
    """sum_mu coef[mu] * exp(i phase_lhs[q] . mu) over the box param_grid.

    coef is ordered like ``param_grid.points()``.  On a box the plane wave
    factors exactly, e^{i l . mu} = prod_k e^{i l_k mu_k}, so each block of
    out points contracts the last axis against coef with one complex matrix
    product and every other axis elementwise, one b x P_k table per axis:
    N_out * sum_k P_k cos/sin pairs instead of N_out * P exponentials.
    Blocks of ``_OUT_CHUNK`` out points run on ``_workers(blocks)``
    threads; each block writes only its own slice of the result and makes
    the same calls whatever the thread count, so the bytes are equal for
    every ``GENTOMO_THREADS`` (``TestDirectSumThreads``).  Against the
    point-wise sum the result agrees within 1e-12 of its peak, and against
    a 30-digit reference within 1e-13 (``TestDirectSum``).
    """
    mu = [param_grid.axis_points(k) for k in range(param_grid.ndim)]
    lead = param_grid.shape[:-1]
    coef_t = coef.reshape(-1, param_grid.shape[-1]).T
    out = np.empty(len(phase_lhs), dtype=complex)

    def plane_waves(lhs, k):
        """e^{i lhs[:, k] mu_k} as a (b, P_k) table."""
        x = lhs[:, k:k + 1] * mu[k]
        t = np.empty(x.shape, dtype=complex)
        t.real, t.imag = np.cos(x), np.sin(x)
        return t

    def sum_block(s):
        lhs = phase_lhs[s:s + _OUT_CHUNK]
        acc = (plane_waves(lhs, len(lead)) @ coef_t).reshape(len(lhs), *lead)
        for k in range(len(lead) - 1, -1, -1):
            acc = np.einsum("b...k,bk->b...", acc, plane_waves(lhs, k))
        out[s:s + len(lhs)] = acc

    starts = range(0, len(phase_lhs), _OUT_CHUNK)
    _run_blocks([sum_block] * _workers(len(starts)), starts)
    return out


def _numpy_interp(grid, cols, n, w, start, wts, out):
    """The window sums of ``_nufft.c``, same arguments and order, in numpy."""
    v, f = np.zeros((n, 2 * w)), np.zeros((n, 2))
    for a in range(w):
        v += wts[:, 0, a:a + 1] * grid[start[:, :1] + a,
                                       2 * start[:, 1:] + np.arange(2 * w)]
    for b in range(w):
        f += wts[:, 1, b:b + 1] * v[:, 2 * b:2 * b + 2]
    out[:] = f.ravel()


def _nufft_sum(coef: np.ndarray, phase_lhs: np.ndarray,
               param_grid: GridSpec) -> np.ndarray:
    """``_direct_sum`` on a 2-d box, as a type-2 NUFFT.

    Around the box point mu_c of index n // 2 the sum is e^{i l . mu_c}
    sum_k coef e^{i x . k}, x = l h mod 2 pi.  The coefficients, deconvolved
    and padded to max(2 n, 2 w) points per axis, take one ``ifftn``; each
    out point sums a w x w window of it, weighed in numpy by the
    "exponential of semicircle" kernel (w = ``_NUFFT_W``).  The compiled
    window sums, their twin ``_numpy_interp`` and every ``GENTOMO_THREADS``
    give equal bytes.
    On random coefficients it is within 1e-12 of the point-wise sum's peak
    and 1e-13 of a 30-digit one (measured 4e-15; ``TestNufftSum``).
    """
    w, half = _NUFFT_W, _NUFFT_W // 2
    n = np.array(param_grid.shape)
    m = np.maximum(2 * n, 2 * w)
    k = [np.arange(c) - c // 2 for c in n]

    def kernel(t):      # beta = 2.30 w suits 2x oversampling
        return np.exp(2.30 * w * (np.sqrt(np.maximum(1 - t * t, 0)) - 1))
    # its Fourier transform by the trapezoid rule on quarter grid steps
    u = np.arange(-4 * half, 4 * half + 1) / 4
    fhat = [np.cos(2 * np.pi / mj * np.outer(kj, u)) @ kernel(u / half) / 4
            for kj, mj in zip(k, m)]
    grid = np.zeros(m, dtype=complex)
    grid[np.ix_(k[0] % m[0], k[1] % m[1])] = coef.reshape(n) / np.outer(*fhat)
    grid = np.pad(np.fft.ifftn(grid, norm="forward"), half, mode="wrap")
    h = np.array(param_grid.spacing)
    centre = np.array(param_grid.axes)[:, 0] + h * (n // 2)
    # _numpy_interp's arguments; each array's dtype and order are checked
    f64, ints, intp = (np.ctypeslib.ndpointer(float, flags="C"),
                       np.ctypeslib.ndpointer(np.intp, flags="C"),
                       np.ctypeslib.c_intp)
    interp = load_function("_nufft.c", "gentomo_nufft_interp", None, f64,
                           intp, intp, intp, ints, f64, f64) or _numpy_interp
    out = np.empty(len(phase_lhs), dtype=complex)

    def block(s):
        lhs = phase_lhs[s:s + _OUT_CHUNK]
        x = lhs * (h * m / (2 * np.pi))                 # in fine-grid steps
        x -= m * np.floor(x / m)                        # into [0, m)
        first = np.ceil(x - half)
        wts = kernel(((x - first)[:, :, None] - np.arange(w)) / half)
        start = (first.astype(np.intp) + half).clip(0, m)
        interp(grid.view(float), grid.shape[1], len(lhs), w, start, wts,
               out[s:s + len(lhs)].view(float))
        out[s:s + len(lhs)] *= np.exp(1j * (lhs @ centre))

    starts = range(0, len(phase_lhs), _OUT_CHUNK)
    _run_blocks([block] * _workers(len(starts)), starts)
    return out


# ---------------------------------------------------------------------------
# inversion engine
# ---------------------------------------------------------------------------


def _separable_sum(coef: np.ndarray, family: LevelFamily,
                   param_grid: GridSpec, out_grid: GridSpec) -> np.ndarray:
    """Kernel sum for an undeformed family with an empty or diagonal core.

    g(q; mu) is then exactly the sum over k of g(q_k e_k; mu_k e_k), which
    is (q_k - mu_k)^2 B_kk on a core axis and q_k mu_k on a linear one (every
    axis of a hyperplane).  So e^{-i g} is a product of one-axis kernels,
    each taken from the family's own level, and the box is contracted one
    axis at a time against a small out x parameter kernel matrix per axis."""
    T = coef.reshape(param_grid.shape).astype(complex)
    n = family.ndim
    for ax in range(n):
        q = np.zeros((out_grid.shape[ax], n))
        mu = np.zeros((param_grid.shape[ax], n))
        q[:, ax] = out_grid.axis_points(ax)
        mu[:, ax] = param_grid.axis_points(ax)
        kern = np.exp(-1j * family.level_evaluator(q)(mu))
        # contract the leading parameter axis, append the out axis last
        T = np.tensordot(T, kern, axes=([0], [1]))
    return T.ravel()


def _phase(t):
    """e^{-i t}, or 1 for a level term an all-linear family does not have."""
    return 1.0 if t is None else np.exp(-1j * t)


def invert_for_family(slc: CharacteristicSlice, family: LevelFamily,
                      out_grid: GridSpec,
                      decay_floor: float = DEFAULT_DECAY_FLOOR, taper=None):
    """Invert a characteristic slice of ``family`` onto ``out_grid``.

    With the family's form split into a core block B2 on k axes and m
    linear axes, and g its level (``LevelFamily.level_terms``),

        f(q) = J(q) |det B2| / pi^k (2 pi)^{-m} sum_mu w(mu) e^{-i g(q; mu)}

    with J the deformation's Jacobian (1 without one): the plane-wave
    kernel for all-linear forms (hyperplanes, deformed hyperplanes) and the
    shifted-quadric kernel for forms with a core.  The kernel is built from
    the family's own hoisted terms g = L(p) . mu + a(p) + b(mu).  One rule
    picks the sum: a family without deformation whose core is empty or
    diagonal separates per axis (``_separable_sum``); every other kernel is
    e^{-i a} sum_mu w e^{-i b} e^{-i L . mu}, a plane wave in mu, summed by
    the type-2 NUFFT (``_nufft_sum``, within 1e-12 of the direct sum's
    peak) on a 2-d box of more than w^2 = 256 points, and directly
    (``_direct_sum``) on smaller and 3-d or 4-d boxes.  Both give equal
    bytes for every ``GENTOMO_THREADS``.  Output points on the
    deformation's singular set get value zero and are tallied in the
    diagnostics.

    A slice of another family (``family_tag`` not ``family.tag``) raises
    ValueError before any work.  A ``taper`` width in (1e-100, 1e100) (True:
    a sixth of the narrowest box side) windows the values by
    exp(-|mu|^2 / (2 width^2)) and is noted in the diagnostics' warnings.
    """
    if slc.family_tag != family.tag:
        raise ValueError(f"slice of the {slc.family_tag!r} family cannot be "
                         f"inverted as the {family.tag!r} family")
    form = family.form
    n = form.ndim
    if slc.param_grid.ndim != n or out_grid.ndim != n:
        raise DimensionMismatchError("parameter box, out_grid and family "
                                     "must agree in dimension")
    coef, warnings, decay = _prepare(slc, decay_floor, taper)
    k, B2 = len(form.quadric_axes), form.B_core
    prefactor = abs(form.core_determinant) / np.pi ** k \
        / (2 * np.pi) ** (n - k)
    singular_fraction = 0.0
    if family.diffeo is None and (k < 2 or np.abs(
            B2 - np.diag(np.diag(B2))).max() <= 1e-12 * np.abs(B2).max()):
        fc = prefactor * _separable_sum(coef, family, slc.param_grid, out_grid)
    else:
        pts = out_grid.points()
        ok = ~family.singular_mask(pts)
        singular_fraction = float((~ok).sum()) / len(pts)
        pts = pts[ok]
        L, a = family.level_terms(pts)
        b = family.param_terms(slc.param_grid.points())[1]
        fc = np.zeros(len(ok), dtype=complex)
        total = _nufft_sum if n == 2 and len(coef) > _NUFFT_W**2 \
            else _direct_sum
        fc[ok] = prefactor * family.jacobian_weights(pts) * _phase(a) \
            * total(coef * _phase(b), -L, slc.param_grid)
    peak = np.abs(fc.real).max()
    imag_ratio = 0.0 if peak == 0.0 else float(np.abs(fc.imag).max() / peak)
    return ScalarField(out_grid, fc.real), InversionDiagnostics(
        imag_ratio=imag_ratio, boundary_decay=decay,
        singular_fraction=singular_fraction, warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RoundtripReport:
    """Forward -> characteristic slice -> inversion, scored against the
    analytically known source."""

    l2_rel_error: float
    imag_residual_ratio: float
    runtime_seconds: float
    boundary_decay: float
    normalization_min: float
    normalization_max: float
    overflow_max: float
    warnings: tuple[str, ...]
    reconstruction: ScalarField
    reference: ScalarField


def roundtrip(phantom: Phantom, family: LevelFamily, q_grid: GridSpec,
              x_grid: GridSpec, param_grid: GridSpec, out_grid: GridSpec,
              exclusion_margin: float = 0.0, taper=None) -> RoundtripReport:
    """Run the full pipeline and score the reconstruction.

    For a family with a diffeomorphism the transformed density is the
    phantom's pullback (the density whose deformed tomograms equal the
    phantom's undeformed ones), and the reconstruction is scored against
    that pullback; all other families transform and score the phantom
    itself.
    ``exclusion_margin`` removes out-grid points closer than the margin to
    the family's singular set from the error norm.
    """
    t0 = time.perf_counter()
    if family.diffeo is not None:
        source = pullback_density(phantom, family.diffeo, q_grid)
        reference = pullback_density(phantom, family.diffeo, out_grid)
    else:
        source = phantom
        reference = sample_phantom(phantom, out_grid)
    tomo = forward_binned(source, family, param_grid, x_grid,
                          None if isinstance(source, ScalarField) else q_grid)
    slc = characteristic_slice(tomo)
    recon, diag = invert_for_family(slc, family, out_grid, taper=taper)
    mask = None
    if exclusion_margin > 0.0:
        dist = family.singular_distance(out_grid.points())
        mask = (dist > exclusion_margin).reshape(out_grid.shape)
    err = l2_rel_error(recon, reference, mask=mask)
    norm = normalization_profile(tomo)
    return RoundtripReport(
        l2_rel_error=err,
        imag_residual_ratio=diag.imag_ratio,
        runtime_seconds=time.perf_counter() - t0,
        boundary_decay=diag.boundary_decay,
        normalization_min=float(norm.min()),
        normalization_max=float(norm.max()),
        overflow_max=float(tomo.overflow.max()),
        warnings=tuple(tomo.warnings) + tuple(diag.warnings),
        reconstruction=recon,
        reference=reference,
    )
