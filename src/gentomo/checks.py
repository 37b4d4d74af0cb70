"""Property suites behind the ``check`` command.

Each suite measures a structural property of the pipeline on the
acceptance tests' configurations and reports one line per check: name,
measured value, bound, PASS/FAIL.  Suites are deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core, forward, geometry, oracle


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    bound: float
    passed: bool


def _result(name: str, measured: float, bound: float) -> CheckResult:
    return CheckResult(name, float(measured), float(bound),
                       bool(measured <= bound))


# shared with the acceptance tests: the 2-d phantom, its source grid, eight
# directions on the unit circle and the hyperplane X grid (AC-1)
GAUSS2 = core.standard_gaussian(2)
Q_GRID = core.make_grid(2, [(-6, 6, 256)] * 2)
DIRECTIONS = [(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4))
              for k in range(8)]
X_PLANE = core.make_grid(1, [(-6, 6, 241)])


def normalization_suite(seed: int = 0, **_) -> list[CheckResult]:
    """Every tomogram of a unit-mass phantom integrates to 1 over X."""
    results = []
    cases = [
        (geometry.Hyperplane(2), DIRECTIONS, X_PLANE, 2),
        (geometry.Quadric(geometry.QuadricForm(np.eye(2))),
         [(0.5, -0.3), (0.0, 0.0)], core.make_grid(1, [(-2, 60, 249)]), 1),
    ]
    for fam, params, xg, supersample in cases:
        t = forward.forward_binned(GAUSS2, fam, params, xg, Q_GRID,
                                   supersample=supersample)
        norm = forward.normalization_profile(t)
        results.append(_result(f"normalization/{fam.tag}/deviation",
                               np.abs(norm - 1.0).max(), 1e-2))
        results.append(_result(f"normalization/{fam.tag}/overflow",
                               t.overflow.max(), 1e-3))
    return results


def homogeneity_residual(source, family: geometry.LevelFamily, params,
                         lam: float, q_grid: core.GridSpec | None,
                         x_grid: core.GridSpec) -> float:
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
    base = forward.forward_binned(source, family, params[None, :], x_grid,
                                  q_grid)
    if lam > 0:
        scaled_grid = core.GridSpec(((lam * lo, lam * hi, n),))
        reorder = slice(None)
    else:
        scaled_grid = core.GridSpec(((lam * hi, lam * lo, n),))
        reorder = slice(None, None, -1)
    scaled = forward.forward_binned(source, family, (lam * params)[None, :],
                                    scaled_grid, q_grid)
    diff = np.abs(abs(lam) * scaled.values[0][reorder] - base.values[0])
    return float(diff.max())


def homogeneity_suite(seed: int = 0, lam: float | None = None, **_,
                      ) -> list[CheckResult]:
    """|lam| w(lam X; lam mu) = w(X; mu) for parameter-linear families."""
    x_grid = core.make_grid(1, [(-8, 8, 241)])
    results = []
    factors = (2.0, -1.0, 0.5) if lam is None else (2.0, -1.0, 0.5, lam)
    params = np.array([0.8, -0.6])
    for fam in (geometry.Hyperplane(2), geometry.circle_family()):
        for lam in factors:
            res = homogeneity_residual(GAUSS2, fam, params, lam, Q_GRID,
                                       x_grid)
            results.append(_result(f"homogeneity/{fam.tag}/lambda={lam:g}", res, 2e-2))
    return results


def diffeo_equivalence_suite(seed: int = 0, **_) -> list[CheckResult]:
    """Deformed transform of the pullback density equals the straight-line
    transform of the original density, per direction (L1 over X).

    The X bins are 0.2 wide: axis-aligned directions project the pullback
    sample lattice onto X with spacing about 0.1, and the triangle deposit
    nulls that comb exactly when the bin width is an integer multiple of the
    projected spacing.
    """
    x_grid = core.make_grid(1, [(-8, 8, 81)])
    t_ref = forward.forward_binned(GAUSS2, geometry.Hyperplane(2), DIRECTIONS,
                                   x_grid, Q_GRID)
    cases = [
        (geometry.circle_family(), core.make_grid(2, [(-12, 12, 1536)] * 2)),
        (geometry.hyperbola_family(),
         core.make_grid(2, [(-120, 120, 4801), (-6, 6, 241)])),
    ]
    results = []
    for fam, q_def in cases:
        pulled = forward.pullback_density(GAUSS2, fam.diffeo, q_def)
        t_def = forward.forward_binned(pulled, fam, DIRECTIONS, x_grid)
        gap = np.abs(t_def.values - t_ref.values).sum(axis=1) * x_grid.spacing[0]
        results.append(_result(f"diffeo-equivalence/{fam.tag}/L1", gap.max(), 3e-2))
    return results


def quadric_support_suite(seed: int = 0, **_) -> list[CheckResult]:
    """Elliptic tomograms vanish identically below X = 0."""
    fam = geometry.Quadric(geometry.QuadricForm([[2.0, 0.3], [0.3, 1.0]]))
    xg = core.make_grid(1, [(-20, 120, 281)])
    t = forward.forward_binned(GAUSS2, fam, [(0.0, 0.0), (1.5, -2.0)], xg,
                               Q_GRID)
    xs = xg.axis_points(0)
    below = np.abs(t.values[:, xs < 0]).max()
    return [_result("quadric-support/omega(X<0)", below, 0.0)]


def oracle_agreement_suite(seed: int = 0, samples: int | None = None, **_,
                           ) -> list[CheckResult]:
    """Binned transforms match Monte-Carlo histograms within 3 standard
    errors plus a small binning allowance."""
    n_samples = 400_000 if samples is None else int(samples)
    results = []
    cases = [
        (geometry.Hyperplane(2), (0.6, 0.8), core.make_grid(1, [(-6, 6, 121)])),
        (geometry.Quadric(geometry.QuadricForm(np.eye(2))), (0.0, 0.0),
         core.make_grid(1, [(-2, 30, 129)])),
    ]
    for fam, params, xg in cases:
        t = forward.forward_binned(GAUSS2, fam, [params], xg, Q_GRID)
        mc = oracle.mc_tomogram(GAUSS2, fam, params, xg, n_samples=n_samples,
                                seed=seed)
        gap = np.abs(t.values[0] - mc.density) - 3.0 * mc.stderr
        results.append(_result(f"oracle-agreement/{fam.tag}/excess", gap.max(), 5e-3))
    return results


SUITES = {
    "normalization": normalization_suite,
    "homogeneity": homogeneity_suite,
    "diffeo-equivalence": diffeo_equivalence_suite,
    "quadric-support": quadric_support_suite,
    "oracle-agreement": oracle_agreement_suite,
}


def run_suite(name: str, seed: int = 0, samples: int | None = None,
              lam: float | None = None) -> list[CheckResult]:
    """Rows of suite ``name``, or of every suite for "all".  ``samples``
    below 1 and a ``lam`` that is zero or not finite raise ValueError
    before any suite runs, whichever suite reads them."""
    if samples is not None and samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {samples}")
    if lam is not None and not (math.isfinite(lam) and lam != 0.0):
        raise ValueError(f"lam must be finite and nonzero, got {lam:g}")
    kwargs = {"seed": seed, "samples": samples, "lam": lam}
    if name == "all":
        return [r for suite in SUITES.values() for r in suite(**kwargs)]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{', '.join([*SUITES, 'all'])}")
    return SUITES[name](**kwargs)
