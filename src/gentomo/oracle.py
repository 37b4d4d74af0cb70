"""Independent references for validating the transform pipeline.

This is the one home of the references: the Monte-Carlo tomogram
histograms g(Q; params) of exact phantom draws in box bins, and the closed
forms below are textbook densities (the Gaussian's hyperplane tomogram,
the chi-square density, the disk's chord profile).  Nothing here uses the
binned engine, whose tent (cloud-in-cell) weights average differently: the
two agree only for tomograms that are smooth on the bin scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GridError, GridSpec, Phantom, gaussian
from .geometry import LevelFamily

GENERATOR_ID = "pcg64"  # recorded so oracle runs are reproducible elsewhere


@dataclass(frozen=True, eq=False)
class MCTomogram:
    """Histogram density of g(Q; params) with a per-bin standard-error band."""

    x_grid: GridSpec
    density: np.ndarray
    stderr: np.ndarray
    n_samples: int
    n_singular: int
    seed: int
    generator: str = GENERATOR_ID


def mc_tomogram(phantom: Phantom, family: LevelFamily, params, x_grid: GridSpec,
                n_samples: int, seed: int) -> MCTomogram:
    """Estimate one tomogram by sampling the phantom and histogramming g.

    Bins are centered on the x_grid points (width = grid spacing); samples on
    the family's singular set are dropped and counted.  The standard error
    per bin is sqrt(p (1-p) / n) / dX with p the bin hit fraction.
    Raises ValueError for n_samples < 1.
    """
    if x_grid.ndim != 1:
        raise GridError("x_grid must be one-dimensional")
    n = int(n_samples)
    if n < 1:
        raise ValueError("n_samples must be >= 1")
    params = np.asarray(params, dtype=float)
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = phantom.draw(rng, n)
    sing = family.singular_mask(draws)
    n_singular = int(sing.sum())
    if n_singular:
        draws = draws[~sing]
    g = family.level_evaluator(draws)(params[None])[:, 0]

    dx = x_grid.spacing[0]
    lo, hi, n_bins = x_grid.axes[0]
    edges = np.linspace(lo - 0.5 * dx, hi + 0.5 * dx, n_bins + 1)
    counts, _ = np.histogram(g, bins=edges)
    p = counts / n
    density = p / dx
    stderr = np.sqrt(p * (1.0 - p) / n) / dx
    return MCTomogram(x_grid=x_grid, density=density, stderr=stderr,
                      n_samples=n, n_singular=n_singular, seed=int(seed))


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


def chi_square_density(dof: int, x) -> np.ndarray | float:
    """Chi-square density with ``dof`` degrees of freedom; zero for x < 0.

    The boundary value at x = 0 is the limit from the right (0.5 for two
    degrees of freedom, +inf for one, 0 above two).
    """
    if int(dof) < 1:
        raise ValueError("dof must be a positive integer")
    k = int(dof)
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    out = np.zeros_like(xs)
    pos = xs > 0
    lognorm = (k / 2.0) * math.log(2.0) + math.lgamma(k / 2.0)
    out[pos] = np.exp((k / 2.0 - 1.0) * np.log(xs[pos]) - xs[pos] / 2.0 - lognorm)
    at_zero = xs == 0
    if np.any(at_zero):
        if k == 1:
            out[at_zero] = np.inf
        elif k == 2:
            out[at_zero] = 0.5
    return float(out[0]) if scalar else out


def disk_chord_tomogram(radius: float, mu, x) -> np.ndarray | float:
    """Marginal of the uniform disk along a unit direction:
    2 sqrt(R^2 - X^2) / (pi R^2) inside |X| <= R, zero outside."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    mu = np.asarray(mu, dtype=float)
    if abs(float(np.linalg.norm(mu)) - 1.0) > 1e-9:
        raise ValueError("mu must be a unit vector (scale X by homogeneity first)")
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    out = np.zeros_like(xs)
    inside = np.abs(xs) <= radius
    out[inside] = 2.0 * np.sqrt(radius**2 - xs[inside] ** 2) / (math.pi * radius**2)
    return float(out[0]) if scalar else out
