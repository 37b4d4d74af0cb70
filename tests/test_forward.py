import ctypes
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentomo import _native, forward, formats
from gentomo._native import build_library
from gentomo.checks import homogeneity_residual
from gentomo.core import (DimensionMismatchError, GaussianMixture, GridError,
                          ScalarField, TomogramFamily, UniformBall,
                          UniformBox, gaussian, make_grid, sample_phantom,
                          standard_gaussian, total_mass)
from gentomo.forward import (_run_blocks, forward_binned, forward_binned_at,
                             normalization_profile, pullback_density,
                             thread_count)
from gentomo.geometry import (Hybrid, Hyperplane, LevelFamily, Quadric,
                              QuadricForm, axis_inversion, circle_family,
                              conformal_inversion, hyperbola_family,
                              hyperboloid_family, identity_map)
from gentomo.inverse import characteristic_slice
from gentomo.oracle import (chi_square_density, gaussian_hyperplane_tomogram,
                            mc_tomogram)


def _circle_quadric():
    """The paper's deformed quadric: the B = diag(1, 2.5) family under the
    conformal inversion."""
    return LevelFamily(QuadricForm(np.diag([1.0, 2.5])), conformal_inversion())


@pytest.fixture(scope="module")
def gauss2d():
    return standard_gaussian(2)


@pytest.fixture(scope="module")
def q_grid():
    return make_grid(2, [(-6, 6, 256), (-6, 6, 256)])


class TestGaussianHyperplaneTomogram:
    def test_unit_direction(self):
        t = gaussian_hyperplane_tomogram([0, 0], np.eye(2), [1, 0])
        assert (t.mean, t.variance) == (0.0, 1.0)
        assert t.pdf(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi))

    def test_diagonal_direction(self):
        t = gaussian_hyperplane_tomogram([0, 0], np.eye(2), [1, 1])
        assert t.variance == pytest.approx(2.0)
        assert t.pdf(1.0) == pytest.approx(math.exp(-0.25) / math.sqrt(4 * math.pi))
        assert t.pdf(1.0) == pytest.approx(0.21970, abs=1e-5)

    def test_shifted_scaled(self):
        t = gaussian_hyperplane_tomogram([3, 0], np.eye(2), [2, 0])
        assert (t.mean, t.variance) == (6.0, 4.0)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            gaussian_hyperplane_tomogram([0, 0], np.eye(2), [0, 0])

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError):
            gaussian_hyperplane_tomogram([0, 0], [[1, 3], [3, 1]], [1, 0])


class TestForwardBinned:
    def test_gaussian_axis_direction(self, gauss2d, q_grid):
        x_grid = make_grid(1, [(-6, 6, 241)])
        t = forward_binned_at(gauss2d, Hyperplane(2), [[1.0, 0.0]], x_grid,
                              q_grid, supersample=2)
        oracle = gaussian_hyperplane_tomogram([0, 0], np.eye(2), [1, 0])
        xs = x_grid.axis_points(0)
        assert np.abs(t.values[0] - oracle.pdf(xs)).max() <= 2e-2
        assert t.values[0][120] == pytest.approx(0.39894, abs=2e-2)

    def test_disk_chord_profile(self, q_grid):
        ball = UniformBall(center=(0.0, 0.0), radius=1.0)
        x_grid = make_grid(1, [(-1.5, 1.5, 121)])
        t = forward_binned_at(ball, Hyperplane(2), [[1.0, 0.0]], x_grid,
                              q_grid, supersample=2)
        xs = x_grid.axis_points(0)
        k0 = np.argmin(np.abs(xs))
        assert t.values[0][k0] == pytest.approx(2 / math.pi, abs=2e-2)

    def test_quadric_chi_square(self, gauss2d, q_grid):
        fam = Quadric(QuadricForm(np.eye(2)))
        x_grid = make_grid(1, [(-10, 200, 841)])
        t = forward_binned_at(gauss2d, fam, [[0.0, 0.0]], x_grid, q_grid)
        xs = x_grid.axis_points(0)
        sel = (xs > 0) & (xs <= 12)
        assert np.abs(t.values[0][sel]
                      - chi_square_density(2, xs[sel])).max() <= 1e-2
        k2 = np.argmin(np.abs(xs - 2.0))
        assert t.values[0][k2] == pytest.approx(0.18394, abs=5e-3)

    def test_elliptic_support_is_exact(self, gauss2d, q_grid):
        fam = Quadric(QuadricForm(np.eye(2)))
        x_grid = make_grid(1, [(-10, 200, 841)])
        t = forward_binned_at(gauss2d, fam, [[0.3, -0.7]], x_grid, q_grid)
        xs = x_grid.axis_points(0)
        assert np.all(t.values[0][xs < 0] == 0.0)

    def test_mass_accounting_identity_for_fields(self, gauss2d, q_grid):
        field = sample_phantom(gauss2d, q_grid)
        x_grid = make_grid(1, [(-2, 2, 41)])  # narrow window forces overflow
        t = forward_binned_at(field, Hyperplane(2), [[0.8, 0.6]], x_grid)
        accounted = t.values[0].sum() * x_grid.spacing[0] + t.overflow[0]
        assert accounted == pytest.approx(total_mass(field), abs=1e-10)

    def test_nonnegativity(self, gauss2d, q_grid):
        x_grid = make_grid(1, [(-6, 6, 101)])
        t = forward_binned_at(gauss2d, Hyperplane(2),
                              [[0.3, 0.9], [1.0, 0.0]], x_grid, q_grid)
        assert t.values.min() >= -1e-15

    def test_overflow_counter(self, gauss2d, q_grid):
        # window covering X >= 0 only: half of the symmetric mass overflows
        x_grid = make_grid(1, [(0.05, 6.05, 61)])
        t = forward_binned_at(gauss2d, Hyperplane(2), [[1.0, 0.0]], x_grid,
                              q_grid)
        assert t.values[0].sum() * x_grid.spacing[0] \
            == pytest.approx(0.5, abs=2e-2)
        assert normalization_profile(t)[0] == pytest.approx(0.5, abs=3e-2)
        assert t.overflow[0] == pytest.approx(0.5, abs=2e-2)
        assert any("overflow" in w for w in t.warnings)

    def test_param_grid_version_matches_points_version(self, gauss2d, q_grid):
        x_grid = make_grid(1, [(-6, 6, 61)])
        pg = make_grid(2, [(-1, 1, 3), (-1, 1, 3)])
        fam = Hyperplane(2)
        t1 = forward_binned(gauss2d, fam, pg, x_grid, q_grid)
        t2 = forward_binned_at(gauss2d, fam, pg.points(), x_grid, q_grid)
        assert np.array_equal(t1.values, t2.values)
        assert t1.family_tag == "hyperplane"

    def test_both_entry_points_return_one_container(self, gauss2d, q_grid):
        x_grid = make_grid(1, [(-6, 6, 61)])
        pg = make_grid(2, [(-1, 1, 3), (-1, 1, 2)])
        t1 = forward_binned(gauss2d, Hyperplane(2), pg, x_grid, q_grid)
        t2 = forward_binned_at(gauss2d, Hyperplane(2), pg.points(), x_grid,
                               q_grid)
        t3 = forward_binned(gauss2d, Hyperplane(2), pg.points(), x_grid,
                            q_grid)
        assert forward_binned_at is forward_binned
        assert type(t1) is type(t2) is type(t3) is TomogramFamily
        assert t1.param_grid == pg and t2.param_grid is None
        assert t3.param_grid is None
        assert np.array_equal(t1.param_points, pg.points())
        assert np.array_equal(t2.param_points, pg.points())
        assert np.array_equal(t3.param_points, pg.points())
        assert t1.values.tobytes() == t3.values.tobytes()
        assert t1.overflow.tobytes() == t3.overflow.tobytes()
        assert len(t1.param_points) == len(t2.param_points) \
            == len(t3.param_points) == 6
        characteristic_slice(t1)
        with pytest.raises(GridError, match="parameter box"):
            characteristic_slice(t2)

    def test_singular_cells_are_skipped_and_counted(self, gauss2d):
        # first axis chosen so one column of cell centers is exactly q = 0
        fam = hyperbola_family()
        x_grid = make_grid(1, [(-20, 20, 81)])
        on_axis = make_grid(2, [(-0.5, 3.5, 5), (-2, 2, 5)])
        t = forward_binned_at(gauss2d, fam, [[1.0, 0.0]], x_grid, on_axis)
        assert t.singular_fraction > 0.0
        off_axis = make_grid(2, [(-2, 2, 5), (-2, 2, 5)])
        t2 = forward_binned_at(gauss2d, fam, [[1.0, 0.0]], x_grid, off_axis)
        assert t2.singular_fraction == 0.0

    def test_underflowing_radius_is_singular(self):
        """The node (1e-170, 0) squares to a zero radius, where the
        conformal inversion divides by zero: it is skipped and counted."""
        grid = make_grid(2, [(1e-170, 1.0, 3), (0.0, 1.0, 3)])
        t = forward_binned(ScalarField(grid, np.ones(grid.size)),
                           circle_family(), [[1.0, 0.5]],
                           make_grid(1, [(-4, 4, 9)]))
        assert t.singular_fraction == 1 / 9

    @pytest.mark.parametrize("s", [2, 0, -3])
    def test_field_source_refuses_supersample(self, q_grid, s):
        """A field is integrated on its own grid: no cell to subdivide."""
        field = ScalarField(q_grid, np.ones(q_grid.size))
        with pytest.raises(GridError, match="supersample"):
            forward_binned(field, Hyperplane(2), [[1.0, 0.0]],
                           make_grid(1, [(-6, 6, 61)]), supersample=s)

    def test_zero_source(self, q_grid):
        field = ScalarField(q_grid, np.zeros(q_grid.size))
        x_grid = make_grid(1, [(-6, 6, 61)])
        t = forward_binned_at(field, Hyperplane(2), [[1.0, 0.0]], x_grid)
        assert np.all(t.values == 0.0)
        assert normalization_profile(t)[0] == 0.0


class TestForwardInputErrors:
    """Each input ``forward_binned`` refuses, with the error it raises."""

    X = make_grid(1, [(-6, 6, 61)])

    @pytest.mark.parametrize("source", ["phantom", "field"])
    def test_source_dimension_differs_from_family(self, source):
        q3 = make_grid(3, [(-3, 3, 8)] * 3)
        gauss3 = standard_gaussian(3)
        src = gauss3 if source == "phantom" else sample_phantom(gauss3, q3)
        with pytest.raises(DimensionMismatchError, match="source dimension"):
            forward_binned(src, Hyperplane(2), [[1.0, 0.0]], self.X,
                           q3 if source == "phantom" else None)

    @pytest.mark.parametrize("params", [
        [[1.0]], [[1.0, 0.0, 2.0]], make_grid(1, [(-1, 1, 4)]),
        make_grid(3, [(-1, 1, 2)] * 3)], ids=["1d", "3d", "1d-box", "3d-box"])
    def test_parameter_dimension_differs_from_family(self, gauss2d, q_grid,
                                                     params):
        """A quadric's parameter terms index the core axes: the dimension
        check comes first, so no IndexError escapes."""
        family = Quadric(QuadricForm(np.eye(2)))
        with pytest.raises(DimensionMismatchError,
                           match=r"parameter points are \d-d, family wants "
                                 r"2-d"):
            forward_binned(gauss2d, family, params, self.X, q_grid)

    def test_two_dimensional_x_grid(self, gauss2d, q_grid):
        with pytest.raises(GridError, match="x_grid must be one-dimensional"):
            forward_binned(gauss2d, Hyperplane(2), [[1.0, 0.0]],
                           make_grid(2, [(-6, 6, 8)] * 2), q_grid)

    def test_field_with_another_q_grid(self, gauss2d, q_grid):
        field = sample_phantom(gauss2d, make_grid(2, [(-6, 6, 16)] * 2))
        with pytest.raises(GridError, match="equal the field's grid"):
            forward_binned(field, Hyperplane(2), [[1.0, 0.0]], self.X,
                           q_grid)

    def test_phantom_without_q_grid(self, gauss2d):
        with pytest.raises(GridError, match="require a q_grid"):
            forward_binned(gauss2d, Hyperplane(2), [[1.0, 0.0]], self.X)

    def test_source_of_another_type(self, q_grid):
        with pytest.raises(TypeError, match="ScalarField or Phantom"):
            forward_binned(np.ones((8, 8)), Hyperplane(2), [[1.0, 0.0]],
                           self.X, q_grid)

    @pytest.mark.parametrize("source", ["phantom", "field"])
    @pytest.mark.parametrize("s", [1.7, "2", 2.5], ids=["1.7", "str", "2.5"])
    def test_supersample_that_is_not_an_integer(self, gauss2d, source, s):
        """1.7 ran with 1 and '2' with 2."""
        q = make_grid(2, [(-6, 6, 16)] * 2)
        src = gauss2d if source == "phantom" else sample_phantom(gauss2d, q)
        with pytest.raises(GridError, match="supersample must be an integer"):
            forward_binned(src, Hyperplane(2), [[1.0, 0.0]], self.X, q,
                           supersample=s)

    def test_integral_supersample_accepted(self, gauss2d):
        """An integral float such as 2.0 stays accepted, as 2."""
        q = make_grid(2, [(-6, 6, 16)] * 2)
        runs = [forward_binned(gauss2d, Hyperplane(2), [[1.0, 0.0]], self.X,
                               q, supersample=s) for s in (2, 2.0, np.int64(2))]
        assert runs[0].values.tobytes() == runs[1].values.tobytes() \
            == runs[2].values.tobytes()


class TestNormalization:
    def test_every_parameter_normalized(self, gauss2d, q_grid):
        x_grid = make_grid(1, [(-8, 8, 201)])
        angles = np.linspace(0.1, np.pi, 6)
        params = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        t = forward_binned_at(gauss2d, Hyperplane(2), params, x_grid, q_grid)
        norm = normalization_profile(t)
        assert np.all((norm > 0.99) & (norm < 1.01))

    def test_hyperboloid_family_normalized(self, gauss2d):
        # mu q + nu q p level sets; the p tail only decays like 1/p^2, so
        # the grid is long in p
        fam = hyperboloid_family(1)
        grid = make_grid(2, [(-6, 6, 301), (-100, 100, 2001)])
        x_grid = make_grid(1, [(-12, 12, 241)])
        t = forward_binned_at(gauss2d, fam, [(1.0, 0.5)], x_grid, grid)
        assert normalization_profile(t)[0] + t.overflow[0] \
            == pytest.approx(1.0, abs=2e-2)
        assert normalization_profile(t)[0] > 0.95


class TestHomogeneity:
    @pytest.mark.parametrize("lam", [2.0, -1.0, 0.5])
    def test_hyperplane_residual(self, gauss2d, q_grid, lam):
        x_grid = make_grid(1, [(-8, 8, 201)])
        res = homogeneity_residual(gauss2d, Hyperplane(2),
                                   np.array([0.8, -0.6]), lam, q_grid, x_grid)
        assert res <= 2e-2

    def test_identity_factor_is_exact(self, gauss2d, q_grid):
        x_grid = make_grid(1, [(-8, 8, 201)])
        res = homogeneity_residual(gauss2d, Hyperplane(2),
                                   np.array([1.0, 0.5]), 1.0, q_grid, x_grid)
        assert res == 0.0

    def test_circle_family_residual(self, gauss2d):
        grid = make_grid(2, [(-8, 8, 256), (-8, 8, 256)])
        x_grid = make_grid(1, [(-8, 8, 201)])
        res = homogeneity_residual(gauss2d, circle_family(),
                                   np.array([0.7, 0.4]), 2.0, grid, x_grid)
        assert res <= 2e-2

    def test_quadric_rejected(self, gauss2d, q_grid):
        fam = Quadric(QuadricForm(np.eye(2)))
        with pytest.raises(ValueError):
            homogeneity_residual(gauss2d, fam, np.array([0.0, 0.0]), 2.0,
                                 q_grid, make_grid(1, [(-8, 8, 101)]))

    def test_deformed_quadric_rejected(self, gauss2d):
        grid = make_grid(2, [(-4, 4, 64), (-4, 4, 64)])
        x_grid = make_grid(1, [(-8, 8, 101)])
        with pytest.raises(ValueError, match="deformed"):
            homogeneity_residual(gauss2d, _circle_quadric(),
                                 np.array([0.7, 0.4]), 2.0, grid, x_grid)
        assert homogeneity_residual(gauss2d, circle_family(),
                                    np.array([0.7, 0.4]), 2.0, grid,
                                    x_grid) >= 0.0

    def test_zero_factor_rejected(self, gauss2d, q_grid):
        with pytest.raises(ValueError):
            homogeneity_residual(gauss2d, Hyperplane(2), np.array([1.0, 0.0]),
                                 0.0, q_grid, make_grid(1, [(-8, 8, 101)]))


class TestPullbackDensity:
    def test_conformal_value(self, gauss2d):
        grid = make_grid(2, [(0.5, 1.5, 3), (-0.5, 0.5, 3)])
        f = pullback_density(gauss2d, conformal_inversion(), grid)
        # phi(1, 0) = (1, 0), J = 1
        k = np.argmin(np.abs(grid.points() - [1.0, 0.0]).sum(axis=1))
        assert f.flat[k] == pytest.approx(math.exp(-0.5) / (2 * math.pi),
                                          abs=1e-12)
        assert f.flat[k] == pytest.approx(0.09653, abs=1e-5)

    def test_axis_inversion_value(self, gauss2d):
        grid = make_grid(2, [(1.5, 2.5, 3), (-0.5, 0.5, 3)])
        f = pullback_density(gauss2d, axis_inversion(), grid)
        k = np.argmin(np.abs(grid.points() - [2.0, 0.0]).sum(axis=1))
        expect = 0.25 * math.exp(-0.125) / (2 * math.pi)
        assert f.flat[k] == pytest.approx(expect, abs=1e-12)
        assert f.flat[k] == pytest.approx(0.03511, abs=1e-5)

    def test_identity_reproduces_phantom(self, gauss2d):
        grid = make_grid(2, [(-3, 3, 21), (-3, 3, 21)])
        f = pullback_density(gauss2d, identity_map(2), grid)
        ref = sample_phantom(gauss2d, grid)
        assert np.allclose(f.values, ref.values, atol=1e-15)

    def test_singular_points_get_zero(self, gauss2d):
        grid = make_grid(2, [(-1, 1, 3), (-1, 1, 3)])  # contains the origin
        f = pullback_density(gauss2d, conformal_inversion(), grid)
        assert f.values[1, 1] == 0.0

    def test_pullback_mass_is_preserved(self, gauss2d):
        grid = make_grid(2, [(-10, 10, 512), (-10, 10, 512)])
        f = pullback_density(gauss2d, conformal_inversion(), grid)
        assert total_mass(f) == pytest.approx(1.0, abs=2e-2)


class TestStreamedSource:
    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_singular_axis_carried_across_slabs(self, gauss2d, path,
                                                monkeypatch):
        """A hyperbola pullback on a grid that holds its singular axis
        q = 0: 41 of 3977 nodes, dropped inside the second and third raw
        chunks, so the kept points are carried into 4 slabs of 1000.  The
        bytes equal a deposit of the kept nodes and masses compacted
        beforehand, which cuts the same slabs."""
        if path == "compiled" and not _has_compiler():
            pytest.skip("no C compiler on PATH")
        if path == "numpy":
            _use_numpy(monkeypatch)
        monkeypatch.setattr(forward, "_CHUNK_ELEMS", 1000)
        monkeypatch.setenv("GENTOMO_THREADS", "2")
        family = hyperbola_family()
        grid = make_grid(2, [(-12, 12, 97), (-6, 6, 41)])
        field = pullback_density(gauss2d, family.diffeo, grid)
        params = [(math.cos(a), math.sin(a)) for a in (0.35, 1.1, 2.0)]
        x_grid = make_grid(1, [(-8, 8, 81)])
        t = forward_binned(field, family, params, x_grid)

        keep = ~family.singular_mask(grid.points())
        assert (keep.size, keep.size - keep.sum()) == (3977, 41)
        assert not keep[1000:2000].all() and not keep[2000:3000].all()
        assert t.singular_fraction == 41 / 3977
        points = grid.points()[keep]
        masses = (field.flat * grid.trapezoid_weights().ravel())[keep]
        values, overflow = _deposit(family, points, masses,
                                    np.array(params), x_grid)
        assert t.values.tobytes() == values.tobytes()
        assert t.overflow.tobytes() == overflow.tobytes()

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    def test_peak_memory_is_slabs_not_the_source(self, path, monkeypatch):
        """A phantom of 64 slabs: the tracemalloc peak of a forward call
        stays within 12 slabs' nodes and masses plus the table, a fifth of
        the whole source's nodes and masses."""
        if path == "compiled" and not _has_compiler():
            pytest.skip("no C compiler on PATH")
        if path == "numpy":
            _use_numpy(monkeypatch)
        slab = 4096
        monkeypatch.setattr(forward, "_CHUNK_ELEMS", slab)
        monkeypatch.setenv("GENTOMO_THREADS", "2")
        q = make_grid(2, [(-6, 6, 513)] * 2)
        family = Quadric(QuadricForm(np.array([[1.0, 0.3], [0.3, 2.0]])))
        params = [(0.5, -1.0), (2.0, 0.0), (0.0, 0.0), (-1.0, 1.0)]
        x_grid = make_grid(1, [(-5, 60, 101)])
        gauss = standard_gaussian(2)
        run = lambda: forward_binned(gauss, family, params, x_grid, q)
        run()                   # builds or loads the compiled loop
        tracemalloc.start()
        try:
            t = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_slab = slab * (q.ndim + 1) * 8
        source = (512 * 512) * (q.ndim + 1) * 8
        table = t.values.nbytes + 4 * t.overflow.nbytes     # + 3 spare (P,)
        assert source == 64 * one_slab
        assert 12 * one_slab + table < source / 5
        assert peak <= 12 * one_slab + table


class TestDeformedQuadric:
    def test_matches_monte_carlo(self):
        """Binned tomogram within 3 standard errors of a Monte-Carlo
        histogram plus the 5e-3 binning allowance of the other MC checks.

        The offset parameter keeps the tomogram smooth on the bin scale,
        where the binned engine's linear weights and the histogram's box
        bins agree.
        """
        fam = _circle_quadric()
        phantom = gaussian((1.0, 0.5), 0.04 * np.eye(2))
        q = make_grid(2, [(-0.2, 2.2, 256), (-0.7, 1.7, 256)])
        x_grid = make_grid(1, [(-1, 9, 101)])
        mu = (-0.7, -0.1)
        t = forward_binned_at(phantom, fam, [mu], x_grid, q)
        mc = mc_tomogram(phantom, fam, mu, x_grid, 1_000_000, seed=11)
        assert t.overflow[0] <= 1e-3 and t.values[0].max() > 0.5
        excess = (np.abs(t.values[0] - mc.density) - 3 * mc.stderr).max()
        assert excess <= 5e-3


def _deposit(family, points, masses, params, x_grid):
    """``forward._deposit`` of points and masses held in memory: (values,
    overflow)."""
    return forward._deposit(family, len(points),
                            lambda lo, hi: (points[lo:hi], masses[lo:hi]),
                            params, x_grid)[:2]


def _reference_deposit(family, points, masses, param_points, x_grid,
                       chunk_elems):
    """Reference deposit, one block at a time: one bincount of the right
    weights at the shifted index idx + c and one of the left weights at
    idx, with integer bucket arithmetic and fresh arrays throughout."""
    n_bins = x_grid.shape[0]
    x0 = x_grid.axes[0][0]
    dx = x_grid.spacing[0]
    n_par = len(param_points)
    values = np.zeros((n_par, n_bins))
    overflow = np.zeros(n_par)
    chunk = max(1, chunk_elems // len(points))
    slots = n_bins + 3
    evaluate = family.level_evaluator(points)
    for start in range(0, n_par, chunk):
        g = evaluate(param_points[start:start + chunk])
        c = g.shape[1]
        np.multiply(g, 1.0 / dx, out=g)
        g -= x0 / dx
        np.clip(g, -1.0, float(n_bins), out=g)
        left = np.floor(g)
        g -= left
        idx = left.astype(np.int64)
        idx += 1
        idx *= c
        idx += np.arange(c, dtype=np.int64)[None, :]
        w_right = masses[:, None] * g
        acc = np.bincount((idx + c).ravel(), weights=w_right.ravel(),
                          minlength=slots * c)
        w_right -= masses[:, None]
        np.negative(w_right, out=w_right)
        acc += np.bincount(idx.ravel(), weights=w_right.ravel(),
                           minlength=slots * c)
        acc = acc.reshape(slots, c)
        values[start:start + chunk] = acc[1:n_bins + 1].T
        overflow[start:start + chunk] = acc[0] + acc[n_bins + 1] + acc[n_bins + 2]
    values /= dx
    return values, overflow


# every family in 2-D, plus a case for each other instance of the compiled
# loop's phase 1: a hyperplane in 1-D, the hyperplane and a hybrid in 3-D and
# the hyperboloid in 4-D; and above 4-D, where every CPU runs the one-pass
# loop, a hybrid in 5-D and the hyperboloid in 6-D; each with an X window
# whose spacing is a power of two: on the dyadic lattice below, the
# hyperplane and quadric level values land exactly on bin edges, the clamp
# edges g = -1 and g = n_bins included
DEPOSIT_CASES = {
    "hyperplane_1d": (Hyperplane(1), (-2.0, 2.0, 17)),
    "hyperplane": (Hyperplane(2), (-2.0, 2.0, 17)),
    "circle": (circle_family(), (-2.0, 2.0, 17)),
    "hyperbola": (hyperbola_family(), (-2.0, 2.0, 17)),
    "hyperboloid": (hyperboloid_family(1), (-2.0, 2.0, 17)),
    "quadric": (Quadric(QuadricForm(np.eye(2))), (1.0, 4.5, 8)),
    "hybrid": (Hybrid(QuadricForm(np.diag([1.0, 0.0]), linear_axes=(1,))),
               (-1.0, 3.0, 17)),
    "hyperplane_3d": (Hyperplane(3), (-2.0, 2.0, 17)),
    "hybrid_3d": (Hybrid(QuadricForm(np.diag([1.0, -0.5, 0.0]),
                                     linear_axes=(2,))),
                  (-1.0, 3.0, 17)),
    "hyperboloid_4d": (hyperboloid_family(2), (-2.0, 2.0, 17)),
    "hybrid_5d": (Hybrid(QuadricForm(np.diag([1.0, -0.5, 2.0, 0.0, 0.0]),
                                     linear_axes=(3, 4))),
                  (-2.0, 14.0, 17)),
    "hyperboloid_6d": (hyperboloid_family(3), (-2.0, 2.0, 17)),
}

# the linear families of DEPOSIT_CASES whose X window is centred on 0, by
# the points per axis of a centred parameter box: an odd count in 1-d and
# 3-d, an even one in 2-d and 4-d
REFLECTED_CASES = {"hyperplane_1d": 23, "circle": 6, "hyperplane_3d": 3,
                   "hyperboloid_4d": 2}


def _centred_box(ndim, count):
    """The points of a box centred on 0 with ``count`` points per axis:
    point P - 1 - i is point i reflected."""
    return make_grid(ndim, [(-2.0, 2.0, count)] * ndim).points()


# points per tile of the compiled loop
_TILE = int(re.search(r"#define TILE (\d+)",
                      forward._KERNEL_SOURCE.read_text()).group(1))


def _deposit_inputs(family):
    """A dyadic lattice plus uniform points: more than two tiles of the
    compiled loop, the last one short.  Above 4-d the points are uniform
    only, since an 11^5 lattice would be large."""
    rng = np.random.default_rng(5)
    n = family.ndim
    lattice = np.arange(-12, 13) / 4.0 if n <= 2 else np.arange(-5, 6) / 2.0
    mesh = (np.stack(np.meshgrid(*[lattice] * n, indexing="ij"), -1)
            if n <= 4 else np.empty((0, n)))
    # 699 in 4-d, where 700 would leave the last tile full
    uniform = {2: 700, 3: 700, 4: 699}.get(n, 1100)
    points = np.concatenate([mesh.reshape(-1, n),
                             rng.uniform(-3, 3, size=(uniform, n))])
    points = points[~family.singular_mask(points)]
    assert len(points) > 2 * _TILE and len(points) % _TILE
    masses = rng.normal(size=len(points))      # fields can be signed
    params = rng.integers(-8, 9, size=(23, family.ndim)) / 4.0
    return points, masses, params


def _set_columns(monkeypatch, cols, slab):
    """Blocks of ``cols`` parameter columns on both paths, and slabs of
    ``slab`` points."""
    monkeypatch.setattr(forward, "_CHUNK_ELEMS", cols * slab)
    monkeypatch.setattr(forward, "_kernel_columns", lambda *_: cols)


class TestDepositKernel:
    @pytest.mark.parametrize("name", sorted(DEPOSIT_CASES))
    @pytest.mark.parametrize("cols", [1, 5, 1000])
    def test_matches_reference_loop(self, name, cols, monkeypatch):
        family, x_axis = DEPOSIT_CASES[name]
        x_grid = make_grid(1, [x_axis])
        points, masses, params = _deposit_inputs(family)
        n_bins, x0, dx = x_axis[2], x_axis[0], x_grid.spacing[0]
        g = family.level_evaluator(points)(params) / dx - x0 / dx
        assert (g < -1).any() and ((g > 0) & (g < n_bins - 1)).any() \
            and (g > n_bins).any()
        if name in ("hyperplane", "quadric"):
            assert (g == -1).any() and (g == n_bins).any()
        _set_columns(monkeypatch, cols, len(points))
        monkeypatch.setenv("GENTOMO_THREADS", "2")
        values, overflow = _deposit(family, points, masses, params, x_grid)
        ref_values, ref_overflow = _reference_deposit(
            family, points, masses, params, x_grid, cols * len(points))
        assert np.array_equal(values, ref_values)
        assert np.array_equal(overflow, ref_overflow)

    @pytest.mark.parametrize("name", sorted(DEPOSIT_CASES))
    def test_slabs_match_reference_loop(self, name, monkeypatch):
        """Slab partial sums stay within 1e-13 of the peak of one long
        bincount per column."""
        family, x_axis = DEPOSIT_CASES[name]
        x_grid = make_grid(1, [x_axis])
        points, masses, params = _deposit_inputs(family)
        n_bins, x0, dx = x_axis[2], x_axis[0], x_grid.spacing[0]
        g = family.level_evaluator(points)(params) / dx - x0 / dx
        assert (g < -1).any() and ((g > 0) & (g < n_bins - 1)).any() \
            and (g > n_bins).any()
        slab = len(points) // 4 - 1
        assert -(-len(points) // slab) >= 4 and len(points) % slab
        monkeypatch.setattr(forward, "_CHUNK_ELEMS", slab)
        monkeypatch.setenv("GENTOMO_THREADS", "2")
        values, overflow = _deposit(family, points, masses, params, x_grid)
        ref_values, ref_overflow = _reference_deposit(
            family, points, masses, params, x_grid, len(points))
        peak = np.abs(ref_values).max()
        assert np.abs(values - ref_values).max() <= 1e-13 * peak
        assert np.abs(overflow - ref_overflow).max() <= 1e-13 * peak

    @pytest.mark.parametrize("name", [name for name in sorted(DEPOSIT_CASES)
                                      if DEPOSIT_CASES[name][0].ndim == 2])
    def test_block_size_tolerance(self, gauss2d, name, monkeypatch):
        """2 M-pair blocks give the same bytes as the default blocks.

        127^2 cell centers give 31 columns per default numpy block, so 94
        parameters leave a last block of one column, against one 94-column
        block at 2 M; the compiled path runs its default blocks against one
        block of 94 columns.
        """
        family = DEPOSIT_CASES[name][0]
        q = make_grid(2, [(-6, 6, 128), (-6, 6, 128)])
        params = np.random.default_rng(3).uniform(-3, 3, size=(94, 2))
        x_grid = make_grid(1, [(-12, 40, 301)])
        small = forward_binned_at(gauss2d, family, params, x_grid, q)
        monkeypatch.setattr(forward, "_CHUNK_ELEMS", 2_000_000)
        monkeypatch.setattr(forward, "_kernel_columns", lambda *_: 94)
        large = forward_binned_at(gauss2d, family, params, x_grid, q)
        assert np.array_equal(small.values, large.values)
        assert np.array_equal(small.overflow, large.overflow)


def _deposit_spy(used):
    """A ``_run_blocks`` that records the worker count of deposit calls."""
    def spy(new_worker, starts, workers):
        if new_worker.__qualname__.startswith("_deposit."):
            used.append(workers)
        return _run_blocks(new_worker, starts, workers)
    return spy


def _bytes_for_every_thread_count(gauss2d, family, pg, x_grid, monkeypatch):
    """Forward bytes at GENTOMO_THREADS 1, 2 and 3, each on its own worker
    count, over at least five blocks of the deposited columns."""
    q = make_grid(2, [(-6, 6, 128), (-6, 6, 128)])
    n_dep = pg.size - forward._reflected_rows(family, pg.points(), x_grid)
    n_blocks = -(-n_dep // (forward._CHUNK_ELEMS // q.size))
    assert n_blocks >= 5
    used = []

    monkeypatch.setattr(forward, "_run_blocks", _deposit_spy(used))
    outs = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("GENTOMO_THREADS", threads)
        t = forward_binned(gauss2d, family, pg, x_grid, q)
        outs.append((t.values.tobytes(), t.overflow.tobytes()))
    assert used == [1, 2, 3]
    assert outs[0] == outs[1] == outs[2]


class TestDepositThreads:
    def test_bytes_identical_for_every_thread_count(self, gauss2d,
                                                    monkeypatch):
        pg = make_grid(2, [(-3, 3, 12), (-3, 3, 12)])
        x_grid = make_grid(1, [(-5, 60, 401)])
        family = Quadric(QuadricForm(np.array([[1.0, 0.3], [0.3, 2.0]])))
        _bytes_for_every_thread_count(gauss2d, family, pg, x_grid,
                                      monkeypatch)

    def test_reflected_bytes_identical_for_every_thread_count(self, gauss2d,
                                                              monkeypatch):
        """A 16^2 box centred on 0: the first 128 columns are deposited and
        reversed for the rest."""
        pg = make_grid(2, [(-3, 3, 16), (-3, 3, 16)])
        x_grid = make_grid(1, [(-8, 8, 401)])
        assert forward._reflected_rows(Hyperplane(2), pg.points(),
                                       x_grid) == 128
        _bytes_for_every_thread_count(gauss2d, Hyperplane(2), pg, x_grid,
                                      monkeypatch)

    def test_slab_bytes_identical_for_every_thread_count(self, gauss2d,
                                                         monkeypatch):
        """More points than one slab holds: one column per block, five
        slabs with a short last one."""
        q = make_grid(2, [(-6, 6, 128), (-6, 6, 128)])
        params = np.random.default_rng(4).uniform(-3, 3, size=(7, 2))
        x_grid = make_grid(1, [(-5, 60, 401)])
        family = Quadric(QuadricForm(np.array([[1.0, 0.3], [0.3, 2.0]])))
        monkeypatch.setattr(forward, "_CHUNK_ELEMS", 4000)
        nodes = len(q.cell_centers())
        assert (nodes // 4000, nodes % 4000) == (4, 129)
        used = []
        monkeypatch.setattr(forward, "_run_blocks", _deposit_spy(used))
        outs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("GENTOMO_THREADS", threads)
            t = forward_binned_at(gauss2d, family, params, x_grid, q)
            outs.append((t.values.tobytes(), t.overflow.tobytes()))
        # one block loop per slab
        assert used == [1] * 5 + [2] * 5 + [3] * 5
        assert outs[0] == outs[1] == outs[2]

    def test_slabs_under_contention(self, gauss2d, monkeypatch):
        """Four workers on five slabs, switching threads every microsecond:
        the per-slab worker hand-out, over blocks planned before the first
        slab, still gives one thread's bytes."""
        q = make_grid(2, [(-6, 6, 128), (-6, 6, 128)])
        params = np.random.default_rng(4).uniform(-3, 3, size=(13, 2))
        x_grid = make_grid(1, [(-5, 60, 401)])
        family = Quadric(QuadricForm(np.array([[1.0, 0.3], [0.3, 2.0]])))
        monkeypatch.setattr(forward, "_CHUNK_ELEMS", 4000)
        monkeypatch.setattr(forward, "_kernel_columns", lambda *_: 1)
        outs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("GENTOMO_THREADS", threads)
            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                t = forward_binned_at(gauss2d, family, params, x_grid, q)
            finally:
                sys.setswitchinterval(old)
            outs.append((t.values.tobytes(), t.overflow.tobytes()))
        assert outs[0] == outs[1]

    def test_plan_is_built_once(self, gauss2d, monkeypatch):
        """Five slabs of 13 one-column blocks on two workers: one
        ``param_terms`` call for the whole forward, whose rows every block
        takes."""
        calls = []
        param_terms = LevelFamily.param_terms

        def counting(family, params):
            calls.append(len(params))
            return param_terms(family, params)

        monkeypatch.setattr(LevelFamily, "param_terms", counting)
        monkeypatch.setattr(forward, "_CHUNK_ELEMS", 4000)
        monkeypatch.setattr(forward, "_kernel_columns", lambda *_: 1)
        monkeypatch.setenv("GENTOMO_THREADS", "2")
        used = []
        monkeypatch.setattr(forward, "_run_blocks", _deposit_spy(used))
        q = make_grid(2, [(-6, 6, 128), (-6, 6, 128)])
        params = np.random.default_rng(4).uniform(-3, 3, size=(13, 2))
        x_grid = make_grid(1, [(-5, 60, 401)])
        family = Quadric(QuadricForm(np.array([[1.0, 0.3], [0.3, 2.0]])))
        t = forward_binned_at(gauss2d, family, params, x_grid, q)
        assert used == [2] * 5
        assert calls == [13]
        assert t.values.max() > 0.0

    @pytest.mark.parametrize("threads, params", [
        ("1", np.zeros((0, 2))), ("2", np.zeros((0, 2))), ("1", []),
        ("2", [])], ids=["1", "2", "list-1", "list-2"])
    def test_empty_parameter_list(self, gauss2d, q_grid, threads, params,
                                  monkeypatch):
        """No parameter point: an empty (0, n_bins) table, no overflow
        warning."""
        monkeypatch.setenv("GENTOMO_THREADS", threads)
        x_grid = make_grid(1, [(-6, 6, 61)])
        t = forward_binned(gauss2d, Hyperplane(2), params, x_grid, q_grid)
        assert t.values.shape == (0, 61)
        assert t.overflow.shape == (0,)
        assert t.param_points.shape == (0, 2)
        assert t.warnings == ()

    @pytest.mark.parametrize("raw", ["many", "-1", "1.5"])
    def test_bad_thread_env_raises(self, gauss2d, raw, monkeypatch):
        monkeypatch.setenv("GENTOMO_THREADS", raw)
        with pytest.raises(ValueError, match="GENTOMO_THREADS"):
            forward_binned_at(gauss2d, Hyperplane(2), [[1.0, 0.0]],
                              make_grid(1, [(-6, 6, 61)]),
                              make_grid(2, [(-6, 6, 16), (-6, 6, 16)]))

    def test_zero_or_unset_means_usable_cores(self, monkeypatch):
        monkeypatch.setenv("GENTOMO_THREADS", "0")
        assert thread_count() == len(os.sched_getaffinity(0))
        monkeypatch.delenv("GENTOMO_THREADS")
        assert thread_count() == len(os.sched_getaffinity(0))

    def test_no_affinity_call_falls_back_to_cpu_count(self, gauss2d,
                                                      monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setenv("GENTOMO_THREADS", "0")
        assert thread_count() == os.cpu_count()
        monkeypatch.setenv("GENTOMO_THREADS", "3")
        assert thread_count() == 3
        t = forward_binned_at(gauss2d, Hyperplane(2), [[1.0, 0.0]],
                              make_grid(1, [(-6, 6, 61)]),
                              make_grid(2, [(-6, 6, 16), (-6, 6, 16)]))
        assert t.values.max() > 0.0

    def test_no_sysconf_skips_the_memory_preflight(self, gauss2d,
                                                    monkeypatch):
        # Windows has no os.sysconf, so the preflight cannot size memory
        run = lambda: forward_binned_at(gauss2d, Hyperplane(2),
                                        [[1.0, 0.0], [0.6, 0.8]],
                                        make_grid(1, [(-6, 6, 61)]),
                                        make_grid(2, [(-6, 6, 16)] * 2))
        expect = run()
        monkeypatch.delattr(os, "sysconf")
        t = run()
        assert t.values.tobytes() == expect.values.tobytes()
        assert t.overflow.tobytes() == expect.overflow.tobytes()

    def test_every_block_runs_once_under_contention(self):
        done = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_blocks(lambda: done.append, range(0, 2000, 3), 8)
        finally:
            sys.setswitchinterval(old)
        assert sorted(done) == list(range(0, 2000, 3))

    def test_worker_error_is_raised(self):
        def run(start):
            if start == 7:
                raise RuntimeError("block 7")

        with pytest.raises(RuntimeError, match="block 7"):
            _run_blocks(lambda: run, range(20), 3)


class TestDepositKernelNumpy(TestDepositKernel):
    """The deposit kernel tests on the numpy path."""

    @pytest.fixture(autouse=True)
    def _numpy_path(self, monkeypatch):
        _use_numpy(monkeypatch)


class TestDepositThreadsNumpy(TestDepositThreads):
    """The thread tests on the numpy path."""

    @pytest.fixture(autouse=True)
    def _numpy_path(self, monkeypatch):
        _use_numpy(monkeypatch)


# linear families by name, each reached by ``_reflected_rows``
REFLECTED_FAMILIES = {
    "hyperplane_1d": Hyperplane(1), "hyperplane": Hyperplane(2),
    "hyperplane_3d": Hyperplane(3), "hyperplane_4d": Hyperplane(4),
    "circle": circle_family(), "hyperbola": hyperbola_family(),
    "hyperboloid_4d": hyperboloid_family(2),
}
REFLECTED_X = make_grid(1, [(-2.0, 2.0, 17)])


class TestReflectedParameters:
    """A family linear in mu, an X axis with lo == -hi and parameter points
    that are reflections of each other in reverse order: the deposit fills
    the first half of the table and reverses it along X for the rest."""

    @pytest.fixture(autouse=True, params=["compiled", "numpy"])
    def path(self, request, monkeypatch):
        if request.param == "compiled" and not _has_compiler():
            pytest.skip("no C compiler on PATH")
        if request.param == "numpy":
            _use_numpy(monkeypatch)
        monkeypatch.setenv("GENTOMO_THREADS", "2")

    @pytest.mark.parametrize("parity", ["odd", "even"])
    @pytest.mark.parametrize("name", sorted(REFLECTED_FAMILIES))
    def test_mirror_matches_direct_deposit(self, name, parity):
        """Against the same points rolled by one, which are deposited
        directly: the deposited rows (the centre row of an odd count
        included) give equal bytes, the mirrored ones stay within 1e-13 of
        the peak, and the overflow within 1e-13 of the kept mass."""
        family = REFLECTED_FAMILIES[name]
        points, _, _ = _deposit_inputs(family)
        masses = np.random.default_rng(6).uniform(0.5, 1.5, len(points))
        count = {1: 7, 2: 5, 3: 3, 4: 3}[family.ndim] + (parity == "even")
        params = _centred_box(family.ndim, count)
        n_par = len(params)
        assert n_par % 2 == (parity == "odd")
        assert forward._reflected_rows(family, params, REFLECTED_X) \
            == n_par // 2
        rolled = np.roll(params, 1, axis=0)
        assert forward._reflected_rows(family, rolled, REFLECTED_X) == 0
        values, overflow = _deposit(family, points, masses, params,
                                    REFLECTED_X)
        direct, direct_overflow = (np.roll(r, -1, axis=0) for r in _deposit(
            family, points, masses, rolled, REFLECTED_X))
        half = n_par - n_par // 2
        assert np.array_equal(values[:half], direct[:half])
        assert np.array_equal(overflow[:half], direct_overflow[:half])
        assert np.array_equal(values[half:],
                              values[n_par // 2 - 1::-1, ::-1])
        peak = np.abs(direct).max()
        assert np.abs(values - direct).max() <= 1e-13 * peak
        assert np.abs(overflow - direct_overflow).max() \
            <= 1e-13 * masses.sum()
        assert 0.0 < overflow.max() < masses.sum()

    @pytest.mark.parametrize("case", ["quadric", "hybrid", "x-window", "box",
                                      "one-point", "directions"])
    def test_rule_not_taken_matches_reference_loop(self, case, monkeypatch):
        """Each case misses one condition; ``directions`` holds 16 angles
        whose reflections are the pairs (k, k + 8), not reverse order."""
        family, x_grid = Hyperplane(2), REFLECTED_X
        params = _centred_box(2, 5)
        if case in ("quadric", "hybrid"):
            family = DEPOSIT_CASES[case][0]
        elif case == "x-window":
            x_grid = make_grid(1, [(-2.0, 2.5, 19)])
        elif case == "box":
            params = make_grid(2, [(-2.0, 2.5, 5)] * 2).points()
        elif case == "one-point":
            params = params[12:13]
            assert np.array_equal(params, [[0.0, 0.0]])
        else:
            angles = 0.055 + np.arange(16) * np.pi / 8
            params = np.column_stack([np.cos(angles), np.sin(angles)])
        assert forward._reflected_rows(family, params, x_grid) == 0
        points, masses, _ = _deposit_inputs(family)
        _set_columns(monkeypatch, 5, len(points))
        values, overflow = _deposit(family, points, masses, params, x_grid)
        ref_values, ref_overflow = _reference_deposit(
            family, points, masses, params, x_grid, 5 * len(points))
        assert np.array_equal(values, ref_values)
        assert np.array_equal(overflow, ref_overflow)

    @pytest.mark.parametrize("box, deposited", [
        ((-2.0, 2.0, 5), 13), ((-2.0, 2.0, 6), 18), ((-2.0, 2.5, 5), 25)],
        ids=["odd", "even", "off-centre"])
    def test_slab_function_gets_half_the_columns(self, box, deposited,
                                                 monkeypatch):
        """One slab: a centred box sends ceil(P / 2) columns through the
        slab function, any other box all P."""
        cols = []

        def counting(factory):
            def make(*args):
                run = factory(*args)

                def counted(L, a, m, M, *rest):
                    cols.append(len(M))
                    return run(L, a, m, M, *rest)

                return counted
            return make

        for name in ("_compiled_slab", "_numpy_slab"):
            monkeypatch.setattr(forward, name,
                                counting(getattr(forward, name)))
        family = Hyperplane(2)
        points, masses, _ = _deposit_inputs(family)
        params = make_grid(2, [box] * 2).points()
        _deposit(family, points, masses, params, REFLECTED_X)
        assert sum(cols) == deposited

    def test_mirror_writes_in_place(self, gauss2d, monkeypatch):
        """The tracemalloc peak of a forward whose table is 12.8 MB stays
        within an eighth of the table above it, where a copy of the half
        table would add a half.  Slabs of 4096 pairs keep the numpy path's
        scratch at about 1 MB."""
        monkeypatch.setattr(forward, "_CHUNK_ELEMS", 4096)
        q = make_grid(2, [(-6, 6, 16)] * 2)
        params = _centred_box(2, 40)
        x_grid = make_grid(1, [(-6, 6, 1001)])
        assert forward._reflected_rows(Hyperplane(2), params, x_grid) == 800
        run = lambda: forward_binned(gauss2d, Hyperplane(2), params, x_grid, q)
        run()                   # builds or loads the compiled loop
        tracemalloc.start()
        try:
            t = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.125 * t.values.nbytes

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_reflected_list_raises(self, bad):
        """The symmetry test raises no floating-point warning (inf + -inf
        would), and the deposit raises its non-finite level error."""
        family = Hyperplane(2)
        params = np.array([[bad, 1.0], [0.0, 0.0], [-bad, -1.0]])
        points, masses, _ = _deposit_inputs(family)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert forward._reflected_rows(family, params, REFLECTED_X) == 0
            huge = np.array([[1e308, 1.0], [1e308, 1.0]])
            assert forward._reflected_rows(family, huge, REFLECTED_X) == 0
            with pytest.raises(ValueError, match="non-finite level"):
                _deposit(family, points, masses, params, REFLECTED_X)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-6, 1e6), st.integers(2, 12)),
                min_size=1, max_size=4))
def test_every_centred_box_is_reflected(axes):
    """The 4 eps bound of ``_reflected_rows`` holds for the points of any
    box with lo == -hi on every axis."""
    box = make_grid(len(axes), [(-hi, hi, n) for hi, n in axes]).points()
    family = Hyperplane(len(axes))
    assert forward._reflected_rows(family, box, REFLECTED_X) == len(box) // 2


def _has_compiler():
    return bool(shutil.which("cc") or shutil.which("gcc"))


def _use_numpy(monkeypatch):
    """Every deposit takes the numpy path."""
    monkeypatch.setattr(forward, "_load_kernel", lambda: (None, None))


def _use_kernel(monkeypatch, kernel):
    """Every deposit runs ``kernel``, a (deposit, loop query) pair."""
    monkeypatch.setattr(forward, "_load_kernel", lambda: kernel)


def _kernel_missing():
    """Why the compiled deposit is not built, or "" when it is."""
    return build_library(forward._KERNEL_SOURCE, forward._KERNEL_FLAGS)[1]


def _both_paths(monkeypatch, run):
    """``run()`` on the compiled path, then on the numpy path."""
    compiled = run()
    with monkeypatch.context() as numpy_path:
        _use_numpy(numpy_path)
        return compiled, run()


def _host_levels(cc, tmp):
    """GENTOMO_DEPOSIT_LEVEL values for the compiled loop's variants that
    this CPU runs: 1 (one pass per point) and the x86-64 levels 3 and 4 per
    the compiler's CPU detection, or only None (the build as shipped) on
    other hosts and where the compiler does not know those levels."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return [None]
    probe = tmp / "levels.c"
    probe.write_text(
        "int levels(void) { __builtin_cpu_init();\n"
        "  return __builtin_cpu_supports(\"x86-64-v4\") ? 3\n"
        "       : __builtin_cpu_supports(\"x86-64-v3\") ? 2 : 1; }\n")
    build = subprocess.run([cc, "-fPIC", "-shared", "-o",
                            str(tmp / "levels.so"), str(probe)],
                           capture_output=True)
    if build.returncode:
        return [None]
    runs = ctypes.CDLL(str(tmp / "levels.so")).levels()
    return [1, 3, 4][:runs]


@pytest.fixture(scope="module")
def variant_kernels(tmp_path_factory):
    """The compiled loop built once per variant this CPU runs, by level:
    its (deposit, loop query) functions."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    tmp = tmp_path_factory.mktemp("variants")
    kernels = {}
    for level in _host_levels(cc, tmp):
        lib = tmp / f"deposit-{level or 'shipped'}.so"
        define = [] if level is None else [f"-DGENTOMO_DEPOSIT_LEVEL={level}"]
        subprocess.run([cc, *forward._KERNEL_FLAGS, *define, "-o", str(lib),
                        str(forward._KERNEL_SOURCE)],
                       check=True, capture_output=True)
        kernels[level] = forward._bind(ctypes.CDLL(str(lib)))
    return kernels


class TestCompiledDeposit:
    def test_compiler_on_path_takes_compiled_path(self, monkeypatch):
        if not _has_compiler():
            pytest.skip("no C compiler on PATH")
        family, x_axis = DEPOSIT_CASES["quadric"]
        points, masses, params = _deposit_inputs(family)
        _deposit(family, points, masses, params, make_grid(1, [x_axis]))
        assert forward._load_kernel()[0] is not None, _kernel_missing()
        assert _kernel_missing() == ""

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    @pytest.mark.parametrize("slabs", [1, 4])
    @pytest.mark.parametrize("cols", [1, 5, 1000])
    @pytest.mark.parametrize("name", sorted(DEPOSIT_CASES) + [
        f"{name}/reflected" for name in REFLECTED_CASES])
    def test_paths_give_equal_bytes(self, name, cols, slabs, threads,
                                    monkeypatch):
        """A ``/reflected`` case takes a parameter box centred on 0, so only
        its first half is deposited; both paths also give the bytes of the
        compiled loop's one-column blocks on one thread."""
        base = name.split("/")[0]
        family, x_axis = DEPOSIT_CASES[base]
        x_grid = make_grid(1, [x_axis])
        points, masses, params = _deposit_inputs(family)
        if name != base:
            params = _centred_box(family.ndim, REFLECTED_CASES[base])
            assert forward._reflected_rows(family, params, x_grid) > 0
        _set_columns(monkeypatch, cols, -(-len(points) // slabs))
        monkeypatch.setenv("GENTOMO_THREADS", threads)
        run = lambda: _deposit(family, points, masses, params, x_grid)
        compiled, numpy_path = _both_paths(monkeypatch, run)
        assert np.array_equal(compiled[0], numpy_path[0])
        assert np.array_equal(compiled[1], numpy_path[1])
        if name != base:
            monkeypatch.setattr(forward, "_kernel_columns", lambda *_: 1)
            monkeypatch.setenv("GENTOMO_THREADS", "1")
            one = run()
            assert np.array_equal(compiled[0], one[0])
            assert np.array_equal(compiled[1], one[1])

    def _quadric_bytes(self, gauss2d):
        family = Quadric(QuadricForm(np.array([[1.0, 0.3], [0.3, 2.0]])))
        t = forward_binned_at(gauss2d, family, [[0.5, -1.0], [2.0, 0.0]],
                              make_grid(1, [(-5, 60, 401)]),
                              make_grid(2, [(-6, 6, 64), (-6, 6, 64)]))
        return t.values.tobytes() + t.overflow.tobytes()

    def _numpy_bytes(self, gauss2d, monkeypatch):
        with monkeypatch.context() as numpy_path:
            _use_numpy(numpy_path)
            return self._quadric_bytes(gauss2d)

    def test_no_compiler_gives_equal_bytes(self, gauss2d, tmp_path,
                                           monkeypatch, fresh_builds):
        expect = self._numpy_bytes(gauss2d, monkeypatch)
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        assert self._quadric_bytes(gauss2d) == expect
        assert forward._load_kernel() == (None, None)
        assert "no C compiler" in _kernel_missing()

    def test_unwritable_cache_gives_equal_bytes(self, gauss2d, tmp_path,
                                                monkeypatch, fresh_builds):
        """The cache directory cannot be made (its parent is a file, which
        holds for root as well): the library is built per process."""
        if not _has_compiler():
            pytest.skip("no C compiler on PATH")
        expect = self._numpy_bytes(gauss2d, monkeypatch)
        blocker = tmp_path / "cache"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert self._quadric_bytes(gauss2d) == expect
        assert forward._load_kernel()[0] is not None, _kernel_missing()
        assert blocker.read_text() == ""

    def test_unknown_home_gives_equal_bytes(self, gauss2d, monkeypatch,
                                            fresh_builds):
        """No XDG_CACHE_HOME and no home directory (``Path.home`` raises
        RuntimeError, as with no HOME and no passwd entry): the forward
        works, and with a compiler the library is built per process."""
        expect = self._numpy_bytes(gauss2d, monkeypatch)

        def no_home(cls):
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setattr(Path, "home", classmethod(no_home))
        assert self._quadric_bytes(gauss2d) == expect
        if _has_compiler():
            assert forward._load_kernel()[0] is not None, _kernel_missing()

    def test_cache_is_reused(self, gauss2d, tmp_path, monkeypatch,
                             fresh_builds):
        if not _has_compiler():
            pytest.skip("no C compiler on PATH")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        first = self._quadric_bytes(gauss2d)
        (lib,) = (tmp_path / "gentomo").iterdir()
        assert lib.name.startswith("deposit-") and lib.suffix == ".so"
        stamp = lib.stat().st_mtime_ns
        monkeypatch.setenv("PATH", str(tmp_path / "no-compiler-here"))
        build_library.cache_clear()     # a second process, in effect
        assert self._quadric_bytes(gauss2d) == first
        assert forward._load_kernel()[0] is not None, _kernel_missing()
        assert [p.name for p in (tmp_path / "gentomo").iterdir()] == [lib.name]
        assert lib.stat().st_mtime_ns == stamp

    def test_each_library_is_built_and_loaded_once(self, gauss2d, q_grid,
                                                   tmp_path, monkeypatch,
                                                   fresh_builds):
        """Two forwards and two CSV exports in one process on an empty
        cache: each library is compiled at most once and loaded once where
        it builds, and the other calls take the memo."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        compiled, loaded = [], []
        compile_, cdll = _native._compile, ctypes.CDLL

        def spy_compile(compilers, flags, lang, source, target):
            compiled.append(target.name.split("-")[0])
            return compile_(compilers, flags, lang, source, target)

        def spy_cdll(name, *args, **kw):
            loaded.append(Path(name).name.split("-")[0])
            return cdll(name, *args, **kw)

        monkeypatch.setattr(_native, "_compile", spy_compile)
        monkeypatch.setattr(_native.ctypes, "CDLL", spy_cdll)
        for n in (4, 5):
            t = forward_binned(gauss2d, Hyperplane(2),
                               make_grid(2, [(-1, 1, n)] * 2),
                               make_grid(1, [(-6, 6, 61)]), q_grid)
            formats.write_tomogram_csv(tmp_path / f"t{n}.csv", t)
        assert build_library.cache_info().misses == 2
        for name, source, flags in [
                ("deposit", forward._KERNEL_SOURCE, forward._KERNEL_FLAGS),
                ("csvformat", formats._FORMATTER_SOURCE,
                 formats._FORMATTER_FLAGS)]:
            built = build_library(source, flags)[0] is not None
            assert compiled.count(name) <= 1
            assert loaded.count(name) == built

    def test_import_builds_and_loads_nothing(self, tmp_path):
        if not os.path.exists("/proc/self/maps"):
            pytest.skip("needs /proc/self/maps")
        import gentomo
        src = str(Path(gentomo.__file__).resolve().parents[1])
        code = ("import gentomo, gentomo.cli, gentomo.forward\n"
                "from gentomo._native import build_library\n"
                "maps = open('/proc/self/maps').read()\n"
                "print(build_library.cache_info().currsize,\n"
                "      'deposit-' in maps, 'csvformat-' in maps)\n")
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
               "PYTHONPATH": os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["0", "False", "False"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("level", [None, 1, 3],
                             ids=["shipped", "level1", "level3"])
    def test_source_compiles_without_warnings(self, tmp_path, level):
        """The build as shipped, and with the pick capped at one pass per
        point and at x86-64-v3."""
        cc = shutil.which("cc") or shutil.which("gcc")
        if cc is None:
            pytest.skip("no C compiler on PATH")
        define = [] if level is None else [f"-DGENTOMO_DEPOSIT_LEVEL={level}"]
        proc = subprocess.run(
            [cc, *forward._KERNEL_FLAGS, *define, "-Wall", "-Wextra", "-Werror",
             "-o", str(tmp_path / "deposit.so"), str(forward._KERNEL_SOURCE)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("slabs", [1, 4])
    @pytest.mark.parametrize("cols", [1, 5, 1000])
    @pytest.mark.parametrize("name", sorted(DEPOSIT_CASES))
    def test_every_variant_gives_numpy_bytes(self, variant_kernels, name,
                                             cols, slabs, monkeypatch):
        family, x_axis = DEPOSIT_CASES[name]
        x_grid = make_grid(1, [x_axis])
        points, masses, params = _deposit_inputs(family)
        _set_columns(monkeypatch, cols, -(-len(points) // slabs))
        _use_numpy(monkeypatch)
        expect = _deposit(family, points, masses, params, x_grid)
        for level, kernel in variant_kernels.items():
            _use_kernel(monkeypatch, kernel)
            values, overflow = _deposit(family, points, masses, params, x_grid)
            assert np.array_equal(values, expect[0]), level
            assert np.array_equal(overflow, expect[1]), level

    def test_loop_query_names_the_highest_loop(self, variant_kernels):
        """The build as shipped names the highest x86-64 level this CPU
        runs for d <= 4 and one pass per point for d = 5; the build capped
        at level 1 names one pass per point for every d."""
        kernel, shipped = forward._load_kernel()
        assert kernel is not None, _kernel_missing()
        top = max(filter(None, variant_kernels), default=1)
        assert [shipped(d) for d in range(1, 6)] == [top] * 4 + [1]
        if 1 in variant_kernels:
            loop = variant_kernels[1][1]
            assert [loop(d) for d in range(1, 6)] == [1] * 5

    def test_phase_one_vectorizes(self, tmp_path):
        """gcc reports the tiled loop's phase 1 vectorized, for each literal
        d, with 32-byte (AVX2) vectors in the build capped at x86-64-v3 and
        with 64-byte (AVX-512) vectors in the build as shipped."""
        cc = shutil.which("cc") or shutil.which("gcc")
        if cc is None:
            pytest.skip("no C compiler on PATH")
        src = forward._KERNEL_SOURCE
        macros = subprocess.run([cc, *forward._KERNEL_FLAGS, "-E", "-dM",
                                 str(src)], capture_output=True, text=True)
        if "#define VECTOR_SLABS" not in macros.stdout:
            pytest.skip("the tiled loop needs gcc 12 or later on x86-64")
        lines = src.read_text().splitlines()
        head = next(i for i, line in enumerate(lines)
                    if line.startswith("tile_levels("))
        loop = next(i for i in range(head, len(lines))
                    if "for (long i = 0;" in lines[i]) + 1
        found = re.compile(rf":{loop}:\d+: optimized: loop vectorized "
                           r"using (\d+) byte vectors")

        def widths(define):
            proc = subprocess.run(
                [cc, *forward._KERNEL_FLAGS, *define, "-fopt-info-vec-optimized",
                 "-o", str(tmp_path / "deposit.so"), str(src)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            return [int(w) for w in found.findall(proc.stderr)]

        v3 = widths(["-DGENTOMO_DEPOSIT_LEVEL=3"])
        assert 64 not in v3 and v3.count(32) >= 4, v3
        assert widths([]).count(64) >= 4

    @pytest.mark.parametrize("level", [None, 1])
    def test_kernel_has_no_undefined_behaviour(self, tmp_path, level):
        """A UBSan build, as shipped and with one pass per point, runs
        every case plus NaN, infinite and 1e308 levels; any float-to-int
        overflow or other undefined operation aborts the child process."""
        cc = shutil.which("cc") or shutil.which("gcc")
        if cc is None:
            pytest.skip("no C compiler on PATH")
        lib = tmp_path / "deposit-ubsan.so"
        define = [] if level is None else [f"-DGENTOMO_DEPOSIT_LEVEL={level}"]
        build = subprocess.run(
            [cc, *forward._KERNEL_FLAGS, *define,
             "-fsanitize=undefined,float-cast-overflow",
             "-fno-sanitize-recover=all", "-o", str(lib),
             str(forward._KERNEL_SOURCE)], capture_output=True, text=True)
        if build.returncode:
            pytest.skip(f"no sanitizer runtime: {build.stderr.strip()[-200:]}")
        code = f"""
import ctypes, math
import numpy as np
from gentomo import forward
from gentomo.checks import homogeneity_residual
from gentomo.core import make_grid
from gentomo.geometry import Hyperplane
import test_forward as t

kernel = forward._bind(ctypes.CDLL({str(lib)!r}))
forward._load_kernel = lambda: kernel
for family, x_axis in t.DEPOSIT_CASES.values():
    points, masses, params = t._deposit_inputs(family)
    t._deposit(family, points, masses, params, make_grid(1, [x_axis]))
x_grid = make_grid(1, [(-2.0, 2.0, 9)])
for bad in (math.nan, math.inf, -math.inf):
    try:
        t._deposit(Hyperplane(2), np.array([[0.0, 0.0], [bad, 1.0]]),
                   np.ones(2), np.array([[1.0, 0.5]]), x_grid)
    except ValueError:
        continue
    raise SystemExit(f"a level of {{bad}} was deposited")
# finite levels whose scaled value overflows to +-inf
t._deposit(Hyperplane(2), np.array([[1e308, 0.0], [-1e308, 1.0]]),
           np.ones(2), np.array([[1.0, 0.5]]), x_grid)
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(forward.__file__).parents[1]), str(Path(__file__).parent),
             *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr[-2000:]

    def test_bins_beyond_the_int_index_are_refused(self, monkeypatch):
        if not _has_compiler():
            pytest.skip("no C compiler on PATH")
        out = np.zeros(1)                 # never touched
        rc = forward._load_kernel()[0](None, None, None, 0, 2, None, None, 1,
                                    1.0, 0.0, forward._KERNEL_MAX_BINS + 1,
                                    out.ctypes.data, out.ctypes.data)
        assert rc == -2

    def test_bins_beyond_the_int_index_take_the_numpy_path(self,
                                                            monkeypatch):
        """The limit lowered to one bin short: the compiled loop is never
        built, and the bytes are the numpy path's."""
        family, x_axis = DEPOSIT_CASES["quadric"]
        x_grid = make_grid(1, [x_axis])
        points, masses, params = _deposit_inputs(family)
        with monkeypatch.context() as numpy_path:
            _use_numpy(numpy_path)
            expect = _deposit(family, points, masses, params, x_grid)
        loads = []
        monkeypatch.setattr(forward, "_load_kernel",
                            lambda: loads.append(1) or (None, None))
        monkeypatch.setattr(forward, "_KERNEL_MAX_BINS", x_grid.shape[0] - 1)
        values, overflow = _deposit(family, points, masses, params, x_grid)
        assert loads == []
        assert np.array_equal(values, expect[0])
        assert np.array_equal(overflow, expect[1])

    @pytest.mark.parametrize("n_par,n_bins,workers", [
        (1, 9, 1), (6, 481, 1), (16, 481, 1), (16, 481, 2), (1024, 401, 2),
        (4096, 841, 2), (6400, 481, 4), (50, 100_000, 3)])
    def test_column_blocks_fit_in_cache_and_feed_every_worker(
            self, n_par, n_bins, workers):
        cols = forward._kernel_columns(n_par, n_bins, workers)
        assert cols >= 1
        assert cols == 1 or cols % 2 == 0     # the tiled loop's column pairs
        assert cols == 1 or cols * 8 * (3 * n_bins + 7) <= forward._BLOCK_BYTES
        assert cols == 1 or -(-n_par // cols) >= 2 * workers

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_level_raises(self, path, bad, monkeypatch):
        if path == "compiled" and not _has_compiler():
            pytest.skip("no C compiler on PATH")
        if path == "numpy":
            _use_numpy(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite level value"):
                _deposit(Hyperplane(2), np.array([[0.0, 0.0], [bad, 1.0]]),
                         np.ones(2), np.array([[1.0, 0.5]]),
                         make_grid(1, [(-2.0, 2.0, 9)]))
        assert (forward._load_kernel()[0] is None) == (path == "numpy")

    def test_non_finite_level_in_a_column_pair_raises(self, variant_kernels,
                                                      monkeypatch):
        """One block of two columns, of which only the second one's level
        overflows: the tiled loop returns from the middle of a pair."""
        _set_columns(monkeypatch, 2, 1)
        for kernel in [(None, None), *variant_kernels.values()]:
            _use_kernel(monkeypatch, kernel)
            with (warnings.catch_warnings(),
                  pytest.raises(ValueError, match="non-finite level value")):
                warnings.simplefilter("error")
                _deposit(Hyperplane(2), np.array([[1e308, 0.0]]), np.ones(1),
                         np.array([[1.0, 0.0], [10.0, 0.0]]),
                         make_grid(1, [(-2.0, 2.0, 9)]))

    def test_too_fine_x_grid_raises(self):
        """1 / dx overflows: no scaled level may reach the bucket index."""
        with pytest.raises(ValueError, match="too fine to bin"):
            _deposit(Hyperplane(2), np.array([[0.0, 0.0], [1.0, 1.0]]),
                     np.ones(2), np.array([[1.0, 0.5]]),
                     make_grid(1, [(0.0, 1e-310, 3)]))


class TestMemoryPreflight:
    def test_param_grid_table_refused_before_allocating(self, gauss2d, q_grid):
        huge = make_grid(2, [(-1, 1, 200_000), (-1, 1, 200_000)])
        with pytest.raises(ValueError, match=r"40000000000 parameters x "
                           r"61 bins needs 19520000000000 bytes"):
            forward_binned(gauss2d, Hyperplane(2), huge,
                           make_grid(1, [(-6, 6, 61)]), q_grid)

    def test_table_past_int64_refused(self, gauss2d, q_grid):
        """2**64 parameters: an int64 grid size wrapped to 0 and passed."""
        huge = make_grid(2, [(-1, 1, 2**32)] * 2)
        with pytest.raises(ValueError, match=r"18446744073709551616 "
                           r"parameters x 61 bins needs"):
            forward_binned(gauss2d, Hyperplane(2), huge,
                           make_grid(1, [(-6, 6, 61)]), q_grid)

    def test_explicit_points_table_refused(self, gauss2d, q_grid):
        x_grid = make_grid(1, [(-6, 6, 10**13)])
        with pytest.raises(ValueError, match="physical memory"):
            forward_binned_at(gauss2d, Hyperplane(2), [[1.0, 0.0]], x_grid,
                              q_grid)


PROPERTY_FAMILIES = [
    Hyperplane(2), circle_family(), hyperbola_family(), hyperboloid_family(1),
    Quadric(QuadricForm(np.array([[1.0, 0.4], [0.4, -0.5]]))),
    Hybrid(QuadricForm(np.diag([-2.0, 0.0]), linear_axes=(1,))),
]


class TestDepositProperties:
    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(PROPERTY_FAMILIES),
           seed=st.integers(0, 2**32 - 1),
           q_half=st.floats(0.5, 4.0), q_counts=st.tuples(
               st.integers(2, 14), st.integers(2, 14)),
           x_lo=st.floats(-10.0, 5.0), x_width=st.floats(0.1, 20.0),
           x_count=st.integers(2, 40), n_params=st.integers(1, 12),
           chunk_frac=st.floats(0.02, 4.0))
    def test_mass_conserved_and_nonnegative(self, family, seed, q_half,
                                            q_counts, x_lo, x_width, x_count,
                                            n_params, chunk_frac):
        rng = np.random.default_rng(seed)
        q = make_grid(2, [(-q_half, q_half, n) for n in q_counts])
        field = ScalarField(q, rng.random(q.size) * (rng.random(q.size) < 0.8))
        params = rng.uniform(-2, 2, size=(n_params, 2))
        x_grid = make_grid(1, [(x_lo, x_lo + x_width, x_count)])
        masses = field.flat * q.trapezoid_weights().ravel()
        mass = masses[~family.singular_mask(q.points())].sum()
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("GENTOMO_THREADS", "2")
            # below q.size the points are cut into slabs
            mp.setattr(forward, "_CHUNK_ELEMS",
                       max(1, int(chunk_frac * q.size)))
            runs = _both_paths(mp, lambda: forward_binned_at(
                field, family, params, x_grid))
        for t in runs:
            accounted = t.values.sum(axis=1) * x_grid.spacing[0] + t.overflow
            assert np.all(np.abs(accounted - mass) <= 1e-12 * mass)
            assert t.values.min() >= 0.0 and t.overflow.min() >= 0.0
        assert np.array_equal(runs[0].values, runs[1].values)
        assert np.array_equal(runs[0].overflow, runs[1].overflow)

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(PROPERTY_FAMILIES),
           seed=st.integers(0, 2**32 - 1),
           q_half=st.floats(0.5, 4.0), q_counts=st.tuples(
               st.integers(2, 14), st.integers(2, 14)),
           x_count=st.integers(2, 40), n_params=st.integers(1, 12))
    def test_first_moment_is_level_mean(self, family, seed, q_half, q_counts,
                                        x_count, n_params):
        """Tent weights reproduce linear functions: with every level inside
        the X window, sum_j X_j values[j] dX = sum_i m_i g(q_i; mu)."""
        rng = np.random.default_rng(seed)
        q = make_grid(2, [(-q_half, q_half, n) for n in q_counts])
        field = ScalarField(q, rng.random(q.size) * (rng.random(q.size) < 0.8))
        params = rng.uniform(-2, 2, size=(n_params, 2))
        points = q.points()
        keep = ~family.singular_mask(points)
        masses = (field.flat * q.trapezoid_weights().ravel())[keep]
        g = family.level_evaluator(points[keep])(params).T
        pad = 0.01 * (g.max() - g.min()) + 1e-3
        x_grid = make_grid(1, [(g.min() - pad, g.max() + pad, x_count)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("GENTOMO_THREADS", "2")
            runs = _both_paths(mp, lambda: forward_binned_at(
                field, family, params, x_grid))
        moment_x = x_grid.axis_points(0) * x_grid.spacing[0]
        expect = g @ masses
        bound = 1e-12 * (np.abs(g) @ np.abs(masses))
        for t in runs:
            assert not t.overflow.any()
            assert np.all(np.abs(t.values @ moment_x - expect) <= bound)


class TestPhantomQuadrature:
    @pytest.mark.parametrize("source", [
        gaussian([0.3, -0.2], [[1.2, 0.4], [0.4, 0.8]]),
        GaussianMixture(weights=(0.3, 0.7), means=((1.0, 0.5), (-1.0, 0.0)),
                        covariances=(((1.0, 0.2), (0.2, 0.5)),
                                     ((0.7, -0.3), (-0.3, 1.5)))),
        UniformBall(center=(0.2, 0.1), radius=2.5),
        UniformBox(lo=(-2.0, -1.0), hi=(1.5, 3.0)),
    ], ids=["gaussian", "mixture", "ball", "box"])
    def test_slabs_equal_one_pdf_call(self, source, monkeypatch):
        q = make_grid(2, [(-6, 6, 400), (-5, 5, 401)])
        nodes = q.cell_centers().shape[0]
        assert nodes > 2 * forward._PDF_SLAB and nodes % forward._PDF_SLAB
        monkeypatch.setenv("GENTOMO_THREADS", "2")
        n, nodes = forward._source_nodes(source, q)
        pts, masses = nodes(0, n)
        expect = source.pdf(q.cell_centers()) * q.cell_volume
        assert np.array_equal(pts, q.cell_centers())
        assert masses.tobytes() == expect.tobytes()

    def test_worker_cap(self, monkeypatch):
        """64 requested threads start _MAX_WORKERS - 1 extra threads for
        more slabs than that; a start past the cap is refused rather than
        run."""
        q = make_grid(2, [(-6, 6, 600), (-6, 6, 600)])
        nodes = len(q.cell_centers())
        assert -(-nodes // forward._PDF_SLAB) > forward._MAX_WORKERS
        starts = []

        class Counting(threading.Thread):
            def start(self):
                starts.append(self)
                if len(starts) >= forward._MAX_WORKERS:
                    raise AssertionError("more threads than _MAX_WORKERS")
                super().start()

        monkeypatch.setattr(threading, "Thread", Counting)
        monkeypatch.setenv("GENTOMO_THREADS", "64")
        gauss = standard_gaussian(2)
        n, nodes = forward._source_nodes(gauss, q)
        pts, masses = nodes(0, n)
        assert len(starts) == forward._MAX_WORKERS - 1
        assert masses.tobytes() == (gauss.pdf(pts) * q.cell_volume).tobytes()
