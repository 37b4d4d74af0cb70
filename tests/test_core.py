import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentomo.core import (DimensionMismatchError, GaussianMixture, GridError,
                          ScalarField, TomogramFamily, UniformBall, UniformBox,
                          _mesh_points, _mesh_rows, _node_axes,
                          _trapezoid_rows, gaussian, l2_rel_error, make_grid,
                          sample_phantom, standard_gaussian, total_mass)


class TestMakeGrid:
    def test_three_point_axis(self):
        g = make_grid(1, [(-1, 1, 3)])
        assert np.allclose(g.axis_points(0), [-1.0, 0.0, 1.0])
        assert g.spacing == (1.0,)

    def test_cell_volume(self):
        g = make_grid(2, [(-6, 6, 256), (-6, 6, 256)])
        assert g.cell_volume == pytest.approx((12 / 255) ** 2, rel=1e-12)

    def test_degenerate_axis_rejected(self):
        with pytest.raises(GridError):
            make_grid(1, [(0, 0, 3)])

    def test_count_below_two_rejected(self):
        with pytest.raises(GridError):
            make_grid(1, [(0, 1, 1)])

    def test_non_finite_rejected(self):
        with pytest.raises(GridError):
            make_grid(1, [(0, math.inf, 4)])

    def test_overflowing_spacing_rejected(self):
        """Finite bounds whose span is not finite gave spacing inf and NaN
        points."""
        with pytest.raises(GridError, match="overflows"):
            make_grid(1, [(-1e308, 1e308, 2)])
        assert make_grid(1, [(-8e307, 8e307, 2)]).points()[-1, 0] == 8e307

    def test_ndim_mismatch(self):
        with pytest.raises(GridError):
            make_grid(2, [(0, 1, 4)])

    @pytest.mark.parametrize("count", [3.7, "5", 2.5, math.nan, None],
                             ids=["3.7", "str", "2.5", "nan", "none"])
    def test_count_that_is_not_an_integer_rejected(self, count):
        """3.7 was truncated to 3 points and '5' read as 5."""
        with pytest.raises(GridError, match="axis count must be an integer"):
            make_grid(1, [(-1, 1, count)])

    @pytest.mark.parametrize("count", [3, np.int64(3), 3.0, np.float32(3.0)],
                             ids=["int", "int64", "float", "float32"])
    def test_integral_count_accepted(self, count):
        """An integral float such as 3.0 stays accepted, as 3."""
        g = make_grid(1, [(-1, 1, count)])
        assert g.axes == ((-1.0, 1.0, 3),) and type(g.axes[0][2]) is int

    def test_point_is_pure_function_of_spec(self):
        g = make_grid(2, [(-1, 1, 5), (0, 2, 3)])
        assert np.allclose(g.points()[1 * 3 + 2], [-0.5, 2.0])
        assert np.allclose(g.points()[0], [-1.0, 0.0])

    def test_points_row_major(self):
        g = make_grid(2, [(0, 1, 2), (0, 2, 3)])
        pts = g.points()
        # second axis varies fastest
        assert np.allclose(pts[:4], [[0, 0], [0, 1], [0, 2], [1, 0]])

    def test_cell_centers(self):
        g = make_grid(1, [(0, 1, 3)])
        assert np.allclose(g.cell_centers().ravel(), [0.25, 0.75])

    def test_size_is_exact_past_int64(self):
        """An int64 product wraps: 2.7e19 read 8553255926290448384, and
        2**64 read 0."""
        assert make_grid(3, [(-1, 1, 3_000_000)] * 3).size == 27 * 10**18
        assert make_grid(2, [(-1, 1, 2**32)] * 2).size == 2**64


def _reference_mesh(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


MESH_GRIDS = [
    make_grid(1, [(-1.5, 2.0, 7)]),
    make_grid(2, [(-6, 6, 33), (-5, 4.5, 20)]),
    make_grid(3, [(-1, 1, 5), (0.1, 0.7, 4), (-3, 3, 6)]),
]


class TestMeshPoints:
    """The one mesh builder behind points() and cell_centers(s)."""

    @pytest.mark.parametrize("g", MESH_GRIDS, ids=["1d", "2d", "3d"])
    def test_points_equal_meshgrid_reference(self, g):
        pts = g.points()
        ref = _reference_mesh([g.axis_points(i) for i in range(g.ndim)])
        assert pts.flags.c_contiguous
        assert pts.dtype == ref.dtype and np.array_equal(pts, ref)

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("g", MESH_GRIDS, ids=["1d", "2d", "3d"])
    def test_cell_centers_equal_meshgrid_reference(self, g, s):
        axes = []
        for lo, hi, n in g.axes:
            d = (hi - lo) / (n - 1)
            base = lo + d * np.arange(n - 1)
            axes.append((base[:, None]
                         + d * (np.arange(s) + 0.5)[None, :] / s).ravel())
        got = g.cell_centers(s)
        assert got.flags.c_contiguous
        assert np.array_equal(got, _reference_mesh(axes))
        if s == 1:
            centers = [g.axis_points(i)[:-1] + 0.5 * g.spacing[i]
                       for i in range(g.ndim)]
            assert np.array_equal(got, _reference_mesh(centers))

    @pytest.mark.parametrize("s", [None, 1, 3])
    @pytest.mark.parametrize("g", MESH_GRIDS, ids=["1d", "2d", "3d"])
    def test_row_ranges_equal_slices_of_the_whole(self, g, s):
        """Rows lo .. hi - 1, built alone: within one row of axis 0, across
        rows, whole rows, empty and the whole mesh; and the trapezoid
        weights of a field's grid points likewise."""
        axes = _node_axes(g, s)
        whole = _mesh_points(axes)
        weights = np.array([1.0])        # the outer product, axis by axis
        for n, dx in zip(g.shape, g.spacing):
            wi = np.full(n, dx)
            wi[[0, -1]] *= 0.5
            weights = np.multiply.outer(weights, wi)
        weights = weights.ravel()
        assert g.trapezoid_weights().ravel().tobytes() == weights.tobytes()
        n, inner = len(whole), len(whole) // len(axes[0])
        rng = np.random.default_rng(1)
        cuts = [(0, n), (0, 0), (n, n), (1, 2), (inner - 1, inner + 1),
                (inner, 3 * inner), (inner + 1, n - 1), (n - 1, n),
                *(sorted(rng.integers(0, n + 1, 2)) for _ in range(40))]
        for lo, hi in cuts:
            rows = _mesh_rows(axes, lo, hi)
            assert rows.shape == (hi - lo, g.ndim) and rows.flags.c_contiguous
            assert rows.tobytes() == whole[lo:hi].tobytes()
            if s is None:
                assert (_trapezoid_rows(g, lo, hi).tobytes()
                        == weights[lo:hi].tobytes())

    @pytest.mark.parametrize("s", [0, -1])
    def test_subdivision_below_one_rejected(self, s):
        with pytest.raises(GridError):
            MESH_GRIDS[1].cell_centers(s)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_no_mesh_copies(self, s):
        g = make_grid(2, [(-6, 6, 400), (-5, 5, 301)])
        tracemalloc.start()
        try:
            pts = g.cell_centers(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pts.nbytes > 1 << 20
        assert peak <= 1.25 * pts.nbytes


def _reference_pdf(ph, pts):
    """Mixture density from the precision matrix and determinant."""
    out = np.zeros(len(pts))
    for w, m, c in zip(ph.weights, ph.means, ph.covariances):
        c = np.asarray(c)
        d = pts - np.asarray(m)
        quad = np.einsum("ni,ij,nj->n", d, np.linalg.inv(c), d)
        out += w * np.exp(-0.5 * quad) / math.sqrt(
            (2 * math.pi) ** len(m) * np.linalg.det(c))
    return out


def _peak(ph):
    """The largest density at any component mean: the scale of the bound."""
    return float(_reference_pdf(ph, np.array(ph.means)).max())


PDF_CASES = [
    gaussian([0.4], [[2.5]]),
    gaussian([0.3, -0.2], [[1.2, 0.4], [0.4, 0.8]]),
    # strongly correlated: |L10| > |L00|, where LU with pivoting swaps rows
    gaussian([0.0, 1.0], [[0.04, 0.19], [0.19, 1.0]]),
    gaussian([0.1, -0.3, 0.2], [[1.0, 0.3, -0.2], [0.3, 0.6, 0.1],
                                [-0.2, 0.1, 0.9]]),
    GaussianMixture(weights=(0.3, 0.7), means=((1.0, 0.5), (-1.0, 0.0)),
                    covariances=(((1.0, 0.2), (0.2, 0.5)),
                                 ((0.7, -0.3), (-0.3, 1.5)))),
]


class TestGaussianPdf:
    """The pdf's forward substitution against an independent evaluation,
    within 1e-14 of the peak density."""

    @pytest.mark.parametrize("ph", PDF_CASES,
                             ids=["1d", "2d", "2d-correlated", "3d", "mixture"])
    def test_matches_precision_matrix_reference(self, ph):
        rng = np.random.default_rng(11)
        spread = np.sqrt(np.max(np.diag(np.asarray(ph.covariances[0]))))
        pts = np.asarray(ph.means[0]) + rng.normal(
            scale=2.0 * spread, size=(4000, ph.ndim))
        got = ph.pdf(pts)
        assert np.abs(got - _reference_pdf(ph, pts)).max() <= 1e-14 * _peak(ph)

    @settings(max_examples=150, deadline=None)
    @given(nd=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-2, 1e2), correlated=st.booleans())
    def test_random_spd_covariances(self, nd, seed, scale, correlated):
        rng = np.random.default_rng(seed)
        # eigenvalues within a factor 25: rounding in L^-1 (q - m) grows
        # with the condition number, for LAPACK's solve as for this one
        # (both reach about 1e-14 of the peak near condition 200)
        rot, _ = np.linalg.qr(rng.normal(size=(nd, nd)))
        cov = scale * (rot * rng.uniform(0.2, 5.0, size=nd)) @ rot.T
        if correlated and nd > 1:
            # correlation 0.75 and a 4x larger second variance: the factor
            # has |L10| > |L00|, where LU with partial pivoting swaps rows
            cov[:2, :2] = scale * np.array([[1.0, 1.5], [1.5, 4.0]])
            cov[2:, :2] = 0.0
            cov[:2, 2:] = 0.0
        cov = (cov + cov.T) / 2
        ph = gaussian(rng.normal(size=nd), cov)
        L = ph._chols[0]
        if correlated and nd > 1:
            assert abs(L[1, 0]) > abs(L[0, 0])
        assert np.allclose(L, np.linalg.cholesky(cov), rtol=1e-14,
                           atol=1e-14 * math.sqrt(np.abs(cov).max()))
        pts = np.asarray(ph.means[0]) + rng.normal(
            scale=3.0 * math.sqrt(scale), size=(500, nd))
        got = ph.pdf(pts)
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
        assert np.abs(got - _reference_pdf(ph, pts)).max() <= 1e-14 * _peak(ph)

    def test_no_linalg_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg called")

        for name in ("solve", "inv", "cholesky"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for ph in (gaussian([0.3, -0.2], [[1.2, 0.4], [0.4, 0.8]]),
                   gaussian([0.1, -0.3, 0.2], [[1.0, 0.3, -0.2], [0.3, 0.6, 0.1],
                                               [-0.2, 0.1, 0.9]])):
            pts = np.random.default_rng(2).normal(size=(100, ph.ndim))
            assert np.all(ph.pdf(pts) > 0.0)


class TestPhantoms:
    def test_standard_gaussian_at_origin(self):
        ph = standard_gaussian(2)
        assert ph.pdf([[0.0, 0.0]])[0] == pytest.approx(1 / (2 * math.pi))

    def test_uniform_ball_values(self):
        ph = UniformBall(center=(0.0, 0.0), radius=1.0)
        vals = ph.pdf([[0.5, 0.0], [2.0, 0.0]])
        assert vals[0] == pytest.approx(1 / math.pi)
        assert vals[1] == 0.0

    def test_mixture_value(self):
        ph = GaussianMixture(weights=(0.5, 0.5),
                             means=((2.0, 0.0), (-2.0, 0.0)),
                             covariances=(((1, 0), (0, 1)), ((1, 0), (0, 1))))
        # direct evaluation of the mixture formula at (2, 0)
        expect = 0.5 / (2 * math.pi) * (1 + math.exp(-8))
        assert ph.pdf([[2.0, 0.0]])[0] == pytest.approx(expect, rel=1e-9)
        assert expect == pytest.approx(0.079604, abs=1e-6)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GaussianMixture(weights=(0.5, 0.4), means=((0.0,), (1.0,)),
                            covariances=(((1.0,),), ((1.0,),)))

    def test_zero_dimensional_component_rejected(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            gaussian([], np.zeros((0, 0)))

    def test_covariance_must_be_spd(self):
        with pytest.raises(ValueError):
            gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(scale=4.0, size=(500, 2))
        for ph in (standard_gaussian(2),
                   UniformBall(center=(0.5, -0.5), radius=1.5),
                   UniformBox(lo=(-1.0, -2.0), hi=(2.0, 1.0))):
            assert np.all(ph.pdf(pts) >= 0.0)

    @pytest.mark.parametrize("make", [
        lambda: gaussian([0.0, 0.0], [[math.inf, 0.0], [0.0, 1.0]]),
        lambda: gaussian([0.0, math.nan], np.eye(2)),
        lambda: GaussianMixture(weights=(math.nan, 1.0),
                                means=((0.0,), (1.0,)),
                                covariances=(((1.0,),), ((1.0,),))),
        lambda: UniformBall(center=(0.0, 0.0), radius=math.inf),
        lambda: UniformBall(center=(0.0, math.nan), radius=1.0),
        lambda: UniformBox(lo=(-math.inf, 0.0), hi=(1.0, 1.0)),
        lambda: UniformBox(lo=(0.0, 0.0), hi=(1.0, math.nan)),
    ], ids=["gaussian-inf-cov", "gaussian-nan-mean", "mixture-nan-weight",
            "ball-inf-radius", "ball-nan-center", "box-inf-corner",
            "box-nan-corner"])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_box_corner_ordering(self):
        with pytest.raises(ValueError):
            UniformBox(lo=(0.0, 0.0), hi=(1.0, -1.0))

    def test_dimension_mismatch(self):
        ph = standard_gaussian(2)
        g = make_grid(1, [(-1, 1, 8)])
        with pytest.raises(DimensionMismatchError):
            sample_phantom(ph, g)


class TestSampleAndMass:
    def test_gaussian_mass(self):
        g = make_grid(2, [(-6, 6, 256), (-6, 6, 256)])
        f = sample_phantom(standard_gaussian(2), g)
        assert total_mass(f) == pytest.approx(1.0, abs=1e-6)
        assert np.all(f.values >= 0.0)

    def test_zero_field(self):
        g = make_grid(2, [(-1, 1, 16), (-1, 1, 16)])
        assert total_mass(ScalarField(g, np.zeros(g.size))) == 0.0

    def test_box_matching_domain(self):
        g = make_grid(2, [(-1, 1, 64), (-1, 1, 64)])
        f = sample_phantom(UniformBox(lo=(-1, -1), hi=(1, 1)), g)
        assert total_mass(f) == pytest.approx(1.0, abs=1e-2)

    def test_ball_mass(self):
        g = make_grid(2, [(-2, 2, 321), (-2, 2, 321)])
        f = sample_phantom(UniformBall(center=(0, 0), radius=1.0), g)
        assert total_mass(f) == pytest.approx(1.0, abs=1e-2)

    def test_field_rejects_nan(self):
        g = make_grid(1, [(0, 1, 4)])
        with pytest.raises(ValueError):
            ScalarField(g, [0.0, math.nan, 0.0, 0.0])

    def test_field_rejects_wrong_size(self):
        g = make_grid(1, [(0, 1, 4)])
        with pytest.raises(DimensionMismatchError):
            ScalarField(g, [1.0, 2.0])


class TestL2RelError:
    def _fields(self):
        g = make_grid(2, [(-3, 3, 32), (-3, 3, 32)])
        b = sample_phantom(standard_gaussian(2), g)
        return g, b

    def test_identical(self):
        _, b = self._fields()
        assert l2_rel_error(b, b) == 0.0

    def test_scaling(self):
        g, b = self._fields()
        a = ScalarField(g, 1.1 * b.values)
        assert l2_rel_error(a, b) == pytest.approx(0.1, rel=1e-9)

    def test_zero_against_nonzero(self):
        g, b = self._fields()
        zero = ScalarField(g, np.zeros(g.size))
        assert l2_rel_error(zero, b) == pytest.approx(1.0)
        assert l2_rel_error(b, zero) == math.inf
        assert l2_rel_error(zero, zero) == 0.0

    def test_scale_invariance(self):
        g, b = self._fields()
        a = ScalarField(g, b.values + 0.01)
        r1 = l2_rel_error(a, b)
        a2 = ScalarField(g, 7.0 * a.values)
        b2 = ScalarField(g, 7.0 * b.values)
        assert l2_rel_error(a2, b2) == pytest.approx(r1, rel=1e-12)

    def test_grid_mismatch(self):
        _, b = self._fields()
        other = sample_phantom(standard_gaussian(2),
                               make_grid(2, [(-3, 3, 16), (-3, 3, 16)]))
        with pytest.raises(DimensionMismatchError):
            l2_rel_error(b, other)

    def test_mask_restricts_norm(self):
        g, b = self._fields()
        a_vals = np.array(b.values)
        a_vals[0, 0] += 100.0
        a = ScalarField(g, a_vals)
        mask = np.ones(g.shape, dtype=bool)
        mask[0, 0] = False
        assert l2_rel_error(a, b, mask=mask) == pytest.approx(0.0, abs=1e-12)


class TestTomogramFamily:
    def test_shape_validation(self):
        xg = make_grid(1, [(0, 1, 5)])
        pg = make_grid(1, [(0, 1, 3)])
        with pytest.raises(DimensionMismatchError):
            TomogramFamily(x_grid=xg, param_grid=pg, values=np.zeros((2, 5)),
                           family_tag="hyperplane")

    def test_x_grid_must_be_1d(self):
        g2 = make_grid(2, [(0, 1, 3), (0, 1, 3)])
        pg = make_grid(1, [(0, 1, 3)])
        with pytest.raises(GridError):
            TomogramFamily(x_grid=g2, param_grid=pg, values=np.zeros((3, 9)),
                           family_tag="hyperplane")

    def test_needs_a_box_or_points(self):
        xg = make_grid(1, [(0, 1, 5)])
        with pytest.raises(GridError):
            TomogramFamily(x_grid=xg, values=np.zeros((2, 5)),
                           family_tag="hyperplane")

    def test_points_must_match_the_box(self):
        xg = make_grid(1, [(0, 1, 5)])
        pg = make_grid(1, [(0, 1, 3)])
        with pytest.raises(DimensionMismatchError):
            TomogramFamily(x_grid=xg, param_grid=pg,
                           param_points=np.zeros((2, 1)),
                           values=np.zeros((2, 5)), family_tag="hyperplane")

    def test_points_must_equal_the_box(self):
        """Points of the box's shape but not its values are refused, so the
        GTM-T file (the box) and the CSV export (the points) agree."""
        xg = make_grid(1, [(0, 1, 5)])
        pg = make_grid(1, [(0, 1, 2)])
        with pytest.raises(DimensionMismatchError, match="differ"):
            TomogramFamily(x_grid=xg, param_grid=pg,
                           param_points=[[5.0], [7.0]],
                           values=np.zeros((2, 5)), family_tag="hyperplane")
        t = TomogramFamily(x_grid=xg, param_grid=pg, values=np.zeros((2, 5)),
                           family_tag="hyperplane")
        t2 = replace(t, values=np.ones((2, 5)))
        assert np.array_equal(t2.param_points, pg.points())

    def test_points_default_to_the_box(self):
        xg = make_grid(1, [(0, 1, 5)])
        pg = make_grid(2, [(0, 1, 2), (0, 1, 3)])
        t = TomogramFamily(x_grid=xg, param_grid=pg, values=np.zeros((6, 5)),
                           family_tag="hyperplane")
        assert np.array_equal(t.param_points, pg.points())
        assert not t.param_points.flags.writeable
