import math
from dataclasses import replace

import numpy as np
import pytest

from gentomo.core import DimensionMismatchError, make_grid, standard_gaussian
from gentomo.forward import pullback_density
from gentomo.geometry import (Deformed, Diffeomorphism, Hybrid, Hyperplane,
                              LevelFamily, Quadric, QuadricForm,
                              axis_inversion, circle_family,
                              conformal_inversion, hyperbola_family,
                              hyperboloid_family, hyperboloid_map,
                              identity_map)
from gentomo.oracle import mc_tomogram


def _level(family, q, params) -> float:
    """g(q; params) at one point through the one level entry point."""
    return float(family.level_evaluator([q])([params])[0, 0])


def finite_difference_jacobian(map_fn, q, h: float = 1e-5) -> float:
    """Absolute determinant of the central-difference derivative of a map:
    the independent reference for the analytic Jacobian weights.  The step
    is relative to the coordinate magnitude."""
    q = np.asarray(q, dtype=float)
    n = q.size
    J = np.empty((n, n))
    for j in range(n):
        step = h * max(1.0, abs(q[j]))
        e = np.zeros(n)
        e[j] = step
        hi = map_fn((q + e)[None, :])[0]
        lo = map_fn((q - e)[None, :])[0]
        J[:, j] = (hi - lo) / (2 * step)
    return abs(float(np.linalg.det(J)))


class TestLevelValue:
    def test_hyperplane_dot(self):
        assert _level(Hyperplane(2), (1, 2), (3, 4)) == pytest.approx(11.0)

    def test_conformal_inversion(self):
        fam = circle_family()
        # mu q / (q^2 + p^2) + nu p / (q^2 + p^2) at (1, 1) with (2, 0)
        assert _level(fam, (1, 1), (2, 0)) == pytest.approx(1.0)

    def test_quadric_squared_distance(self):
        fam = Quadric(QuadricForm(np.eye(2)))
        assert _level(fam, (1, 1), (0, 0)) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            _level(Hyperplane(2), (1, 2, 3), (1, 0, 0))

    @pytest.mark.parametrize("evaluate", [
        pytest.param(lambda: Hyperplane(2).level_evaluator(np.ones((4, 2)))(
            np.ones((1, 3))), id="3-d-block-on-2-d-family"),
        pytest.param(lambda: Hyperplane(2).level_evaluator(np.ones((4, 2)))(
            np.ones((1, 1))), id="1-d-block-on-2-d-family"),
        pytest.param(lambda: Hyperplane(2).level_evaluator(np.ones((4, 2)))(
            np.ones(2)), id="block-not-a-matrix"),
        pytest.param(lambda: Quadric(QuadricForm(np.eye(2))).level_evaluator(
            np.ones((4, 2)))(np.ones((1, 3))), id="3-d-block-on-quadric"),
        pytest.param(lambda: Hyperplane(2).level_evaluator(np.ones((4, 3))),
                     id="3-d-points-on-2-d-family"),
        pytest.param(lambda: circle_family().level_evaluator(np.ones(2)),
                     id="points-not-a-matrix"),
        pytest.param(lambda: mc_tomogram(
            standard_gaussian(2), Hyperplane(2), (1.0, 0.0, 0.0),
            make_grid(1, [(-3, 3, 7)]), 100, seed=0),
            id="mc-tomogram-3-d-params-on-2-d-family"),
    ])
    def test_every_shape_is_checked(self, evaluate):
        with pytest.raises(DimensionMismatchError):
            evaluate()


class TestHoistedTerms:
    def test_terms_keep_axis_order(self):
        # a linear axis before the core: M is the parameter block itself and
        # L's linear column is the point's own coordinate
        fam = Hybrid(QuadricForm(np.diag([0.0, 1.5]), linear_axes=(0,)))
        rng = np.random.default_rng(0)
        p, mu = rng.normal(size=(5, 2)), rng.normal(size=(4, 2))
        assert np.array_equal(fam.param_terms(mu)[0], mu)
        assert np.array_equal(fam.level_terms(p)[0][:, 0], p[:, 0])


class TestJacobianWeight:
    def test_conformal_inversion_value(self):
        w = circle_family().jacobian_weights(np.array([[1.0, 1.0]]))
        assert w[0] == pytest.approx(0.25)

    def test_axis_inversion_value(self):
        w = hyperbola_family().jacobian_weights(np.array([[2.0, 0.7]]))
        assert w[0] == pytest.approx(0.25)

    def test_hyperboloid_value(self):
        fam = hyperboloid_family(2)
        w = fam.jacobian_weights(np.array([[2.0, 3.0, 0.1, -0.4]]))
        assert w[0] == pytest.approx(6.0)

    def test_hyperplane_is_unit(self):
        assert Hyperplane(3).jacobian_weights(np.array([[1.0, 2.0, 3.0]]))[0] \
            == 1.0

    def test_quadric_is_unit(self):
        fam = Quadric(QuadricForm(np.diag([1.0, 2.0])))
        assert fam.jacobian_weights(np.array([[0.3, -0.2]]))[0] == 1.0

    @pytest.mark.parametrize("diffeo,point", [
        (conformal_inversion(), (0.7, -0.4)),
        (conformal_inversion(), (1.5, 2.0)),
        (axis_inversion(), (0.8, 1.2)),
        (axis_inversion(), (-2.5, 0.3)),
        (hyperboloid_map(1), (1.3, -0.9)),
        (hyperboloid_map(2), (0.6, -1.1, 0.4, 2.0)),
        (identity_map(3), (1.0, 2.0, 3.0)),
    ])
    def test_matches_finite_differences(self, diffeo, point):
        h = 1e-5
        analytic = diffeo.jacobian_fn(np.atleast_2d(np.asarray(point, float)))[0]
        numeric = finite_difference_jacobian(diffeo.map_fn, point, h=h)
        assert numeric == pytest.approx(analytic, rel=10 * h)


class TestSingularSets:
    def test_conformal_origin(self):
        # (1e-170, 0) squares to a zero radius: at distance 0, and undefined
        mask = circle_family().singular_mask(np.array([[0.0, 0.0],
                                                       [1e-9, 0.0],
                                                       [1e-170, 0.0]]))
        assert mask.tolist() == [True, False, True]

    def test_axis_inversion_axis(self):
        mask = hyperbola_family().singular_mask(np.array([[0.0, 5.0],
                                                          [0.1, 5.0]]))
        assert mask.tolist() == [True, False]

    def test_hyperboloid_union_of_planes(self):
        fam = hyperboloid_family(2)
        mask = fam.singular_mask(np.array([[0.0, 1.0, 2.0, 3.0],
                                           [1.0, 0.0, 2.0, 3.0],
                                           [1.0, 1.0, 0.0, 0.0]]))
        assert mask.tolist() == [True, True, False]

    def test_hyperplane_never_singular(self):
        assert not Hyperplane(2).singular_mask(np.array([[0.0, 0.0]]))[0]

    def test_one_rule_for_family_and_pullback(self, monkeypatch):
        """``LevelFamily.singular_mask`` and ``pullback_density`` both take
        the map's ``singular_mask``; an undeformed family asks no map."""
        calls = []
        rule = Diffeomorphism.singular_mask

        def spy(diffeo, points):
            calls.append(diffeo.name)
            return rule(diffeo, points)

        monkeypatch.setattr(Diffeomorphism, "singular_mask", spy)
        pts = np.array([[0.0, 0.0], [1.0, 2.0]])
        assert circle_family().singular_mask(pts).tolist() == [True, False]
        f = pullback_density(standard_gaussian(2), conformal_inversion(),
                             make_grid(2, [(-1, 1, 3)] * 2))
        assert f.values[1, 1] == 0.0
        assert not Deformed(identity_map(2)).singular_mask(pts).any()
        assert calls == ["conformal_inversion"] * 2

    def test_singular_distance(self):
        fam = circle_family()
        d = fam.singular_distance(np.array([[3.0, 4.0]]))
        assert d[0] == pytest.approx(5.0)
        fam = hyperbola_family()
        d = fam.singular_distance(np.array([[-0.25, 9.0]]))
        assert d[0] == pytest.approx(0.25)


class TestPlaneFamilyLevelSets:
    """The level sets of the deformed plane families are the curves the
    paper names."""

    @pytest.mark.parametrize("X,mu,nu", [(1.0, 2.0, 0.0), (-0.5, 1.0, 3.0),
                                         (2.0, -1.0, 1.5), (0.7, 1.0, -2.0)])
    def test_circle_level_set_is_a_circle_through_the_origin(self, X, mu, nu):
        # X on the circle centred at (mu, nu) / (2X) through the origin
        cx, cy = mu / (2 * X), nu / (2 * X)
        r = math.hypot(cx, cy)
        # angles from the centre, leaving out the origin at atan2(-cy, -cx)
        th = math.atan2(-cy, -cx) + np.linspace(0.1, 2 * np.pi - 0.1, 17)
        pts = np.stack([cx + r * np.cos(th), cy + r * np.sin(th)], axis=1)
        g = circle_family().level_evaluator(pts)([(mu, nu)])[:, 0]
        assert np.allclose(g, X, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("X,mu,nu", [(2.0, 1.0, 1.0), (2.0, -1.0, 1.0),
                                         (1.0, 0.0, 2.0), (-0.5, 3.0, -1.5)])
    def test_hyperbola_level_set(self, X, mu, nu):
        # X at (q, (X - mu/q) / nu) for every q off the axis q = 0
        q = np.array([0.5, -0.5, 2.0, -2.0, 7.0])
        pts = np.stack([q, (X - mu / q) / nu], axis=1)
        g = hyperbola_family().level_evaluator(pts)([(mu, nu)])[:, 0]
        assert np.allclose(g, X, rtol=1e-12, atol=1e-12)


class TestQuadricForm:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            QuadricForm([[1.0, 0.5], [0.0, 1.0]])

    def test_signature(self):
        form = QuadricForm(np.diag([3.0, -2.0, 0.0]), linear_axes=(2,))
        assert form.signature == (1, 1, 1)

    def test_signature_orthogonal_invariance(self):
        rng = np.random.default_rng(11)
        base = np.diag([2.0, -1.0, 0.5])
        qmat, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = qmat @ base @ qmat.T
        assert QuadricForm(rotated).signature == QuadricForm(base).signature

    def test_linear_axes_must_decouple(self):
        B = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.0]])
        with pytest.raises(ValueError):
            QuadricForm(B, linear_axes=(2,))

    def test_core_determinant(self):
        form = QuadricForm(np.diag([2.0, 3.0, 0.0]), linear_axes=(2,))
        assert form.core_determinant == pytest.approx(6.0)

    def test_all_linear_form_has_empty_core(self):
        form = QuadricForm(np.zeros((2, 2)), linear_axes=(0, 1))
        assert form.B_core.shape == (0, 0)
        assert form.core_determinant == 1.0

    def test_hybrid_needs_a_quadric_core(self):
        with pytest.raises(ValueError, match="no quadric core"):
            Hybrid(QuadricForm(np.zeros((2, 2)), linear_axes=(0, 1)))

    def test_quadric_family_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Quadric(QuadricForm(np.diag([1.0, 0.0])))


class TestNamedFamilies:
    """The named constructors build (form, diffeo) pairs whose derived
    properties, the tag included, are those of the former per-family
    classes; a family built from any other pair gets its tag by the same
    rule."""

    @pytest.mark.parametrize("make,cls,ndim,linear,tag,diffeo", [
        (lambda: Hyperplane(3), Hyperplane, 3, True, "hyperplane", None),
        (circle_family, Deformed, 2, True, "circle", "conformal_inversion"),
        (hyperbola_family, Deformed, 2, True, "hyperbola", "axis_inversion"),
        (lambda: hyperboloid_family(2), Deformed, 4, True, "hyperboloid",
         "hyperboloid_map"),
        (lambda: Quadric(QuadricForm(np.eye(2))), Quadric, 2, False,
         "quadric", None),
        (lambda: Hybrid(QuadricForm(np.diag([1.0, 2.0, 0.0]),
                                    linear_axes=(2,))),
         Hybrid, 3, False, "hybrid", None),
        (lambda: LevelFamily(QuadricForm(np.diag([1.0, 2.5])),
                             conformal_inversion()),
         LevelFamily, 2, False, "deformed", "conformal_inversion"),
        pytest.param(lambda: Deformed(identity_map(2)), Deformed, 2, True,
                     "hyperplane", None,
                     id="<lambda>-Deformed-2-True-hyperplane-identity"),
        (lambda: Deformed(replace(axis_inversion(), name="shear")), Deformed,
         2, True, "deformed", "shear"),
    ])
    def test_derived_properties(self, make, cls, ndim, linear, tag, diffeo):
        fam = make()
        assert isinstance(fam, LevelFamily) and type(fam) is cls
        assert fam.ndim == ndim
        assert fam.form.ndim == ndim
        assert fam.linear_in_params is linear
        assert fam.tag == tag
        assert (fam.diffeo and fam.diffeo.name) == diffeo
        assert isinstance(fam, Deformed) is (cls is Deformed)

    @pytest.mark.parametrize("make,message", [
        (lambda: Quadric(QuadricForm(np.diag([1.0, 0.0]))),
         "B is degenerate; declare linear_axes and use the hybrid family"),
        (lambda: Hybrid(QuadricForm(np.diag([1.0, 2.0]))),
         "hybrid family requires a declared linear_axes split"),
        (lambda: Hybrid(QuadricForm(np.zeros((2, 2)), linear_axes=(0, 1))),
         "hybrid form has no quadric core: every axis is declared linear; "
         "use the hyperplane family"),
        (lambda: Hyperplane(0), "B must be a non-empty square matrix"),
    ])
    def test_constructor_errors(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    def test_diffeo_must_match_the_form(self):
        with pytest.raises(DimensionMismatchError):
            LevelFamily(QuadricForm(np.eye(3)), conformal_inversion())

    def test_equal_hyperplanes_compare_equal(self):
        assert Hyperplane(2) == Hyperplane(2)
        assert Hyperplane(2) != Hyperplane(3)


class TestLevelSetHomogeneity:
    @pytest.mark.parametrize("family", [Hyperplane(2), circle_family(),
                                        hyperbola_family()])
    @pytest.mark.parametrize("lam", [2.0, -1.0, 0.5])
    def test_scaled_parameters_describe_same_set(self, family, lam):
        # membership: g(q; mu) = X  <=>  g(q; lam mu) = lam X
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(64, 2)) + 0.1
        mu = np.array([0.8, -0.45])
        g1, g2 = family.level_evaluator(pts)(np.stack([mu, lam * mu])).T
        assert np.allclose(g2, lam * g1, rtol=1e-12, atol=1e-12)


class TestHyperboloidLevel:
    def test_r2n_level_expression(self):
        fam = hyperboloid_family(2)
        z = np.array([[1.0, 2.0, 0.5, -0.25]])  # (q1, q2, p1, p2)
        params = np.array([0.5, 1.0, 2.0, 3.0])  # (mu1, mu2, nu1, nu2)
        # mu . q + sum_j nu_j q_j p_j
        expect = 0.5 * 1 + 1.0 * 2 + 2.0 * (1.0 * 0.5) + 3.0 * (2.0 * -0.25)
        assert fam.level_evaluator(z)(params[None])[0, 0] \
            == pytest.approx(expect)
