import math

import numpy as np
import pytest

from gentomo.geometry import (CircleDescriptor, Deformed, HorizontalLine,
                              Hybrid, Hyperplane, HyperbolaDescriptor,
                              LevelFamily, LineDescriptor, Quadric,
                              QuadricClass, QuadricForm, QuadrantClass,
                              SingularPointError, VerticalLine,
                              axis_inversion, circle_descriptor,
                              circle_family, classify_quadric,
                              conformal_inversion, finite_difference_jacobian,
                              hyperbola_descriptor, hyperbola_family,
                              hyperboloid_family, hyperboloid_map,
                              identity_map, is_singular, jacobian_weight,
                              level_value)


class TestLevelValue:
    def test_hyperplane_dot(self):
        assert level_value(Hyperplane(2), (1, 2), (3, 4)) == pytest.approx(11.0)

    def test_conformal_inversion(self):
        fam = circle_family()
        # mu q / (q^2 + p^2) + nu p / (q^2 + p^2) at (1, 1) with (2, 0)
        assert level_value(fam, (1, 1), (2, 0)) == pytest.approx(1.0)

    def test_quadric_squared_distance(self):
        fam = Quadric(QuadricForm(np.eye(2)))
        assert level_value(fam, (1, 1), (0, 0)) == pytest.approx(2.0)

    def test_singular_point_rejected(self):
        with pytest.raises(SingularPointError):
            level_value(circle_family(), (0, 0), (1, 0))

    def test_dimension_mismatch(self):
        from gentomo.core import DimensionMismatchError
        with pytest.raises(DimensionMismatchError):
            level_value(Hyperplane(2), (1, 2, 3), (1, 0, 0))


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
        assert jacobian_weight(circle_family(), (1, 1)) == pytest.approx(0.25)

    def test_axis_inversion_value(self):
        assert jacobian_weight(hyperbola_family(), (2, 0.7)) == pytest.approx(0.25)

    def test_hyperboloid_value(self):
        fam = hyperboloid_family(2)
        assert jacobian_weight(fam, (2, 3, 0.1, -0.4)) == pytest.approx(6.0)

    def test_hyperplane_is_unit(self):
        assert jacobian_weight(Hyperplane(3), (1, 2, 3)) == 1.0

    def test_quadric_is_unit(self):
        fam = Quadric(QuadricForm(np.diag([1.0, 2.0])))
        assert jacobian_weight(fam, (0.3, -0.2)) == 1.0

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
        assert is_singular(circle_family(), (0, 0))
        assert not is_singular(circle_family(), (1e-9, 0))

    def test_axis_inversion_axis(self):
        assert is_singular(hyperbola_family(), (0, 5))
        assert not is_singular(hyperbola_family(), (0.1, 5))

    def test_hyperboloid_union_of_planes(self):
        fam = hyperboloid_family(2)
        assert is_singular(fam, (0.0, 1.0, 2.0, 3.0))
        assert is_singular(fam, (1.0, 0.0, 2.0, 3.0))
        assert not is_singular(fam, (1.0, 1.0, 0.0, 0.0))

    def test_hyperplane_never_singular(self):
        assert not is_singular(Hyperplane(2), (0, 0))

    def test_singular_distance(self):
        fam = circle_family()
        d = fam.singular_distance(np.array([[3.0, 4.0]]))
        assert d[0] == pytest.approx(5.0)
        fam = hyperbola_family()
        d = fam.singular_distance(np.array([[-0.25, 9.0]]))
        assert d[0] == pytest.approx(0.25)


class TestCircleDescriptor:
    def test_basic_circle(self):
        c = circle_descriptor(1.0, 2.0, 0.0)
        assert isinstance(c, CircleDescriptor)
        assert c.center == pytest.approx((1.0, 0.0))
        assert c.radius == pytest.approx(1.0)

    def test_degenerate_line(self):
        line = circle_descriptor(0.0, 1.0, 1.0)
        assert isinstance(line, LineDescriptor)
        assert line.normal == (1.0, 1.0)

    def test_negative_level(self):
        c = circle_descriptor(-1.0, 2.0, 0.0)
        assert c.center == pytest.approx((-1.0, 0.0))
        assert c.radius == pytest.approx(1.0)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            circle_descriptor(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("X,mu,nu", [(1.0, 2.0, 0.0), (-0.5, 1.0, 3.0),
                                         (2.0, -1.0, 1.5)])
    def test_circle_points_satisfy_level_equation(self, X, mu, nu):
        c = circle_descriptor(X, mu, nu)
        th = np.linspace(0, 2 * np.pi, 17)
        q = c.center[0] + c.radius * np.cos(th)
        p = c.center[1] + c.radius * np.sin(th)
        resid = X * (q**2 + p**2) - mu * q - nu * p
        assert np.abs(resid).max() < 1e-12 * max(1.0, abs(X))

    def test_circle_passes_through_origin(self):
        c = circle_descriptor(0.7, 1.0, -2.0)
        assert math.hypot(*c.center) == pytest.approx(c.radius)


class TestHyperbolaDescriptor:
    def test_generic(self):
        h = hyperbola_descriptor(2.0, 1.0, 1.0)
        assert isinstance(h, HyperbolaDescriptor)
        assert h.asymptote_p == pytest.approx(2.0)
        assert h.quadrant_class is QuadrantClass.SECOND_FOURTH

    def test_opposite_signs(self):
        h = hyperbola_descriptor(2.0, -1.0, 1.0)
        assert h.quadrant_class is QuadrantClass.FIRST_THIRD

    def test_horizontal_line(self):
        h = hyperbola_descriptor(1.0, 0.0, 2.0)
        assert isinstance(h, HorizontalLine)
        assert h.p == pytest.approx(0.5)

    def test_vertical_line(self):
        h = hyperbola_descriptor(1.0, 2.0, 0.0)
        assert isinstance(h, VerticalLine)
        assert h.q == pytest.approx(2.0)

    def test_empty_set(self):
        with pytest.raises(ValueError):
            hyperbola_descriptor(1.0, 0.0, 0.0)

    def test_fully_degenerate(self):
        with pytest.raises(ValueError):
            hyperbola_descriptor(0.0, 0.0, 0.0)

    def test_branch_location_matches_level_set(self):
        # points on the level set satisfy q p' = -mu/nu in the asymptote frame
        X, mu, nu = 2.0, 1.0, 1.0
        h = hyperbola_descriptor(X, mu, nu)
        for q in (0.5, -0.5, 2.0, -2.0):
            p = (X - mu / q) / nu
            assert q * (p - h.asymptote_p) == pytest.approx(-mu / nu)
            if h.quadrant_class is QuadrantClass.SECOND_FOURTH:
                assert q * (p - h.asymptote_p) < 0


class TestQuadricForm:
    def test_classification(self):
        assert classify_quadric(QuadricForm(np.diag([1.0, 1.0]))) \
            is QuadricClass.ELLIPTIC
        assert classify_quadric(QuadricForm(np.diag([1.0, -1.0]))) \
            is QuadricClass.HYPERBOLIC
        assert classify_quadric(
            QuadricForm(np.diag([1.0, 1.0, 0.0]), linear_axes=(2,))) \
            is QuadricClass.HYBRID

    def test_negative_definite_rejected(self):
        with pytest.raises(ValueError):
            classify_quadric(QuadricForm(np.diag([-1.0, -2.0])))

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
        assert classify_quadric(QuadricForm(rotated)) \
            is classify_quadric(QuadricForm(base))

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
    """The named constructors build (form, diffeo, tag) triples whose derived
    properties are those of the former per-family classes."""

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
        from gentomo.core import DimensionMismatchError
        with pytest.raises(DimensionMismatchError):
            LevelFamily(QuadricForm(np.eye(3)), conformal_inversion(),
                        tag="bad")

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
        g1 = family.level_values(pts, mu)
        g2 = family.level_values(pts, lam * mu)
        assert np.allclose(g2, lam * g1, rtol=1e-12, atol=1e-12)


class TestHyperboloidLevel:
    def test_r2n_level_expression(self):
        fam = hyperboloid_family(2)
        z = np.array([[1.0, 2.0, 0.5, -0.25]])  # (q1, q2, p1, p2)
        params = np.array([0.5, 1.0, 2.0, 3.0])  # (mu1, mu2, nu1, nu2)
        # mu . q + sum_j nu_j q_j p_j
        expect = 0.5 * 1 + 1.0 * 2 + 2.0 * (1.0 * 0.5) + 3.0 * (2.0 * -0.25)
        assert fam.level_values(z, params)[0] == pytest.approx(expect)
