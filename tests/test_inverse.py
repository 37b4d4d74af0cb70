import math
import threading
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from gentomo.core import (GaussianMixture, TomogramFamily, l2_rel_error,
                          make_grid, sample_phantom, standard_gaussian)
from gentomo.forward import forward_binned, normalization_profile
from gentomo.geometry import (Deformed, Hybrid, Hyperplane, LevelFamily,
                              Quadric, QuadricForm, circle_family,
                              conformal_inversion, hyperbola_family,
                              hyperboloid_family, identity_map)
from gentomo import forward, inverse
from gentomo.inverse import (CharacteristicSlice, _direct_sum,
                             characteristic_slice, invert_for_family,
                             roundtrip)


def _tomogram_from_function(fn, x_grid, param_grid, tag="hyperplane"):
    xs = x_grid.axis_points(0)
    vals = np.stack([fn(xs, p) for p in param_grid.points()])
    return TomogramFamily(x_grid=x_grid, param_grid=param_grid, values=vals,
                          family_tag=tag)


def _slice_from_values(param_grid, values, tag="hyperplane"):
    return CharacteristicSlice(param_grid=param_grid,
                               values=np.asarray(values, dtype=complex),
                               family_tag=tag)


def _without_tail(t):
    """t with its 25 outermost bins at each end zeroed: the slice's endpoint
    fits (at most 25 bins) then read zero, so no tail term is added."""
    values = t.values.copy()
    values[:, :25] = values[:, -25:] = 0.0
    return replace(t, values=values)


def _pointwise_sum(coef, phase_lhs, param_grid):
    """Brute-force reference for the kernel sum: form and exponentiate the
    full out x parameter phase matrix, one block of out points at a time."""
    mu = param_grid.points()
    out = np.empty(len(phase_lhs), dtype=complex)
    for s in range(0, len(phase_lhs), 512):
        block = phase_lhs[s:s + 512] @ mu.T
        out[s:s + 512] = np.exp(1j * block) @ coef
    return out


def _assert_close_to_peak(got, ref, rtol=1e-12):
    """Agreement relative to the largest reference magnitude (element-wise
    relative error is meaningless where the sum cancels to near zero)."""
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


def _random_coef(pg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=pg.size) + 1j * rng.normal(size=pg.size)


def _hybrid_case():
    """A 3-d hybrid with a general (non-diagonal) core: family, parameter
    box, out grid."""
    B = np.zeros((3, 3))
    B[:2, :2] = [[1.0, 0.3], [0.3, 2.0]]
    pg = make_grid(3, [(-2, 2, 6), (-1.5, 2.5, 5), (-3, 1, 4)])
    out = make_grid(3, [(-1, 1, 9), (-1, 1, 8), (-1, 1, 10)])
    return Hybrid(QuadricForm(B, linear_axes=(2,))), pg, out


class TestDirectSum:
    """The per-axis factored kernel sum against the point-wise reference."""

    def test_one_dimensional_box(self):
        pg = make_grid(1, [(-3, 2, 41)])
        lhs = np.random.default_rng(1).normal(scale=3.0, size=(700, 1))
        coef = _random_coef(pg)
        _assert_close_to_peak(_direct_sum(coef, lhs, pg),
                              _pointwise_sum(coef, lhs, pg))

    def test_non_square_box_keeps_axis_order(self):
        # unequal ranges and counts: a swapped or transposed axis shows
        pg = make_grid(2, [(-2, 3, 7), (-1, 1, 5)])
        lhs = np.random.default_rng(2).normal(scale=2.0, size=(1100, 2))
        coef = _random_coef(pg)
        _assert_close_to_peak(_direct_sum(coef, lhs, pg),
                              _pointwise_sum(coef, lhs, pg))

    def test_hybrid_general_split_three_dimensional(self, monkeypatch):
        family, pg, out = _hybrid_case()
        slc = _slice_from_values(pg, _random_coef(pg, seed=3), tag="hybrid")
        field, diag = invert_for_family(slc, family, out)
        monkeypatch.setattr(inverse, "_direct_sum", _pointwise_sum)
        ref, ref_diag = invert_for_family(slc, family, out)
        _assert_close_to_peak(field.values, ref.values)
        assert diag.imag_ratio == pytest.approx(ref_diag.imag_ratio, rel=1e-9)

    def test_deformed_with_singular_origin(self, monkeypatch):
        pg = make_grid(2, [(-5, 5, 32), (-4, 4, 27)])
        slc = _slice_from_values(pg, _random_coef(pg, seed=4), tag="circle")
        out = make_grid(2, [(-2, 2, 41), (-2, 2, 41)])  # holds the origin
        field, diag = invert_for_family(slc, circle_family(), out)
        monkeypatch.setattr(inverse, "_direct_sum", _pointwise_sum)
        ref, ref_diag = invert_for_family(slc, circle_family(), out)
        assert field.values[20, 20] == 0.0
        assert diag.singular_fraction == 1 / 41**2
        assert ref_diag.singular_fraction == diag.singular_fraction
        _assert_close_to_peak(field.values, ref.values)

    def test_matches_thirty_digit_reference(self):
        """Within 1e-13 of the peak of the sum evaluated at 30 digits."""
        pg = make_grid(2, [(-5, 4, 12), (-3, 5, 9)])
        rng = np.random.default_rng(5)
        lhs = rng.uniform(-20.0, 20.0, size=(50, 2))
        coef = _random_coef(pg, seed=6)
        with mpmath.workdps(30):
            mu = [[mpmath.mpf(v) for v in m] for m in pg.points()]
            ref = np.array([complex(mpmath.fsum(
                mpmath.mpc(c.real, c.imag)
                * mpmath.expj(mpmath.mpf(l[0]) * m[0] + mpmath.mpf(l[1]) * m[1])
                for c, m in zip(coef, mu))) for l in lhs])
        _assert_close_to_peak(_direct_sum(coef, lhs, pg), ref, rtol=1e-13)

    def test_no_out_points_give_an_empty_sum(self):
        # every out point on the singular set leaves none to sum
        pg = make_grid(2, [(-2, 2, 5), (-1, 1, 4)])
        got = _direct_sum(_random_coef(pg), np.zeros((0, 2)), pg)
        assert got.shape == (0,) and got.dtype == complex


# family, parameter box, out grid: the circle's out grid holds the origin
# and ends in a ragged block (1681 = 3 x 512 + 145 points)
_THREAD_CASES = {
    "circle": (circle_family(), make_grid(2, [(-5, 5, 32), (-4, 4, 27)]),
               make_grid(2, [(-2, 2, 41), (-2, 2, 41)])),
    "quadric_general": (Quadric(QuadricForm([[1.0, 0.4], [0.4, 2.0]])),
                        make_grid(2, [(-5, 5, 32), (-4, 4, 27)]),
                        make_grid(2, [(-3, 3, 40), (-3, 3, 38)])),
    "hybrid_general": _hybrid_case(),
    # the deformed quadric: a(p), b(mu), J and the singular set together
    "circle_quadric": (
        LevelFamily(QuadricForm(np.diag([1.0, 2.5])), conformal_inversion()),
        make_grid(2, [(-5, 5, 32), (-4, 4, 27)]),
        make_grid(2, [(-2, 2, 41), (-2, 2, 41)])),
}


def _kernel_spy(used):
    """A ``_run_blocks`` that records the worker count of kernel sums."""
    def spy(new_worker, starts, workers):
        used.append(workers)
        return forward._run_blocks(new_worker, starts, workers)
    return spy


class TestDirectSumThreads:
    """The kernel sum's blocks on every worker: equal bytes for every
    ``GENTOMO_THREADS``, at most ``_MAX_WORKERS`` threads."""

    @pytest.mark.parametrize("case", list(_THREAD_CASES))
    def test_bytes_identical_for_every_thread_count(self, case, monkeypatch):
        family, pg, out = _THREAD_CASES[case]
        slc = _slice_from_values(pg, _random_coef(pg, seed=7),
                                 tag=family.tag)
        blocks = -(-out.size // inverse._OUT_CHUNK)
        used = []
        monkeypatch.setattr(inverse, "_run_blocks", _kernel_spy(used))
        outs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("GENTOMO_THREADS", threads)
            field, diag = invert_for_family(slc, family, out)
            outs.append((field.values.tobytes(), diag))
        assert used == [min(n, blocks) for n in (1, 2, 3)]
        assert outs[0] == outs[1] == outs[2]

    def test_block_error_reaches_caller(self, monkeypatch):
        # one column of out coordinates against a 2-d box: every block fails
        # to broadcast, in whichever thread runs it
        pg = make_grid(2, [(-2, 2, 5), (-1, 1, 4)])
        used = []
        monkeypatch.setattr(inverse, "_run_blocks", _kernel_spy(used))
        monkeypatch.setenv("GENTOMO_THREADS", "2")
        with pytest.raises(ValueError, match="broadcast"):
            _direct_sum(_random_coef(pg), np.zeros((1300, 1)), pg)
        assert used == [2]

    @pytest.mark.parametrize("n_out, blocks", [(39, 3), (100, 20)])
    def test_worker_cap(self, n_out, blocks, monkeypatch):
        """64 requested threads start min(blocks, _MAX_WORKERS) - 1 extra
        threads; a start past the cap is refused rather than run."""
        assert -(-n_out**2 // inverse._OUT_CHUNK) == blocks
        starts = []

        class Counting(threading.Thread):
            def start(self):
                starts.append(self)
                if len(starts) >= forward._MAX_WORKERS:
                    raise AssertionError("more threads than _MAX_WORKERS")
                super().start()

        monkeypatch.setattr(threading, "Thread", Counting)
        monkeypatch.setenv("GENTOMO_THREADS", "64")
        pg = make_grid(2, [(-5, 5, 16), (-5, 5, 16)])
        out = make_grid(2, [(-3, 3, n_out), (-3, 3, n_out)])
        family = _THREAD_CASES["quadric_general"][0]
        slc = _slice_from_values(pg, _random_coef(pg), tag=family.tag)
        invert_for_family(slc, family, out)
        assert len(starts) == min(blocks, forward._MAX_WORKERS) - 1


def _random_slice(pg, tag):
    rng = np.random.default_rng(2)
    vals = (rng.normal(size=pg.size) + 1j * rng.normal(size=pg.size)) \
        * np.exp(-np.sum(pg.points()**2, axis=1) / 2)
    return _slice_from_values(pg, vals, tag)


def _deformed_kernel(phi, jac, singular):
    """J(q) (2 pi)^{-n} e^{-i mu . phi(q)}, zero on the singular set."""
    def kernel(q, mu):
        if singular(q):
            return np.zeros(len(mu))
        return jac(q) / (2 * np.pi) ** len(q) * np.exp(-1j * (mu @ phi(q)))
    return kernel


def _quadric_kernel(B, linear=()):
    """|det B2| / pi^k (2 pi)^{-m} e^{-i [(q'-mu', B2 (q'-mu')) + mu_l . q_l]}."""
    B = np.asarray(B, dtype=float)
    lin = list(linear)
    core = [a for a in range(len(B)) if a not in lin]
    B2 = B[np.ix_(core, core)]
    scale = abs(np.linalg.det(B2)) / np.pi ** len(core) \
        / (2 * np.pi) ** len(lin)

    def kernel(q, mu):
        d = q[core] - mu[:, core]
        phase = np.sum((d @ B2) * d, axis=1) + mu[:, lin] @ q[lin]
        return scale * np.exp(-1j * phase)
    return kernel


def _pulled_back(kernel, phi, jac, singular):
    """kernel evaluated at phi(q), times J(q), zero on the singular set."""
    def pulled(q, mu):
        if singular(q):
            return np.zeros(len(mu))
        return jac(q) * kernel(phi(q), mu)
    return pulled


_B_HYBRID = np.zeros((3, 3))
_B_HYBRID[:2, :2] = [[1.0, 0.3], [0.3, 2.0]]
# 2-d boxes of unequal ranges and counts; the out grid holds the origin and
# both coordinate axes, where the deformed families are singular
_PG2 = make_grid(2, [(-3, 2.5, 9), (-2, 3, 8)])
_OUT2 = make_grid(2, [(-1, 1, 11), (-1.2, 1.2, 9)])
_PLANE_KERNEL = _deformed_kernel(lambda q: q, lambda q: 1.0, lambda q: False)
_ORACLE_CASES = {
    "hyperplane": (Hyperplane(2), _PG2, _OUT2, _PLANE_KERNEL),
    "hyperplane_1d": (Hyperplane(1), make_grid(1, [(-3, 2.5, 9)]),
                      make_grid(1, [(-1, 1, 11)]), _PLANE_KERNEL),
    "hyperplane_3d": (
        Hyperplane(3), make_grid(3, [(-2, 2, 6), (-1.5, 2.5, 5), (-3, 1, 4)]),
        make_grid(3, [(-1, 1, 4), (-1, 1, 3), (-1.2, 1.2, 5)]), _PLANE_KERNEL),
    "identity": (Deformed(identity_map(2)), _PG2, _OUT2, _PLANE_KERNEL),
    "circle": (circle_family(), _PG2, _OUT2, _deformed_kernel(
        lambda q: q / (q @ q), lambda q: 1.0 / (q @ q) ** 2,
        lambda q: not q.any())),
    "hyperbola": (hyperbola_family(), _PG2, _OUT2, _deformed_kernel(
        lambda q: np.array([1.0 / q[0], q[1]]), lambda q: 1.0 / q[0] ** 2,
        lambda q: q[0] == 0.0)),
    "hyperboloid": (hyperboloid_family(1), _PG2, _OUT2, _deformed_kernel(
        lambda q: np.array([q[0], q[0] * q[1]]), lambda q: abs(q[0]),
        lambda q: q[0] == 0.0)),
    "quadric_diagonal": (Quadric(QuadricForm(np.diag([1.0, 2.5]))), _PG2,
                         _OUT2, _quadric_kernel(np.diag([1.0, 2.5]))),
    "quadric_general": (Quadric(QuadricForm([[1.0, 0.4], [0.4, 2.0]])), _PG2,
                        _OUT2, _quadric_kernel([[1.0, 0.4], [0.4, 2.0]])),
    "quadric_indefinite": (Quadric(QuadricForm([[1.0, 0.2], [0.2, -1.5]])),
                           _PG2, _OUT2,
                           _quadric_kernel([[1.0, 0.2], [0.2, -1.5]])),
    "hybrid_diagonal": (
        Hybrid(QuadricForm(np.diag([1.0, 2.0, 0.0]), linear_axes=(2,))),
        make_grid(3, [(-2, 2, 7)] * 3), make_grid(3, [(-1, 1, 4)] * 3),
        _quadric_kernel(np.diag([1.0, 2.0, 0.0]), linear=(2,))),
    "hybrid_general": (
        Hybrid(QuadricForm(_B_HYBRID, linear_axes=(2,))),
        make_grid(3, [(-2, 2, 6)] * 3), make_grid(3, [(-1, 1, 3)] * 3),
        _quadric_kernel(_B_HYBRID, linear=(2,))),
    # the paper's deformed quadric: the B = diag(1, 2.5) ellipse family
    # under the conformal inversion
    "circle_quadric": (
        LevelFamily(QuadricForm(np.diag([1.0, 2.5])), conformal_inversion()),
        _PG2, _OUT2,
        _pulled_back(_quadric_kernel(np.diag([1.0, 2.5])),
                     lambda q: q / (q @ q), lambda q: 1.0 / (q @ q) ** 2,
                     lambda q: not q.any())),
}


class TestKernelOracle:
    """invert_for_family against the paper's kernel summed point by point."""

    @pytest.mark.parametrize("case", list(_ORACLE_CASES))
    def test_matches_pointwise_kernel(self, case):
        family, pg, out, kernel = _ORACLE_CASES[case]
        slc = _random_slice(pg, family.tag)
        field, diag = invert_for_family(slc, family, out)
        mu = pg.points()
        coef = slc.values * pg.trapezoid_weights().ravel()
        expect = np.array([kernel(q, mu) @ coef for q in out.points()])
        _assert_close_to_peak(field.values.ravel(), expect.real)
        assert diag.imag_ratio == pytest.approx(
            np.abs(expect.imag).max() / np.abs(expect.real).max(), rel=1e-9)


class TestStrategyRule:
    """One rule picks the kernel sum: undeformed (or the identity map) with
    an empty or diagonal core takes the separable sum, all else the direct
    sum."""

    _SEPARABLE = {"hyperplane", "hyperplane_1d", "hyperplane_3d", "identity",
                  "quadric_diagonal", "hybrid_diagonal"}

    @pytest.mark.parametrize("case", list(_ORACLE_CASES))
    def test_family_takes_its_sum(self, case, monkeypatch):
        family, pg, out, _ = _ORACLE_CASES[case]
        calls = []
        for name in ("_separable_sum", "_direct_sum"):
            def spy(*args, _name=name, _real=getattr(inverse, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(inverse, name, spy)
        invert_for_family(_random_slice(pg, family.tag), family, out)
        assert calls == ["_separable_sum" if case in self._SEPARABLE
                         else "_direct_sum"]


class TestFamilyTag:
    def test_slice_of_another_family_rejected(self):
        """A hyperplane slice under a quadric kernel inverts nothing: the
        error names both tags."""
        pg = make_grid(2, [(-3, 3, 9)] * 2)
        out = make_grid(2, [(-1, 1, 3)] * 2)
        with pytest.raises(ValueError, match="'hyperplane'.*'quadric'"):
            invert_for_family(_random_slice(pg, "hyperplane"),
                              Quadric(QuadricForm(np.eye(2))), out)
        with pytest.raises(ValueError, match="'quadric'.*'hyperplane'"):
            invert_for_family(_random_slice(pg, "quadric"), Hyperplane(2), out)


class TestTaper:
    def _slice(self):
        pg = make_grid(2, [(-3, 3, 9), (-3, 3, 9)])
        return _slice_from_values(pg, np.ones(pg.size))

    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan, math.inf,
                                       1e-200, 1e200])
    def test_bad_width_rejected(self, width):
        with pytest.raises(ValueError, match="taper width"):
            invert_for_family(self._slice(), Hyperplane(2),
                              make_grid(2, [(-1, 1, 3)] * 2), taper=width)

    @pytest.mark.parametrize("off", [None, False])
    def test_none_and_false_mean_off(self, off):
        out = make_grid(2, [(-1, 1, 3)] * 2)
        plain, _ = invert_for_family(self._slice(), Hyperplane(2), out)
        field, _ = invert_for_family(self._slice(), Hyperplane(2), out,
                                     taper=off)
        assert np.array_equal(field.values, plain.values)

    @staticmethod
    def _windowed_equals_tapered(pg, width, taper):
        """taper gives the bytes of the values pre-multiplied by
        exp(-|mu|^2 / (2 width^2)), and notes the width."""
        slc = _random_slice(pg, "hyperplane")
        mu = pg.points()
        window = np.exp(-np.sum(mu * mu, axis=1) / (2.0 * width**2))
        out = make_grid(2, [(-1, 1, 5)] * 2)
        field, diag = invert_for_family(slc, Hyperplane(2), out, taper=taper)
        ref, _ = invert_for_family(_slice_from_values(pg, slc.values * window),
                                   Hyperplane(2), out)
        assert field.values.tobytes() == ref.values.tobytes()
        assert f"taper width {width:g}" in diag.warnings

    def test_positive_width_damps_box_corners(self):
        self._windowed_equals_tapered(make_grid(2, [(-3, 3, 9)] * 2), 1.5, 1.5)

    def test_bare_taper_is_a_sixth_of_the_narrowest_side(self):
        pg = make_grid(2, [(-3, 3, 9), (-1.5, 1.5, 7)])
        self._windowed_equals_tapered(pg, 0.5, True)

    @pytest.mark.parametrize("taper, note", [(1.5, "taper width 1.5"),
                                             (True, "taper width 1")])
    def test_note_reaches_diagnostics(self, taper, note):
        out = make_grid(2, [(-1, 1, 3)] * 2)
        _, diag = invert_for_family(self._slice(), Hyperplane(2), out,
                                    taper=taper)
        assert note in diag.warnings

    def test_roundtrip_reports_each_warning_once(self):
        # the X window clips most of the mass, so the forward step warns
        rep = roundtrip(standard_gaussian(2), Hyperplane(2),
                        q_grid=make_grid(2, [(-4, 4, 32)] * 2),
                        x_grid=make_grid(1, [(-1, 1, 21)]),
                        param_grid=make_grid(2, [(-3, 3, 8)] * 2),
                        out_grid=make_grid(2, [(-1, 1, 5)] * 2), taper=1.5)
        assert any("overflow" in w for w in rep.warnings)
        assert "taper width 1.5" in rep.warnings
        assert len(set(rep.warnings)) == len(rep.warnings)


class TestDecayFloor:
    @pytest.mark.parametrize("floor", [math.nan, -1.0, -math.inf])
    def test_nan_or_negative_rejected(self, floor):
        pg = make_grid(2, [(-3, 3, 9), (-3, 3, 9)])
        slc = _slice_from_values(pg, np.ones(pg.size))
        with pytest.raises(ValueError, match="decay floor"):
            invert_for_family(slc, Hyperplane(2), make_grid(2, [(-1, 1, 3)] * 2),
                              decay_floor=floor)


class TestCharacteristicSlice:
    def test_standard_gaussian_value(self):
        xg = make_grid(1, [(-6, 6, 241)])
        pg = make_grid(1, [(-1, 1, 2)])
        t = _tomogram_from_function(
            lambda x, p: np.exp(-x**2 / 2) / math.sqrt(2 * math.pi), xg, pg)
        slc = characteristic_slice(t)
        assert slc.values[0] == pytest.approx(math.exp(-0.5), abs=1e-5)
        assert abs(slc.values[0].imag) < 1e-9

    def test_point_mass(self):
        xg = make_grid(1, [(-3, 3, 121)])
        pg = make_grid(1, [(-1, 1, 2)])
        vals = np.zeros((2, 121))
        k = 70  # X = 0.5
        dx = xg.spacing[0]
        vals[:, k] = 1.0 / dx
        t = TomogramFamily(x_grid=xg, param_grid=pg, values=vals,
                           family_tag="hyperplane")
        slc = characteristic_slice(t)
        x_k = xg.axis_points(0)[k]
        assert slc.values[0] == pytest.approx(np.exp(1j * x_k), abs=1e-9)

    def test_one_sided_exponential(self):
        xg = make_grid(1, [(-2, 60, 6201)])
        pg = make_grid(1, [(-1, 1, 2)])
        xs = xg.axis_points(0)
        vals = np.where(xs >= 0, 0.5 * np.exp(-np.clip(xs, 0, None) / 2), 0.0)
        t = TomogramFamily(x_grid=xg, param_grid=pg,
                           values=np.stack([vals, vals]),
                           family_tag="hyperplane")
        slc = characteristic_slice(t)
        assert slc.values[0] == pytest.approx(0.2 + 0.4j, abs=5e-3)
        assert abs(slc.values[0]) == pytest.approx(1 / math.sqrt(5), abs=5e-3)

    def test_magnitude_bounded_by_normalization(self):
        ph = standard_gaussian(2)
        q = make_grid(2, [(-6, 6, 128), (-6, 6, 128)])
        pg = make_grid(2, [(-3, 3, 9), (-3, 3, 9)])
        xg = make_grid(1, [(-8, 8, 161)])
        t = _without_tail(forward_binned(ph, Hyperplane(2), pg, xg, q))
        slc = characteristic_slice(t)
        assert np.all(np.abs(slc.values) <= normalization_profile(t) + 1e-12)

    def test_conjugate_symmetry_at_reflected_parameters(self):
        ph = standard_gaussian(2)
        q = make_grid(2, [(-6, 6, 128), (-6, 6, 128)])
        pg = make_grid(2, [(-2, 2, 5), (-2, 2, 5)])
        xg = make_grid(1, [(-8, 8, 161)])
        t = forward_binned(ph, Hyperplane(2), pg, xg, q)
        slc = characteristic_slice(t)
        vals = slc.values.reshape(5, 5)
        assert np.allclose(vals[::-1, ::-1], np.conj(vals), atol=1e-6)

    def test_real_products_match_complex_product(self):
        """Two real matrix-vector products against the complex one they
        replace: within 1e-14 of the peak."""
        xg = make_grid(1, [(-30, 30, 481)])
        pg = make_grid(2, [(-5, 5, 20), (-5, 5, 15)])
        rng = np.random.default_rng(8)
        t = _without_tail(TomogramFamily(x_grid=xg, param_grid=pg,
                                         values=rng.random((pg.size, 481)),
                                         family_tag="hyperplane"))
        w = xg.trapezoid_weights().ravel()
        ref = t.values @ (np.exp(1j * xg.axis_points(0)) * w)
        got = characteristic_slice(t).values
        _assert_close_to_peak(got, ref, rtol=1e-14)

    def test_tail_correction_recovers_clipped_gaussian(self):
        # window [-10, 10] clips N(0, 25); tail terms recover most of the
        # lost integral (the slowly varying regime the correction targets)
        sig = 5.0
        xg = make_grid(1, [(-10, 10, 801)])
        pg = make_grid(1, [(-1, 1, 2)])
        t = _tomogram_from_function(
            lambda x, p: np.exp(-x**2 / (2 * sig**2))
            / math.sqrt(2 * math.pi * sig**2), xg, pg)
        w = xg.trapezoid_weights().ravel()
        plain = t.values[0] @ (np.exp(1j * xg.axis_points(0)) * w)
        fixed = characteristic_slice(t).values[0]
        target = math.exp(-sig**2 / 2)
        assert abs(plain - target) > 5 * abs(fixed - target)


    @pytest.mark.parametrize("axis, refused", [
        ((-10, 10, 5), True),                # dX = 5
        ((0, 2 * math.pi, 3), True),         # dX = pi exactly
        ((0, 2 * math.pi, 4), False),        # dX = 2 pi / 3
    ])
    def test_x_spacing_below_pi_required(self, axis, refused):
        """Unit frequency needs dX < pi, the Nyquist limit of the X grid."""
        xg = make_grid(1, [axis])
        t = TomogramFamily(x_grid=xg, param_grid=make_grid(1, [(-1, 1, 2)]),
                           values=np.ones((2, axis[2])),
                           family_tag="hyperplane")
        if refused:
            with pytest.raises(ValueError, match="not below pi"):
                characteristic_slice(t)
        else:
            characteristic_slice(t)

    def test_roundtrip_refuses_too_coarse_x_grid(self):
        with pytest.raises(ValueError, match="spacing 5 is not below pi"):
            roundtrip(standard_gaussian(2), Hyperplane(2),
                      q_grid=make_grid(2, [(-4, 4, 16)] * 2),
                      x_grid=make_grid(1, [(-10, 10, 5)]),
                      param_grid=make_grid(2, [(-2, 2, 5)] * 2),
                      out_grid=make_grid(2, [(-2, 2, 5)] * 2))


class TestInvertHyperplane:
    def _gaussian_slice(self, mean=(0.0, 0.0)):
        pg = make_grid(2, [(-5, 5, 64), (-5, 5, 64)])
        mu = pg.points()
        vals = np.exp(-np.sum(mu**2, axis=1) / 2) \
            * np.exp(1j * (mu @ np.asarray(mean)))
        return _slice_from_values(pg, vals)

    def test_reconstructs_gaussian_peak(self):
        slc = self._gaussian_slice()
        out = make_grid(2, [(-5, 5, 64), (-5, 5, 64)])
        field, diag = invert_for_family(slc, Hyperplane(2), out)
        center = np.unravel_index(np.argmax(field.values), field.values.shape)
        pts = out.points().reshape(64, 64, 2)
        assert np.linalg.norm(pts[center]) <= out.spacing[0]
        assert field.values.max() == pytest.approx(1 / (2 * math.pi), abs=5e-3)
        assert diag.imag_ratio <= 1e-2
        assert diag.boundary_decay <= 1e-4

    def test_zero_slice(self):
        pg = make_grid(2, [(-5, 5, 16), (-5, 5, 16)])
        slc = _slice_from_values(pg, np.zeros(pg.size))
        out = make_grid(2, [(-3, 3, 9), (-3, 3, 9)])
        field, diag = invert_for_family(slc, Hyperplane(2), out)
        assert np.all(field.values == 0.0)
        assert diag.imag_ratio == 0.0

    def test_shift_moves_the_peak(self):
        slc = self._gaussian_slice(mean=(3.0, 0.0))
        out = make_grid(2, [(-5, 5, 64), (-5, 5, 64)])
        field, _ = invert_for_family(slc, Hyperplane(2), out)
        peak = np.unravel_index(np.argmax(field.values), field.values.shape)
        pts = out.points().reshape(64, 64, 2)
        assert np.linalg.norm(pts[peak] - [3.0, 0.0]) <= out.spacing[0]

    def test_linearity(self):
        pg = make_grid(2, [(-4, 4, 24), (-4, 4, 24)])
        rng = np.random.default_rng(0)
        v1 = rng.normal(size=pg.size) + 1j * rng.normal(size=pg.size)
        v2 = rng.normal(size=pg.size) + 1j * rng.normal(size=pg.size)
        out = make_grid(2, [(-2, 2, 9), (-2, 2, 9)])
        plane = Hyperplane(2)
        f1, _ = invert_for_family(_slice_from_values(pg, v1), plane, out)
        f2, _ = invert_for_family(_slice_from_values(pg, v2), plane, out)
        f12, _ = invert_for_family(_slice_from_values(pg, 2.0 * v1 - 0.5 * v2),
                                   plane, out)
        assert np.allclose(f12.values, 2.0 * f1.values - 0.5 * f2.values,
                           rtol=1e-10, atol=1e-14)

    def test_decay_floor_warning(self):
        pg = make_grid(2, [(-1, 1, 8), (-1, 1, 8)])  # box far too narrow
        slc = self._gaussian_slice()
        narrow = CharacteristicSlice(pg, slc.values.reshape(64, 64)[:8, :8]
                                     .ravel(), "hyperplane")
        out = make_grid(2, [(-2, 2, 9), (-2, 2, 9)])
        _, diag = invert_for_family(narrow, Hyperplane(2), out)
        assert diag.boundary_decay > 1e-4
        assert any("widen" in w for w in diag.warnings)

    def test_dimension_mismatch(self):
        from gentomo.core import DimensionMismatchError
        slc = self._gaussian_slice()
        with pytest.raises(DimensionMismatchError):
            invert_for_family(slc, Hyperplane(2), make_grid(1, [(-1, 1, 8)]))


class TestInvertDeformed:
    def test_identity_is_bit_identical_to_hyperplane(self):
        pg = make_grid(2, [(-5, 5, 32), (-5, 5, 32)])
        mu = pg.points()
        vals = np.exp(-np.sum(mu**2, axis=1) / 2)
        slc = _slice_from_values(pg, vals)
        out = make_grid(2, [(-4, 4, 25), (-4, 4, 25)])
        f_plane, _ = invert_for_family(slc, Hyperplane(2), out)
        f_id, diag = invert_for_family(slc, Deformed(identity_map(2)), out)
        assert np.array_equal(f_plane.values, f_id.values)
        assert diag.singular_fraction == 0.0

    def test_singular_out_points_zeroed_and_tallied(self):
        pg = make_grid(2, [(-5, 5, 32), (-5, 5, 32)])
        vals = np.exp(-np.sum(pg.points()**2, axis=1) / 2)
        slc = _slice_from_values(pg, vals, tag="circle")
        out = make_grid(2, [(-2, 2, 5), (-2, 2, 5)])  # contains the origin
        fam = circle_family()
        field, diag = invert_for_family(slc, fam, out)
        assert field.values[2, 2] == 0.0
        assert diag.singular_fraction == pytest.approx(1 / 25)


class TestInvertQuadric:
    def _identity_B_slice(self, pg):
        # unit-covariance source centered at zero: the characteristic values
        # follow from completing the square in the kernel
        mu = pg.points()
        s2 = np.sum(mu**2, axis=1)
        vals = np.exp(1j * s2 / (1 - 2j)) / (1 - 2j)
        return _slice_from_values(pg, vals, tag="quadric")

    def test_reconstructs_center_value(self):
        pg = make_grid(2, [(-6, 6, 96), (-6, 6, 96)])
        slc = self._identity_B_slice(pg)
        out = make_grid(2, [(-2, 2, 17), (-2, 2, 17)])
        field, diag = invert_for_family(slc, Quadric(QuadricForm(np.eye(2))), out)
        center = 1 / (2 * math.pi)
        assert field.values[8, 8] == pytest.approx(center, rel=0.10)
        assert diag.imag_ratio <= 0.05

    def test_zero_slice(self):
        pg = make_grid(2, [(-4, 4, 16), (-4, 4, 16)])
        slc = _slice_from_values(pg, np.zeros(pg.size), tag="quadric")
        out = make_grid(2, [(-1, 1, 5), (-1, 1, 5)])
        field, _ = invert_for_family(slc, Quadric(QuadricForm(np.eye(2))), out)
        assert np.all(field.values == 0.0)

    def test_degenerate_form_rejected(self):
        pg = make_grid(2, [(-4, 4, 16), (-4, 4, 16)])
        slc = _slice_from_values(pg, np.zeros(pg.size), tag="quadric")
        with pytest.raises(ValueError, match="hybrid"):
            invert_for_family(slc, Quadric(QuadricForm(np.diag([1.0, 0.0]))),
                              make_grid(2, [(-1, 1, 5), (-1, 1, 5)]))

    def test_prefactor_compensates_scaling(self):
        # B and 4B on the correspondingly scaled X axis reconstruct the same
        # source; characteristic values are supplied in closed form so only
        # the parameter quadrature and the |det B| prefactor are under test
        out = make_grid(2, [(-1, 1, 17), (-1, 1, 17)])
        ref = sample_phantom(standard_gaussian(2), out)
        recons = []
        for lam in (1.0, 4.0):
            pg = make_grid(2, [(-9, 9, 145), (-9, 9, 145)])
            mu = pg.points()
            s2 = np.sum(mu**2, axis=1)
            vals = np.exp(1j * lam * s2 / (1 - 2j * lam)) / (1 - 2j * lam)
            slc = _slice_from_values(pg, vals, tag="quadric")
            f, _ = invert_for_family(slc, Quadric(QuadricForm(lam * np.eye(2))),
                                     out)
            recons.append(f)
        assert l2_rel_error(recons[0], ref) <= 0.05
        assert l2_rel_error(recons[1], recons[0]) <= 0.05


class TestInvertHybrid:
    def test_missing_split_rejected(self):
        pg = make_grid(3, [(-1, 1, 4)] * 3)
        slc = _random_slice(pg, "hybrid")
        with pytest.raises(ValueError, match="split"):
            invert_for_family(slc, Hybrid(QuadricForm(np.diag([1.0, 1.0, 0.0]))),
                              make_grid(3, [(-1, 1, 3)] * 3))

    def test_product_source_factorizes(self):
        # the kernel separates over the split, so the reconstruction of a
        # product density stays (numerically) rank one when unfolded along
        # the linear axis
        ph = standard_gaussian(3)
        form = QuadricForm(np.diag([1.0, 1.0, 0.0]), linear_axes=(2,))
        t = forward_binned(ph, Hybrid(form),
                           make_grid(3, [(-4, 4, 20)] * 3),
                           make_grid(1, [(-18, 120, 553)]),
                           make_grid(3, [(-4.5, 4.5, 36)] * 3))
        field, _ = invert_for_family(characteristic_slice(t), Hybrid(form),
                                     make_grid(3, [(-2, 2, 16)] * 3))
        unfold = field.values.reshape(16 * 16, 16)
        s = np.linalg.svd(unfold, compute_uv=False)
        assert s[1] / s[0] <= 0.02

    def test_zero_slice(self):
        form = QuadricForm(np.diag([1.0, 1.0, 0.0]), linear_axes=(2,))
        pg = make_grid(3, [(-2, 2, 5)] * 3)
        slc = _slice_from_values(pg, np.zeros(pg.size), tag="hybrid")
        field, _ = invert_for_family(slc, Hybrid(form),
                                     make_grid(3, [(-1, 1, 3)] * 3))
        assert np.all(field.values == 0.0)


class TestRoundtrip:
    def test_hyperplane_gaussian(self):
        ph = standard_gaussian(2)
        rep = roundtrip(ph, Hyperplane(2),
                        q_grid=make_grid(2, [(-6, 6, 192), (-6, 6, 192)]),
                        x_grid=make_grid(1, [(-8, 8, 241)]),
                        param_grid=make_grid(2, [(-5, 5, 48), (-5, 5, 48)]),
                        out_grid=make_grid(2, [(-4, 4, 48), (-4, 4, 48)]))
        assert rep.l2_rel_error <= 0.05
        assert rep.imag_residual_ratio <= 1e-2
        # corner parameters lose real mass past the X window; the engine
        # reports it instead of hiding it
        assert rep.overflow_max > 0.0
        assert rep.normalization_min >= 0.7

    def test_pipeline_near_idempotent(self):
        ph = standard_gaussian(2)
        grids = dict(
            q_grid=make_grid(2, [(-6, 6, 192), (-6, 6, 192)]),
            x_grid=make_grid(1, [(-8, 8, 241)]),
            param_grid=make_grid(2, [(-5, 5, 48), (-5, 5, 48)]),
            out_grid=make_grid(2, [(-5, 5, 64), (-5, 5, 64)]))
        rep = roundtrip(ph, Hyperplane(2), **grids)
        # run the pipeline again on its own output field
        t2 = forward_binned(rep.reconstruction, Hyperplane(2),
                            grids["param_grid"], grids["x_grid"])
        f2, _ = invert_for_family(characteristic_slice(t2), Hyperplane(2),
                                  grids["out_grid"])
        assert l2_rel_error(f2, rep.reconstruction) <= 0.10

    def test_mixture_matches_reference_quality(self):
        mix = GaussianMixture(weights=(0.5, 0.5),
                              means=((2.0, 0.0), (-2.0, 0.0)),
                              covariances=(((1, 0), (0, 1)), ((1, 0), (0, 1))))
        rep = roundtrip(mix, Hyperplane(2),
                        q_grid=make_grid(2, [(-6, 6, 192), (-6, 6, 192)]),
                        x_grid=make_grid(1, [(-10, 10, 301)]),
                        param_grid=make_grid(2, [(-5, 5, 64), (-5, 5, 64)]),
                        out_grid=make_grid(2, [(-5, 5, 64), (-5, 5, 64)]))
        assert rep.l2_rel_error <= 0.05
        assert rep.reconstruction.values.max() \
            == pytest.approx(rep.reference.values.max(), rel=0.05)
