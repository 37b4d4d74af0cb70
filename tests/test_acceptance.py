"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints one summary line with the measured value and its bound,
so the suite doubles as a report.
"""

import math
import time

import numpy as np
import pytest

from gentomo.checks import (DIRECTIONS, GAUSS2, Q_GRID, X_PLANE,
                            diffeo_equivalence_suite, homogeneity_suite,
                            normalization_suite)
from gentomo.cli import main as cli_main
from gentomo.core import GaussianMixture, make_grid, standard_gaussian
from gentomo.forward import forward_binned_at
from gentomo.geometry import (Hybrid, Hyperplane, Quadric, QuadricForm,
                              circle_family, hyperbola_family)
from gentomo import inverse
from gentomo.inverse import roundtrip
from gentomo.oracle import (chi_square_density, gaussian_hyperplane_tomogram,
                            mc_tomogram)

REPORT_LINES = []


def _report(name, measured, bound, extra=""):
    line = (f"{name}: measured {measured:.6g} (bound {bound:g}) "
            f"{extra + ' ' if extra else ''}PASS")
    REPORT_LINES.append(line)
    print(line)  # visible live under pytest -s


def _measured(rows, names):
    """The measured values of a ``gentomo check`` suite's rows, which must
    be exactly ``names``, in order."""
    assert [r.name for r in rows] == names
    return [r.measured for r in rows]


@pytest.fixture(scope="module")
def ac1_run():
    t0 = time.perf_counter()
    table = forward_binned_at(GAUSS2, Hyperplane(2), DIRECTIONS, X_PLANE,
                              Q_GRID, supersample=2)
    return table, time.perf_counter() - t0


class TestAcceptance:
    def test_ac1_forward_matches_closed_form(self, ac1_run):
        """Hyperplane tomograms of the standard Gaussian vs the exact
        one-dimensional marginals, eight directions on the unit circle."""
        table, runtime = ac1_run
        xs = X_PLANE.axis_points(0)
        worst = 0.0
        for k, d in enumerate(DIRECTIONS):
            oracle = gaussian_hyperplane_tomogram([0, 0], np.eye(2), d)
            worst = max(worst, np.abs(table.values[k] - oracle.pdf(xs)).max())
        assert worst <= 2e-2
        assert runtime <= 30.0
        _report("AC-1 forward vs closed form (max abs)", worst, 2e-2,
                extra=f"runtime {runtime:.1f}s<=30s")

    def test_ac2_normalization(self):
        """Every tomogram integrates to one over X, with overflow under
        1e-3: AC-1's hyperplane run and two unit-B quadric tomograms
        (``gentomo check normalization``)."""
        dev_h, over_h, dev_q, over_q = _measured(normalization_suite(), [
            f"normalization/{tag}/{what}" for tag in ("hyperplane", "quadric")
            for what in ("deviation", "overflow")])
        assert dev_h <= 1e-2 and dev_q <= 1e-2
        assert over_h < 1e-3 and over_q < 1e-3
        _report("AC-2 normalization (worst deviation)", max(dev_h, dev_q),
                1e-2, extra=f"overflow {max(over_h, over_q):.2g}<1e-3")

    def test_ac3_homogeneity(self):
        """Scaling (X, params) -> (lam X, lam params) divides the tomogram
        by |lam|, for the hyperplane and circle families
        (``gentomo check homogeneity``)."""
        residuals = _measured(homogeneity_suite(), [
            f"homogeneity/{tag}/lambda={lam:g}"
            for tag in ("hyperplane", "circle") for lam in (2.0, -1.0, 0.5)])
        assert all(res <= 2e-2 for res in residuals)
        _report("AC-3 homogeneity residual (max)", max(residuals), 2e-2)

    def test_ac4_diffeo_equivalence(self):
        """Deformed tomograms of the pullback density equal the straight
        Radon tomograms of the original density, per direction (L1 over X),
        for the circle and hyperbola families
        (``gentomo check diffeo-equivalence``)."""
        gaps = _measured(diffeo_equivalence_suite(), [
            "diffeo-equivalence/circle/L1", "diffeo-equivalence/hyperbola/L1"])
        assert all(gap <= 3e-2 for gap in gaps)
        _report("AC-4 diffeomorphism equivalence (max L1)", max(gaps), 3e-2)

    def test_ac5_hyperplane_round_trip(self):
        """Gaussian mixture, forward + inversion at the pinned grids."""
        mix = GaussianMixture(weights=(0.5, 0.5),
                              means=((2.0, 0.0), (-2.0, 0.0)),
                              covariances=(((1, 0), (0, 1)), ((1, 0), (0, 1))))
        rep = roundtrip(
            mix, Hyperplane(2),
            q_grid=Q_GRID, x_grid=make_grid(1, [(-10, 10, 301)]),
            param_grid=make_grid(2, [(-5, 5, 64), (-5, 5, 64)]),
            out_grid=make_grid(2, [(-5, 5, 64), (-5, 5, 64)]))
        assert rep.l2_rel_error <= 0.05
        assert rep.imag_residual_ratio <= 1e-2
        assert rep.runtime_seconds <= 120.0
        _report("AC-5 hyperplane round trip (rel L2)", rep.l2_rel_error, 0.05,
                extra=(f"imag {rep.imag_residual_ratio:.2g}<=1e-2, "
                       f"runtime {rep.runtime_seconds:.1f}s<=120s"))

    def test_ac6_quadric_forward_and_round_trip(self):
        """Unit-B quadric tomograms of the standard Gaussian: chi-square
        profile, Monte-Carlo cross-check, exact one-sided support, and the
        full round trip."""
        fam = Quadric(QuadricForm(np.eye(2)))
        x_grid = make_grid(1, [(-10, 200, 841)])
        xs = x_grid.axis_points(0)

        table = forward_binned_at(GAUSS2, fam, [(0.0, 0.0)], x_grid, Q_GRID)
        sel = (xs > 0) & (xs <= 12)
        chi_err = np.abs(table.values[0][sel]
                         - chi_square_density(2, xs[sel])).max()
        assert chi_err <= 1e-2
        assert np.all(table.values[0][xs < 0] == 0.0)

        mc = mc_tomogram(GAUSS2, fam, (0.0, 0.0), x_grid, 1_000_000, seed=20)
        excess = (np.abs(table.values[0] - mc.density) - 3 * mc.stderr).max()
        assert excess <= 5e-3

        rep = roundtrip(GAUSS2, fam, q_grid=Q_GRID, x_grid=x_grid,
                        param_grid=make_grid(2, [(-6, 6, 128), (-6, 6, 128)]),
                        out_grid=make_grid(2, [(-3, 3, 48), (-3, 3, 48)]))
        assert rep.l2_rel_error <= 0.10
        _report("AC-6 quadric chi-square (max abs)", chi_err, 1e-2,
                extra=(f"MC excess {excess:.2g}<=5e-3, "
                       f"round trip {rep.l2_rel_error:.3g}<=0.1, "
                       f"omega(X<0)=0 exact"))

    def test_ac7_deformed_round_trips(self):
        """Circle and hyperbola families reconstruct the pullback Gaussian
        away from a 0.3 margin around their singular sets."""
        mu = make_grid(2, [(-5, 5, 64), (-5, 5, 64)])
        out = make_grid(2, [(-5, 5, 64), (-5, 5, 64)])
        x_grid = make_grid(1, [(-30, 30, 961)])
        rep_c = roundtrip(GAUSS2, circle_family(),
                          q_grid=make_grid(2, [(-8, 8, 512)] * 2),
                          x_grid=x_grid, param_grid=mu, out_grid=out,
                          exclusion_margin=0.3)
        assert rep_c.l2_rel_error <= 0.10
        rep_h = roundtrip(GAUSS2, hyperbola_family(),
                          q_grid=make_grid(2, [(-100, 100, 5001), (-6, 6, 121)]),
                          x_grid=x_grid, param_grid=mu, out_grid=out,
                          exclusion_margin=0.3)
        assert rep_h.l2_rel_error <= 0.10
        _report("AC-7 deformed round trips (rel L2)",
                max(rep_c.l2_rel_error, rep_h.l2_rel_error), 0.10,
                extra=(f"circle {rep_c.l2_rel_error:.3g}, "
                       f"hyperbola {rep_h.l2_rel_error:.3g}"))

    @pytest.mark.parametrize("kernel_sum", ["nufft", "direct"])
    def test_hyperbolic_quadric_round_trip(self, kernel_sum, monkeypatch):
        """An indefinite, non-diagonal quadric family round-trips the
        standard Gaussian on either kernel sum (measured 0.00127; diag(1, -1)
        gives 0.00128).  Its characteristic values are 1.4e-4 of their peak
        at the box boundary, so the run warns."""
        if kernel_sum == "direct":
            monkeypatch.setattr(inverse, "_nufft_sum", inverse._direct_sum)
        rep = roundtrip(GAUSS2, Quadric(QuadricForm([[1.0, 0.2],
                                                     [0.2, -1.5]])),
                        q_grid=Q_GRID, x_grid=make_grid(1, [(-120, 120, 1921)]),
                        param_grid=make_grid(2, [(-6, 6, 64)] * 2),
                        out_grid=make_grid(2, [(-3, 3, 48)] * 2))
        assert rep.l2_rel_error <= 0.002
        assert rep.imag_residual_ratio <= 1e-3
        _report(f"hyperbolic quadric round trip, {kernel_sum} sum (rel L2)",
                rep.l2_rel_error, 0.002,
                extra=f"imag {rep.imag_residual_ratio:.2g}<=1e-3")

    def test_ac8_hybrid_case(self):
        """Degenerate three-dimensional form: round trip at the stated
        grids, origin value, and a Monte-Carlo forward check."""
        gauss3 = standard_gaussian(3)
        form = QuadricForm(np.diag([1.0, 1.0, 0.0]), linear_axes=(2,))
        fam = Hybrid(form)
        q_grid = make_grid(3, [(-5, 5, 48)] * 3)
        x_grid = make_grid(1, [(-25, 190, 861)])
        t0 = time.perf_counter()
        rep = roundtrip(gauss3, fam, q_grid=q_grid, x_grid=x_grid,
                        param_grid=make_grid(3, [(-5, 5, 32)] * 3),
                        out_grid=make_grid(3, [(-5, 5, 48)] * 3))
        # trilinear interpolation of the reconstruction at the origin
        # (48 points per axis leave the origin between grid points)
        ax = np.linspace(-5, 5, 48)
        k = np.searchsorted(ax, 0.0)
        w = (0.0 - ax[k - 1]) / (ax[k] - ax[k - 1])
        wv = np.array([1 - w, w])
        sub = rep.reconstruction.values[k - 1:k + 1, k - 1:k + 1, k - 1:k + 1]
        origin_val = float(np.einsum("i,j,k,ijk->", wv, wv, wv, sub))
        target = (2 * math.pi) ** -1.5
        origin_rel = abs(origin_val - target) / target
        assert origin_rel <= 0.15

        mc = mc_tomogram(gauss3, fam, (1.0, -0.5, 0.8), x_grid, 1_000_000,
                         seed=21)
        table = forward_binned_at(gauss3, fam, [(1.0, -0.5, 0.8)], x_grid,
                                  q_grid)
        excess = (np.abs(table.values[0] - mc.density) - 3 * mc.stderr).max()
        assert excess <= 5e-3
        runtime = time.perf_counter() - t0
        assert runtime <= 300.0
        _report("AC-8 hybrid origin value (rel err)", origin_rel, 0.15,
                extra=(f"MC excess {excess:.2g}<=5e-3, "
                       f"runtime {runtime:.0f}s<=300s"))

    def test_ac9_refinement_reduces_errors(self, ac1_run):
        """Doubling the source and X resolutions strictly reduces the
        measured forward errors of AC-1 and AC-6."""
        table, _ = ac1_run
        xs = X_PLANE.axis_points(0)
        base1 = max(np.abs(table.values[k]
                           - gaussian_hyperplane_tomogram([0, 0], np.eye(2),
                                                          d).pdf(xs)).max()
                    for k, d in enumerate(DIRECTIONS))
        q_fine = make_grid(2, [(-6, 6, 512), (-6, 6, 512)])
        x_fine = make_grid(1, [(-6, 6, 481)])
        xf = x_fine.axis_points(0)
        tf = forward_binned_at(GAUSS2, Hyperplane(2), DIRECTIONS,
                               x_fine, q_fine, supersample=2)
        fine1 = max(np.abs(tf.values[k]
                           - gaussian_hyperplane_tomogram([0, 0], np.eye(2),
                                                          d).pdf(xf)).max()
                    for k, d in enumerate(DIRECTIONS))
        assert fine1 < base1

        fam = Quadric(QuadricForm(np.eye(2)))
        x6 = make_grid(1, [(-10, 200, 841)])
        t6 = forward_binned_at(GAUSS2, fam, [(0.0, 0.0)], x6, Q_GRID)
        s6 = (x6.axis_points(0) > 0) & (x6.axis_points(0) <= 12)
        base6 = np.abs(t6.values[0][s6]
                       - chi_square_density(2, x6.axis_points(0)[s6])).max()
        x6f = make_grid(1, [(-10, 200, 1681)])
        t6f = forward_binned_at(GAUSS2, fam, [(0.0, 0.0)], x6f, q_fine)
        s6f = (x6f.axis_points(0) > 0) & (x6f.axis_points(0) <= 12)
        fine6 = np.abs(t6f.values[0][s6f]
                       - chi_square_density(2, x6f.axis_points(0)[s6f])).max()
        assert fine6 < base6
        _report("AC-9 refinement (fine/base error ratios)",
                max(fine1 / base1, fine6 / base6), 1.0,
                extra=(f"hyperplane {base1:.2g}->{fine1:.2g}, "
                       f"quadric {base6:.2g}->{fine6:.2g}"))

    def test_ac10_determinism(self, tmp_path, monkeypatch, capsys):
        """Fixed seed plus GENTOMO_THREADS=1 vs auto: byte-identical files
        and reports for every command."""
        cfg = tmp_path / "mix.cfg"
        cfg.write_text("type=mixture\n"
                       "weight1=0.5\nmean1=2,0\ncov1=1,0,0,1\n"
                       "weight2=0.5\nmean2=-2,0\ncov2=1,0,0,1\n"
                       "grid=-6,6,96;-6,6,96\n")
        runs = []
        for threads, label in (("1", "t1"), ("0", "auto")):
            monkeypatch.setenv("GENTOMO_THREADS", threads)
            field = tmp_path / f"{label}.gtm"
            tomo = tmp_path / f"{label}.gtmt"
            recon = tmp_path / f"{label}_r.gtm"
            csv = tmp_path / f"{label}.csv"
            pgm = tmp_path / f"{label}.pgm"
            assert cli_main(["phantom", str(cfg), "--out", str(field)]) == 0
            assert cli_main(["forward", str(field), "--family", "hyperplane",
                             "--mu-box=-4,4;-4,4", "--mu-count", "24;24",
                             "--x-range=-9,9", "--x-count", "121",
                             "--out", str(tomo)]) == 0
            assert cli_main(["invert", str(tomo), "--family", "hyperplane",
                             "--q-box=-4,4;-4,4", "--q-count", "17;17",
                             "--out", str(recon)]) == 0
            assert cli_main(["export", str(field), "--format", "pgm",
                             "--out", str(pgm)]) == 0
            assert cli_main(["export", str(tomo), "--format", "csv",
                             "--out", str(csv)]) == 0
            assert cli_main(["check", "quadric-support", "--seed", "5"]) == 0
            runs.append((field.read_bytes(), tomo.read_bytes(),
                         recon.read_bytes(), csv.read_bytes(),
                         pgm.read_bytes(), capsys.readouterr().out))
        assert runs[0] == runs[1]
        _report("AC-10 determinism (differing artifacts)", 0, 0,
                extra="phantom/forward/invert/export/check byte-identical")
