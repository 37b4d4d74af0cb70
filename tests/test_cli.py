import argparse
import shutil

import numpy as np
import pytest

from gentomo import checks, cli, formats
from gentomo._native import build_library
from gentomo.cli import main
from gentomo.core import TomogramFamily, make_grid
from gentomo.formats import read_field, read_tomogram, write_tomogram
from gentomo.forward import forward_binned
from gentomo.geometry import LevelFamily, QuadricForm, conformal_inversion

GAUSS_CFG = "type=gaussian\nmean=0,0\ncov=1,0,0,1\ngrid=-6,6,128;-6,6,128\n"
GAUSS3_CFG = "type=gaussian\nmean=0,0,0\ncov=1,0,0,0,1,0,0,0,1\n"
GAUSS4_CFG = ("type=gaussian\nmean=0,0,0,0\n"
              "cov=1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1\n")


@pytest.fixture
def gauss_config(tmp_path):
    p = tmp_path / "gauss.cfg"
    p.write_text(GAUSS_CFG)
    return p


@pytest.fixture
def gauss_field(tmp_path, gauss_config):
    out = tmp_path / "gauss.gtm"
    assert main(["phantom", str(gauss_config), "--out", str(out)]) == 0
    return out


def _forward_args(field, out, family="hyperplane", extra=()):
    return ["forward", str(field), "--family", family,
            "--mu-box=-3,3;-3,3", "--mu-count", "9;9",
            "--x-range=-8,8", "--x-count", "161",
            "--out", str(out), *extra]


def _one_error_line(capsys) -> str:
    """The captured stderr must be a single ``error:`` line."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


class TestPhantomCommand:
    def test_writes_field_and_prints_mass(self, tmp_path, gauss_config, capsys):
        out = tmp_path / "f.gtm"
        assert main(["phantom", str(gauss_config), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "total mass" in printed
        assert abs(float(printed.split()[-1]) - 1.0) < 1e-6
        field = read_field(out)
        assert field.grid.shape == (128, 128)

    def test_bad_grid_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("type=gaussian\nmean=0,0\ncov=1,0,0,1\ngrid=-6,6,1\n")
        assert main(["phantom", str(cfg), "--out", str(tmp_path / "x.gtm")]) == 2

    def test_missing_config_exits_4(self, tmp_path):
        assert main(["phantom", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "x.gtm")]) == 4


class TestForwardCommand:
    @pytest.mark.parametrize("name,flags", [
        ("hyperplane", {}), ("circle", {}), ("hyperbola", {}),
        ("hyperboloid", {}), ("quadric", {"B": "1,0,0,2"}),
        ("hybrid", {"B": "1,0,0,0", "split": "1"})])
    def test_each_family_flag_builds_that_family(self, name, flags):
        args = argparse.Namespace(**{"B": None, "split": None, **flags},
                                  family=name)
        assert cli._family_from_args(args, 2).tag == name

    def test_field_input(self, tmp_path, gauss_field, capsys):
        out = tmp_path / "t.gtmt"
        assert main(_forward_args(gauss_field, out)) == 0
        printed = capsys.readouterr().out
        assert "normalization" in printed and "overflow" in printed
        t = read_tomogram(out)
        assert t.family_tag == "hyperplane"
        assert t.values.shape == (81, 161)

    def test_phantom_config_input(self, tmp_path, gauss_config, capsys):
        out = tmp_path / "t.gtmt"
        args = _forward_args(gauss_config, out,
                             extra=["--q-box=-6,6;-6,6",
                                    "--q-count", "128;128"])
        assert main(args) == 0

    def test_quadric_requires_B(self, tmp_path, gauss_field):
        out = tmp_path / "t.gtmt"
        assert main(_forward_args(gauss_field, out, family="quadric")) == 2

    def test_non_numeric_B_exits_2(self, tmp_path, gauss_field, capsys):
        out = tmp_path / "t.gtmt"
        args = _forward_args(gauss_field, out, family="quadric",
                             extra=["--B", "1,x,0,1"])
        assert main(args) == 2
        assert "--B" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_split_exits_2(self, tmp_path, gauss_field, capsys):
        out = tmp_path / "t.gtmt"
        args = _forward_args(gauss_field, out, family="hybrid",
                             extra=["--B", "1,0,0,0", "--split", "1,z"])
        assert main(args) == 2
        assert "--split" in capsys.readouterr().err
        assert not out.exists()

    def test_hybrid_without_quadric_core_exits_2(self, tmp_path, gauss_field,
                                                 capsys):
        out = tmp_path / "t.gtmt"
        args = _forward_args(gauss_field, out, family="hybrid",
                             extra=["--B", "0,0,0,0", "--split", "0,1"])
        assert main(args) == 2
        assert "no quadric core" in capsys.readouterr().err
        assert not out.exists()

    def test_q_box_rank_mismatch_exits_3(self, tmp_path, gauss_config,
                                         capsys):
        out = tmp_path / "t.gtmt"
        args = ["forward", str(gauss_config), "--family", "hyperplane",
                "--mu-box=-1,1;-1,1", "--mu-count", "4;4",
                "--x-range=-6,6", "--x-count", "61", "--q-box=-6,6",
                "--q-count", "16", "--out", str(out)]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "inconsistent dimensions" in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_quadric_with_B(self, tmp_path, gauss_field):
        out = tmp_path / "t.gtmt"
        args = ["forward", str(gauss_field), "--family", "quadric",
                "--B", "1,0,0,1", "--mu-box=-3,3;-3,3",
                "--mu-count", "9;9", "--x-range=-5,80", "--x-count", "171",
                "--out", str(out)]
        assert main(args) == 0
        assert read_tomogram(out).family_tag == "quadric"

    def test_degenerate_circle_direction_warns(self, tmp_path, gauss_field,
                                               capsys):
        out = tmp_path / "t.gtmt"
        args = ["forward", str(gauss_field), "--family", "circle",
                "--mu-box=-1,1;-1,1", "--mu-count", "3;3",
                "--x-range=-8,8", "--x-count", "101", "--out", str(out)]
        assert main(args) == 0
        assert "degenerate" in capsys.readouterr().err


class TestInvertCommand:
    def test_round_trip_through_files(self, tmp_path, gauss_field, capsys):
        tomo = tmp_path / "t.gtmt"
        args = ["forward", str(gauss_field), "--family", "hyperplane",
                "--mu-box=-5,5;-5,5", "--mu-count", "48;48",
                "--x-range=-8,8", "--x-count", "241", "--out", str(tomo)]
        assert main(args) == 0
        recon = tmp_path / "r.gtm"
        args = ["invert", str(tomo), "--family", "hyperplane",
                "--q-box=-4,4;-4,4", "--q-count", "33;33",
                "--out", str(recon)]
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert "imaginary residual ratio" in printed
        field = read_field(recon)
        assert field.values.max() == pytest.approx(1 / (2 * np.pi), rel=0.05)

    def test_tag_mismatch_exits_3(self, tmp_path, gauss_field):
        tomo = tmp_path / "t.gtmt"
        assert main(_forward_args(gauss_field, tomo)) == 0
        assert main(["invert", str(tomo), "--family", "circle",
                     "--q-box=-4,4;-4,4", "--q-count", "17;17",
                     "--out", str(tmp_path / "r.gtm")]) == 3

    def test_deformed_quadric_refused_as_quadric(self, tmp_path, gauss_field,
                                                 capsys):
        """A library family's tag is read off its form and map, so the
        tomogram of a quadric under the conformal inversion is not inverted
        with the undeformed quadric kernel."""
        family = LevelFamily(QuadricForm(np.eye(2)), conformal_inversion())
        tomo = tmp_path / "t.gtmt"
        write_tomogram(tomo, forward_binned(
            read_field(gauss_field), family, make_grid(2, [(-1, 1, 4)] * 2),
            make_grid(1, [(0, 8, 33)])))
        capsys.readouterr()
        recon = tmp_path / "r.gtm"
        assert main(["invert", str(tomo), "--family", "quadric",
                     "--B", "1,0,0,1", "--q-box=-1,1;-1,1", "--q-count", "5;5",
                     "--out", str(recon)]) == 3
        assert "'deformed' family" in _one_error_line(capsys)
        assert not recon.exists()

    def test_out_grid_rank_mismatch_exits_3(self, tmp_path, gauss_field,
                                            capsys):
        tomo = tmp_path / "t.gtmt"
        assert main(_forward_args(gauss_field, tomo)) == 0
        capsys.readouterr()
        recon = tmp_path / "r.gtm"
        assert main(["invert", str(tomo), "--family", "hyperplane",
                     "--q-box=-1,1", "--q-count", "4",
                     "--out", str(recon)]) == 3
        err = capsys.readouterr().err
        assert "inconsistent dimensions" in err and len(err.splitlines()) == 1
        assert not recon.exists()

    @pytest.mark.parametrize("taper", ["--taper=0", "--taper=-1",
                                       "--taper=nan", "--taper=inf"])
    def test_bad_taper_width_exits_2(self, tmp_path, gauss_field, taper,
                                     capsys):
        tomo = tmp_path / "t.gtmt"
        assert main(_forward_args(gauss_field, tomo)) == 0
        recon = tmp_path / "r.gtm"
        assert main(["invert", str(tomo), "--family", "hyperplane",
                     "--q-box=-2,2;-2,2", "--q-count", "5;5", taper,
                     "--out", str(recon)]) == 2
        assert "--taper" in capsys.readouterr().err
        assert not recon.exists()

    @pytest.mark.parametrize("floor", ["--decay-floor=nan",
                                       "--decay-floor=-1"])
    def test_bad_decay_floor_exits_2(self, tmp_path, gauss_field, floor,
                                     capsys):
        tomo = tmp_path / "t.gtmt"
        assert main(_forward_args(gauss_field, tomo)) == 0
        recon = tmp_path / "r.gtm"
        assert main(["invert", str(tomo), "--family", "hyperplane",
                     "--q-box=-2,2;-2,2", "--q-count", "5;5", floor,
                     "--out", str(recon)]) == 2
        assert "--decay-floor" in capsys.readouterr().err
        assert not recon.exists()

    @pytest.mark.parametrize("taper", [["--taper"], ["--taper", "1.5"]])
    def test_taper_accepted(self, tmp_path, gauss_field, taper, capsys):
        tomo = tmp_path / "t.gtmt"
        assert main(_forward_args(gauss_field, tomo)) == 0
        assert main(["invert", str(tomo), "--family", "hyperplane",
                     "--q-box=-2,2;-2,2", "--q-count", "5;5", *taper,
                     "--out", str(tmp_path / "r.gtm")]) == 0
        assert "warning: taper width" in capsys.readouterr().err

    @pytest.mark.parametrize("family, ndim", [("hyperbola", 2),
                                              ("hyperboloid", 4)])
    def test_deformed_pipeline(self, tmp_path, gauss_field, family, ndim,
                               capsys):
        """forward then invert of a deformed family, 2-d from a field and
        4-d from a phantom config."""
        box, count = ";".join(["-3,3"] * ndim), ";".join(["6"] * ndim)
        if ndim == 2:
            source, sampling = gauss_field, []
        else:
            source = _written(tmp_path, "g4.cfg", GAUSS4_CFG.encode())
            sampling = ["--q-box=" + ";".join(["-4,4"] * ndim),
                        "--q-count", "12"]
        tomo, recon = tmp_path / "t.gtmt", tmp_path / "r.gtm"
        assert main(["forward", str(source), "--family", family,
                     f"--mu-box={box}", "--mu-count", count,
                     "--x-range=-12,12", "--x-count", "81", *sampling,
                     "--out", str(tomo)]) == 0
        assert read_tomogram(tomo).family_tag == family
        assert main(["invert", str(tomo), "--family", family,
                     f"--q-box={box}", "--q-count", count,
                     "--out", str(recon)]) == 0
        assert "imaginary residual ratio" in capsys.readouterr().out
        field = read_field(recon)
        assert field.grid.ndim == ndim and np.isfinite(field.values).all()

    def test_zero_tomogram_gives_zero_field(self, tmp_path, gauss_field):
        tomo = tmp_path / "z.gtmt"
        xg = make_grid(1, [(-3, 3, 11)])
        pg = make_grid(2, [(-2, 2, 5), (-2, 2, 5)])
        write_tomogram(tomo, TomogramFamily(
            x_grid=xg, param_grid=pg, values=np.zeros((25, 11)),
            family_tag="hyperplane"))
        recon = tmp_path / "r.gtm"
        assert main(["invert", str(tomo), "--family", "hyperplane",
                     "--q-box=-1,1;-1,1", "--q-count", "5;5",
                     "--out", str(recon)]) == 0
        assert np.all(read_field(recon).values == 0.0)


class TestExportCommand:
    def test_field_csv(self, tmp_path, gauss_field):
        out = tmp_path / "f.csv"
        assert main(["export", str(gauss_field), "--format", "csv",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("q1,q2,value\n")

    def test_field_pgm_peak(self, tmp_path, gauss_field, capsys):
        out = tmp_path / "f.pgm"
        assert main(["export", str(gauss_field), "--format", "pgm",
                     "--out", str(out)]) == 0
        assert "scaling" in capsys.readouterr().out
        raw = out.read_bytes()
        pix = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8)
        peak = np.argmax(read_field(gauss_field).values)
        assert np.argmax(pix) == peak

    def test_tomogram_csv(self, tmp_path, gauss_field):
        tomo = tmp_path / "t.gtmt"
        assert main(_forward_args(gauss_field, tomo)) == 0
        out = tmp_path / "t.csv"
        assert main(["export", str(tomo), "--format", "csv",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("param1,param2,X,omega\n")

    @pytest.mark.parametrize("build", ["no-compiler", "compile-fails"])
    def test_csv_without_the_formatter_is_silent(self, tmp_path, gauss_field,
                                                 build, capfd, monkeypatch,
                                                 fresh_builds):
        """Where the compiled formatter cannot be built, the CSV export
        writes the same bytes at exit 0 and nothing reaches stderr, the
        compiler's own output included."""
        tomo = tmp_path / "t.gtmt"
        assert main(_forward_args(gauss_field, tomo)) == 0
        expect = tmp_path / "expect.csv"
        assert main(["export", str(tomo), "--format", "csv",
                     "--out", str(expect)]) == 0
        capfd.readouterr()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        build_library.cache_clear()
        if build == "no-compiler":
            monkeypatch.setattr(shutil, "which", lambda *args, **kw: None)
            reason = "no C++ compiler"
        else:
            if not (shutil.which("c++") or shutil.which("g++")):
                pytest.skip("no C++ compiler on PATH")
            broken = tmp_path / "_csvformat.cpp"
            broken.write_text("#error this source does not compile\n")
            monkeypatch.setattr(formats, "_FORMATTER_SOURCE", broken)
            reason = "exited"
        out = tmp_path / "t.csv"
        assert main(["export", str(tomo), "--format", "csv",
                     "--out", str(out)]) == 0
        assert capfd.readouterr().err == ""
        assert formats._load_formatter() is None
        assert reason in build_library(formats._FORMATTER_SOURCE,
                                       formats._FORMATTER_FLAGS)[1]
        assert out.read_bytes() == expect.read_bytes()

    def test_3d_field_to_pgm_rejected(self, tmp_path):
        from gentomo.core import ScalarField, make_grid
        from gentomo.formats import write_field
        g = make_grid(3, [(-1, 1, 4)] * 3)
        path = tmp_path / "f3.gtm"
        write_field(path, ScalarField(g, np.zeros(g.size)))
        assert main(["export", str(path), "--format", "pgm",
                     "--out", str(tmp_path / "x.pgm")]) == 2

    def test_truncated_header_exits_2(self, tmp_path, gauss_field, capsys):
        p = tmp_path / "cut.gtm"
        p.write_bytes(gauss_field.read_bytes()[:30])
        assert main(["export", str(p), "--format", "csv",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "header" in capsys.readouterr().err

    def test_garbage_input_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"JUNKJUNKJUNK")
        assert main(["export", str(p), "--format", "csv",
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestDeterminism:
    def test_thread_env_does_not_change_bytes(self, tmp_path, gauss_config,
                                              monkeypatch):
        outs = []
        for threads, name in (("1", "a"), ("0", "b")):
            monkeypatch.setenv("GENTOMO_THREADS", threads)
            field = tmp_path / f"{name}.gtm"
            tomo = tmp_path / f"{name}.gtmt"
            recon = tmp_path / f"{name}r.gtm"
            assert main(["phantom", str(gauss_config), "--out", str(field)]) == 0
            assert main(_forward_args(field, tomo)) == 0
            assert main(["invert", str(tomo), "--family", "hyperplane",
                         "--q-box=-2,2;-2,2", "--q-count", "9;9",
                         "--out", str(recon)]) == 0
            outs.append((field.read_bytes(), tomo.read_bytes(),
                         recon.read_bytes()))
        assert outs[0] == outs[1]

    def test_invalid_thread_env_exits_2(self, gauss_config, tmp_path,
                                        monkeypatch):
        monkeypatch.setenv("GENTOMO_THREADS", "many")
        assert main(["phantom", str(gauss_config),
                     "--out", str(tmp_path / "x.gtm")]) == 2

    @pytest.mark.parametrize("raw", ["many", "-1"])
    def test_bad_thread_env_exits_2_with_message(self, gauss_field, tmp_path,
                                                 raw, monkeypatch, capsys):
        monkeypatch.setenv("GENTOMO_THREADS", raw)
        out = tmp_path / "t.gtmt"
        assert main(_forward_args(gauss_field, out)) == 2
        assert "GENTOMO_THREADS" in capsys.readouterr().err
        assert not out.exists()


class TestCheckCommand:
    def test_quadric_support_suite(self, capsys):
        assert main(["check", "quadric-support", "--seed", "1"]) == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed and "FAIL" not in printed

    def test_unknown_suite_rejected(self):
        # argparse rejects unknown choices with exit code 2
        with pytest.raises(SystemExit) as err:
            main(["check", "nonsense"])
        assert err.value.code == 2

    def test_oracle_agreement_deterministic(self, capsys):
        assert main(["check", "oracle-agreement", "--seed", "7",
                     "--samples", "50000"]) == 0
        first = capsys.readouterr().out
        assert main(["check", "oracle-agreement", "--seed", "7",
                     "--samples", "50000"]) == 0
        assert capsys.readouterr().out == first

    def test_all_prints_one_pass_line_per_row(self, capsys, monkeypatch):
        """``check all`` runs every suite of ``checks.SUITES``: one PASS
        line per row that ``run_suite("all")`` returns, each name once."""
        rows = []
        run_suite = checks.run_suite

        def recording_run_suite(*args, **kwargs):
            rows.extend(run_suite(*args, **kwargs))
            return rows

        monkeypatch.setattr(checks, "run_suite", recording_run_suite)
        assert main(["check", "all", "--samples", "50000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [r.name for r in rows]
        assert [line.split()[0] for line in lines] == names
        assert all(line.endswith(" PASS") for line in lines)
        assert len(set(names)) == len(names)
        assert {name.split("/")[0] for name in names} == set(checks.SUITES)

    def test_failing_row_exits_1(self, capsys, monkeypatch):
        row = checks.CheckResult("quadric-support/omega(X<0)", 0.5, 0.0, False)
        monkeypatch.setitem(checks.SUITES, "quadric-support", lambda **_: [row])
        assert main(["check", "quadric-support"]) == 1
        out = capsys.readouterr()
        assert out.out == "quadric-support/omega(X<0) measured=0.5 bound=0 FAIL\n"
        assert out.err == ""

    @pytest.mark.parametrize("argv", [
        ["homogeneity", "--lambda", "0"],
        ["homogeneity", "--lambda", "nan"],
        ["oracle-agreement", "--samples", "0"],
        ["oracle-agreement", "--samples", "-5"],
    ], ids=["lambda=0", "lambda=nan", "samples=0", "samples=-5"])
    def test_bad_value_exits_2(self, argv, capsys):
        assert main(["check", *argv]) == 2
        line = _one_error_line(capsys)
        assert ("lam" if argv[0] == "homogeneity" else "n_samples") in line


def _written(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def _box_tomogram(tmp_path, x_axis=(-1, 1, 5), fill=1.0):
    """A GTM-T file of a tomogram on a 2-d parameter box."""
    path = tmp_path / "box.gtmt"
    write_tomogram(path, TomogramFamily(
        x_grid=make_grid(1, [x_axis]), values=np.full((4, x_axis[2]), fill),
        family_tag="hyperplane", param_grid=make_grid(2, [(-1, 1, 2)] * 2)))
    return str(path)


class TestExitCodes:
    """Every branch of the exception-to-exit-code map in ``main`` has a
    row, and every row ends in one ``error:`` line and writes nothing."""

    @pytest.mark.parametrize("code, make_argv", [
        pytest.param(3, lambda tmp, field: [
            "forward", str(field), "--family", "hyperplane",
            "--mu-box=-1,1", "--mu-count", "4", "--x-range=-8,8",
            "--x-count", "61", "--out", str(tmp / "t.gtmt")],
            id="forward-1d-mu-box-on-2d-field"),
        pytest.param(4, lambda tmp, field: [
            "forward", str(field), "--family", "hyperplane",
            "--mu-box=-1,1;-1,1", "--mu-count", "4", "--x-range=-8,8",
            "--x-count", "61", "--out", str(tmp / "missing" / "t.gtmt")],
            id="forward-out-in-missing-dir"),
        pytest.param(4, lambda tmp, field: [
            "invert", str(tmp / "none.gtmt"), "--family", "hyperplane",
            "--q-box=-1,1;-1,1", "--q-count", "5;5",
            "--out", str(tmp / "r.gtm")], id="invert-missing-file"),
        pytest.param(4, lambda tmp, field: [
            "export", str(tmp / "none.gtm"), "--format", "csv",
            "--out", str(tmp / "x.csv")], id="export-missing-file"),
        pytest.param(2, lambda tmp, field: [
            "forward", _written(tmp, "cut.gtm", field.read_bytes()[:30]),
            "--family", "hyperplane", "--mu-box=-1,1;-1,1", "--mu-count", "4",
            "--x-range=-8,8", "--x-count", "61", "--out", str(tmp / "t.gtmt")],
            id="forward-truncated-field"),
        # a 200000^2 x 61 table is refused before any of it is allocated
        pytest.param(2, lambda tmp, field: [
            "forward", str(field), "--family", "hyperplane",
            "--mu-box=-1,1;-1,1", "--mu-count", "200000;200000",
            "--x-range=-8,8", "--x-count", "61", "--out", str(tmp / "t.gtmt")],
            id="forward-table-exceeds-memory"),
        pytest.param(2, lambda tmp, field: [
            "invert", _written(tmp, "cut.gtmt", b"GTMT\x01"),
            "--family", "hyperplane", "--q-box=-1,1;-1,1", "--q-count", "5;5",
            "--out", str(tmp / "r.gtm")], id="invert-truncated-tomogram"),
        pytest.param(2, lambda tmp, field: [
            "phantom", _written(tmp, "junk.cfg", b"no key here\n"),
            "--out", str(tmp / "t.gtm")], id="phantom-unparsable-config"),
        # a config's own dimension clash stays bad input, not exit 3
        pytest.param(2, lambda tmp, field: [
            "phantom", _written(tmp, "3d.cfg", b"type=gaussian\n"
                                b"mean=0,0,0\ncov=1,0,0,0,1,0,0,0,1\n"
                                b"grid=-6,6,16;-6,6,16\n"),
            "--out", str(tmp / "t.gtm")], id="phantom-config-rank-clash"),
        # a non-finite phantom parameter is refused, not sampled to NaN
        pytest.param(2, lambda tmp, field: [
            "forward", _written(tmp, "nan.cfg", b"type=gaussian\n"
                                b"mean=0,nan\ncov=1,0,0,1\n"),
            "--family", "hyperplane", "--mu-box=-1,1;-1,1", "--mu-count", "4",
            "--x-range=-8,8", "--x-count", "61", "--q-box=-6,6;-6,6",
            "--q-count", "32", "--out", str(tmp / "t.gtmt")],
            id="forward-non-finite-phantom"),
    ])
    def test_one_error_line(self, tmp_path, gauss_field, code, make_argv,
                            capsys):
        capsys.readouterr()
        assert main(make_argv(tmp_path, gauss_field)) == code
        _one_error_line(capsys)
        assert not list(tmp_path.glob("[tr].gtm*"))

    @pytest.mark.parametrize("code, needle, make_argv", [
        pytest.param(2, "square row-major", lambda tmp, field: _forward_args(
            field, tmp / "t.gtmt", "quadric", ["--B", "1,0,1"]),
            id="B-not-square"),
        pytest.param(3, "--B is 3x3", lambda tmp, field: _forward_args(
            field, tmp / "t.gtmt", "quadric", ["--B", "1,0,0,0,1,0,0,0,1"]),
            id="B-3x3-on-2d-data"),
        # a non-finite B, or one whose symmetrized form overflows, is
        # refused by name, with no numpy RuntimeWarning on the way
        *[pytest.param(2, "B must be finite", lambda tmp, field, B=B:
                       _forward_args(field, tmp / "t.gtmt", "quadric",
                                     ["--B", B]),
                       id=f"B-{name}",
                       marks=pytest.mark.filterwarnings("error"))
          for name, B in [("nan", "nan,0,0,1"), ("inf", "inf,0,0,1"),
                          ("overflowing", "1e308,0,0,1e308")]],
        pytest.param(2, "disagree in axis count", lambda tmp, field: [
            "forward", str(field), "--family", "hyperplane",
            "--mu-box=-1,1;-1,1", "--mu-count", "4;4;4", "--x-range=-8,8",
            "--x-count", "61", "--out", str(tmp / "t.gtmt")],
            id="box-and-count-disagree"),
        pytest.param(2, "bad grid flags", lambda tmp, field: [
            "forward", str(field), "--family", "hyperplane",
            "--mu-box=a,1;-1,1", "--mu-count", "4", "--x-range=-8,8",
            "--x-count", "61", "--out", str(tmp / "t.gtmt")],
            id="mu-box-not-numeric"),
        pytest.param(2, "bad X grid flags", lambda tmp, field: [
            "forward", str(field), "--family", "hyperplane",
            "--mu-box=-1,1;-1,1", "--mu-count", "4", "--x-range=-5",
            "--x-count", "61", "--out", str(tmp / "t.gtmt")],
            id="x-range-one-number"),
        pytest.param(2, "require --q-box", lambda tmp, field: _forward_args(
            _written(tmp, "g.cfg", GAUSS_CFG.encode()), tmp / "t.gtmt"),
            id="phantom-without-q-box"),
        # the phantom sampling grid takes both flags; a field has its own
        pytest.param(2, "require --q-box", lambda tmp, field: _forward_args(
            _written(tmp, "g.cfg", GAUSS_CFG.encode()), tmp / "t.gtmt",
            extra=["--q-box=-6,6;-6,6"]), id="phantom-q-box-alone"),
        pytest.param(2, "require --q-box", lambda tmp, field: _forward_args(
            _written(tmp, "g.cfg", GAUSS_CFG.encode()), tmp / "t.gtmt",
            extra=["--q-count", "32"]), id="phantom-q-count-alone"),
        pytest.param(2, "apply to phantom sources",
                     lambda tmp, field: _forward_args(
                         field, tmp / "t.gtmt", extra=["--q-box=-6,6;-6,6"]),
                     id="field-with-q-box"),
        pytest.param(2, "apply to phantom sources",
                     lambda tmp, field: _forward_args(
                         field, tmp / "t.gtmt", extra=["--q-count", "32"]),
                     id="field-with-q-count"),
        pytest.param(3, "even-dimensional", lambda tmp, field: _forward_args(
            _written(tmp, "g3.cfg", GAUSS3_CFG.encode()), tmp / "t.gtmt",
            "hyperboloid", ["--q-box=-4,4;-4,4;-4,4", "--q-count", "8"]),
            id="hyperboloid-on-3d-data"),
        pytest.param(2, "one-dimensional parameter", lambda tmp, field: [
            "export", _box_tomogram(tmp), "--format", "pgm",
            "--out", str(tmp / "t.pgm")], id="pgm-of-2d-parameter-box"),
        pytest.param(2, "takes neither --B nor --split",
                     lambda tmp, field: _forward_args(
                         field, tmp / "t.gtmt", "hyperplane",
                         ["--B", "5,0,0,5", "--split", "7"]),
                     id="B-and-split-on-hyperplane"),
        pytest.param(2, "takes neither --B nor --split",
                     lambda tmp, field: _forward_args(
                         field, tmp / "t.gtmt", "circle", ["--B", "5,0,0,5"]),
                     id="B-on-circle"),
        pytest.param(2, "takes neither --B nor --split",
                     lambda tmp, field: _forward_args(
                         field, tmp / "t.gtmt", "circle", ["--split", "1"]),
                     id="split-on-circle"),
        pytest.param(2, "takes neither --B nor --split", lambda tmp, field: [
            "invert", _box_tomogram(tmp), "--family", "hyperplane",
            "--B", "5,0,0,5", "--q-box=-1,1;-1,1", "--q-count", "3",
            "--out", str(tmp / "t.gtm")], id="invert-B-on-hyperplane"),
        pytest.param(2, "not below pi", lambda tmp, field: [
            "invert", _box_tomogram(tmp, x_axis=(-10, 10, 5)),
            "--family", "hyperplane", "--q-box=-1,1;-1,1", "--q-count", "3",
            "--out", str(tmp / "t.gtm")], id="invert-x-grid-too-coarse"),
        # refused when read, with the file named, not after the kernel sum
        pytest.param(2, "box.gtmt", lambda tmp, field: [
            "invert", _box_tomogram(tmp, fill=np.nan),
            "--family", "hyperplane", "--q-box=-1,1;-1,1", "--q-count", "3",
            "--out", str(tmp / "t.gtm")], id="invert-nan-tomogram"),
        # a finite width whose 2 width^2 overflows or reaches 0 is refused
        # by the library: no OverflowError traceback, no NaN window
        *[pytest.param(2, "taper width must lie in", lambda tmp, field,
                       width=width: [
            "invert", _box_tomogram(tmp), "--family", "hyperplane",
            f"--taper={width}", "--q-box=-1,1;-1,1", "--q-count", "3",
            "--out", str(tmp / "t.gtm")], id=f"invert-taper-{width}",
            marks=pytest.mark.filterwarnings("error"))
          for width in ("1e-200", "1e200")],
    ])
    def test_bad_flags(self, tmp_path, gauss_field, code, needle, make_argv,
                       capsys):
        """Each flag the commands check, and each input file the library
        refuses, maps to its documented exit code and one ``error:`` line
        that names it, and writes nothing."""
        argv = make_argv(tmp_path, gauss_field)
        capsys.readouterr()
        assert main(argv) == code
        assert needle in _one_error_line(capsys)
        assert not list(tmp_path.glob("t.*"))

    @pytest.mark.parametrize("owner, name, make_argv", [
        (cli, "forward_binned", lambda tmp, tomo, field: _forward_args(
            field, tmp / "t.gtmt")),
        (cli, "invert_for_family", lambda tmp, tomo, field: [
            "invert", str(tomo), "--family", "hyperplane",
            "--q-box=-3,3;-3,3", "--q-count", "9;9",
            "--out", str(tmp / "r.gtm")]),
        (checks, "run_suite", lambda tmp, tomo, field: [
            "check", "oracle-agreement", "--samples", "1000"]),
    ], ids=["forward", "invert", "check"])
    @pytest.mark.parametrize("text", ["", "Unable to allocate 7.28 TiB"])
    def test_memory_error_exits_2(self, tmp_path, gauss_field, owner, name,
                                  make_argv, text, capsys, monkeypatch):
        """A size too large to allocate, such as ``--q-count
        1000000;1000000``, exits 2; a stand-in raises the MemoryError, since
        a real one could instead be OOM-killed on an overcommitting host."""
        tomo = tmp_path / "in.gtmt"
        assert main(_forward_args(gauss_field, tomo)) == 0

        def refuse(*args, **kwargs):
            raise MemoryError(text)

        monkeypatch.setattr(owner, name, refuse)
        capsys.readouterr()
        assert main(make_argv(tmp_path, tomo, gauss_field)) == 2
        line = _one_error_line(capsys)
        assert line == "error: out of memory" + (f": {text}" if text else "")
        assert not list(tmp_path.glob("[tr].gtm*"))
