import re
import struct

import numpy as np
import pytest

from gentomo.cli import main
from gentomo.core import (GaussianMixture, ScalarField, TomogramFamily,
                          UniformBall, UniformBox, make_grid, sample_phantom,
                          standard_gaussian)
from gentomo.formats import (FormatError, grid_from_config, parse_config,
                             phantom_from_config, read_field, read_tomogram,
                             write_field, write_field_csv, write_pgm,
                             write_tomogram, write_tomogram_csv)


@pytest.fixture
def field():
    grid = make_grid(2, [(-2, 2, 9), (-1, 3, 5)])
    return sample_phantom(standard_gaussian(2), grid)


@pytest.fixture
def tomogram():
    xg = make_grid(1, [(-3, 3, 13)])
    pg = make_grid(2, [(-1, 1, 3), (-1, 1, 3)])
    rng = np.random.default_rng(5)
    return TomogramFamily(x_grid=xg, param_grid=pg,
                          values=rng.random((9, 13)), family_tag="hyperplane")


class TestGTM:
    def test_field_roundtrip_bit_identical(self, field, tmp_path):
        p1, p2 = tmp_path / "a.gtm", tmp_path / "b.gtm"
        write_field(p1, field)
        back = read_field(p1)
        assert back.grid == field.grid
        assert np.array_equal(back.values, field.values)
        write_field(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, field, tmp_path):
        p = tmp_path / "a.gtm"
        write_field(p, field)
        raw = p.read_bytes()
        assert raw[:4] == b"GTM1"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert len(raw) == 4 + 4 + 2 * 20 + 8 * field.grid.size

    def test_rejects_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.gtm"
        p.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(FormatError):
            read_field(p)

    def test_rejects_truncated_payload(self, field, tmp_path):
        p = tmp_path / "a.gtm"
        write_field(p, field)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_field(p)

    def test_every_truncation_is_a_format_error(self, field, tmp_path):
        p = tmp_path / "a.gtm"
        write_field(p, field)
        raw = p.read_bytes()
        for n in range(len(raw)):
            p.write_bytes(raw[:n])
            with pytest.raises(FormatError):
                read_field(p)

    def test_invalid_axis_in_header_is_a_format_error(self, tmp_path):
        p = tmp_path / "a.gtm"
        p.write_bytes(b"GTM1" + struct.pack("<IddI", 1, -1.0, 1.0, 1)
                      + bytes(8))
        with pytest.raises(FormatError, match="count"):
            read_field(p)


class TestGTMT:
    def test_tomogram_roundtrip_bit_identical(self, tomogram, tmp_path):
        p1, p2 = tmp_path / "a.gtmt", tmp_path / "b.gtmt"
        write_tomogram(p1, tomogram)
        back = read_tomogram(p1)
        assert back.family_tag == "hyperplane"
        assert back.x_grid == tomogram.x_grid
        assert back.param_grid == tomogram.param_grid
        assert np.array_equal(back.values, tomogram.values)
        write_tomogram(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_tag_encoding(self, tomogram, tmp_path):
        p = tmp_path / "a.gtmt"
        write_tomogram(p, tomogram)
        raw = p.read_bytes()
        assert raw[:4] == b"GTMT"
        assert int.from_bytes(raw[4:6], "little") == 1  # hyperplane

    def test_unknown_tag_rejected(self, tomogram, tmp_path):
        p = tmp_path / "a.gtmt"
        write_tomogram(p, tomogram)
        raw = bytearray(p.read_bytes())
        raw[4:6] = (999).to_bytes(2, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_tomogram(p)

    def test_every_truncation_is_a_format_error(self, tomogram, tmp_path):
        p = tmp_path / "a.gtmt"
        write_tomogram(p, tomogram)
        raw = p.read_bytes()
        for n in range(len(raw)):
            p.write_bytes(raw[:n])
            with pytest.raises(FormatError):
                read_tomogram(p)

    def test_x_grid_of_two_dimensions_is_a_format_error(self, tmp_path):
        # a 1-d hyperplane box of 3 parameters, a 2-d X grid and a payload
        # of the size those headers give
        p = tmp_path / "a.gtmt"
        p.write_bytes(b"GTMT" + struct.pack("<H", 1)
                      + struct.pack("<IddI", 1, -1.0, 1.0, 3)
                      + struct.pack("<IddIddI", 2, -1.0, 1.0, 4, -1.0, 1.0, 5)
                      + bytes(8 * 3 * 20))
        with pytest.raises(FormatError, match=f"X grid .* in {re.escape(str(p))}"):
            read_tomogram(p)
        assert main(["export", str(p), "--format", "csv",
                     "--out", str(tmp_path / "a.csv")]) == 2

    def test_tomogram_without_a_box_rejected(self, tomogram, tmp_path):
        points_only = TomogramFamily(
            x_grid=tomogram.x_grid, param_points=tomogram.param_points,
            values=tomogram.values, family_tag="hyperplane")
        p = tmp_path / "a.gtmt"
        with pytest.raises(FormatError, match="parameter box"):
            write_tomogram(p, points_only)
        assert not p.exists()


def _rowwise_field_csv(path, field):
    """Reference field export: one formatted line per grid point."""
    names = [f"q{i + 1}" for i in range(field.grid.ndim)]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names + ["value"]) + "\n")
        for row, v in zip(field.grid.points(), field.flat):
            fh.write(",".join(repr(float(c)) for c in row)
                     + f",{float(v)!r}\n")


def _rowwise_tomogram_csv(path, t):
    """Reference tomogram export: one write per (parameter, X) value."""
    names = [f"param{i + 1}" for i in range(t.param_grid.ndim)]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names + ["X", "omega"]) + "\n")
        for p_row, v_row in zip(t.param_grid.points(), t.values):
            prefix = ",".join(repr(float(c)) for c in p_row)
            for xv, om in zip(t.x_grid.axis_points(0), v_row):
                fh.write(prefix + f",{float(xv)!r},{float(om)!r}\n")


class TestCSV:
    @pytest.mark.parametrize("axes", [
        [(-2, 2, 9)],
        [(-2, 2, 9), (-1, 3, 5)],
        [(-0.3, 0.7, 4), (-1, 3, 5), (1e-7, 2e5, 3)],
    ])
    def test_field_csv_equals_rowwise_writer(self, axes, tmp_path):
        grid = make_grid(len(axes), axes)
        rng = np.random.default_rng(len(axes))
        f = ScalarField(grid, rng.normal(size=grid.size) * 10.0 ** rng
                        .integers(-300, 300, size=grid.size))
        write_field_csv(tmp_path / "a.csv", f)
        _rowwise_field_csv(tmp_path / "b.csv", f)
        assert (tmp_path / "a.csv").read_bytes() \
            == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("param_axes", [
        [(-1, 1, 7)],
        [(-1, 1, 3), (-0.1, 0.35, 4)],
    ])
    def test_tomogram_csv_equals_rowwise_writer(self, param_axes, tmp_path):
        pg = make_grid(len(param_axes), param_axes)
        xg = make_grid(1, [(-3.3, 7.1, 29)])
        rng = np.random.default_rng(7)
        values = rng.random((pg.size, xg.size))
        values[0, :3] = (0.0, 1e-320, 5e300)
        t = TomogramFamily(x_grid=xg, param_grid=pg, values=values,
                           family_tag="circle")
        write_tomogram_csv(tmp_path / "a.csv", t)
        _rowwise_tomogram_csv(tmp_path / "b.csv", t)
        assert (tmp_path / "a.csv").read_bytes() \
            == (tmp_path / "b.csv").read_bytes()

    def test_field_csv_layout(self, field, tmp_path):
        p = tmp_path / "f.csv"
        write_field_csv(p, field)
        lines = p.read_text().split("\n")
        assert lines[0] == "q1,q2,value"
        assert len(lines) == 1 + field.grid.size + 1  # header + rows + EOF
        first = lines[1].split(",")
        assert float(first[0]) == -2.0 and float(first[1]) == -1.0

    def test_tomogram_csv_layout(self, tomogram, tmp_path):
        p = tmp_path / "t.csv"
        write_tomogram_csv(p, tomogram)
        lines = p.read_text().split("\n")
        assert lines[0] == "param1,param2,X,omega"
        assert len(lines) == 1 + 9 * 13 + 1

    def test_csv_roundtrips_values_exactly(self, field, tmp_path):
        p = tmp_path / "f.csv"
        write_field_csv(p, field)
        rows = p.read_text().strip().split("\n")[1:]
        vals = np.array([float(r.split(",")[-1]) for r in rows])
        assert np.array_equal(vals, field.flat)


class TestPGM:
    def test_basic_pgm(self, tmp_path):
        p = tmp_path / "img.pgm"
        values = np.arange(12, dtype=float).reshape(3, 4)
        lo, hi = write_pgm(p, values)
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        pix = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8)
        assert pix[0] == 0 and pix[-1] == 255
        assert (lo, hi) == (0.0, 11.0)

    def test_peak_pixel_at_density_peak(self, tmp_path):
        grid = make_grid(2, [(-3, 3, 31), (-3, 3, 31)])
        f = sample_phantom(standard_gaussian(2), grid)
        p = tmp_path / "g.pgm"
        write_pgm(p, f.values)
        pix = np.frombuffer(p.read_bytes().split(b"255\n", 1)[1],
                            dtype=np.uint8).reshape(31, 31)
        assert pix[15, 15] == 255

    def test_constant_field_maps_to_zero(self, tmp_path):
        p = tmp_path / "c.pgm"
        write_pgm(p, np.full((4, 4), 7.0))
        pix = np.frombuffer(p.read_bytes().split(b"255\n", 1)[1],
                            dtype=np.uint8)
        assert np.all(pix == 0)

    def test_rejects_3d(self, tmp_path):
        with pytest.raises(FormatError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))


class TestConfig:
    def test_parse_basics(self):
        cfg = parse_config("a = 1\n# comment\nb= two # tail\n\nc =3\n")
        assert cfg == {"a": "1", "b": "two", "c": "3"}

    def test_parse_rejects_bad_line(self):
        with pytest.raises(FormatError):
            parse_config("not a pair\n")

    def test_gaussian_phantom(self):
        ph = phantom_from_config(parse_config(
            "type=gaussian\nmean=0,0\ncov=1,0,0,1\n"))
        assert isinstance(ph, GaussianMixture)
        assert ph.ndim == 2

    def test_mixture_phantom(self):
        text = ("type=mixture\n"
                "weight1=0.5\nmean1=2,0\ncov1=1,0,0,1\n"
                "weight2=0.5\nmean2=-2,0\ncov2=1,0,0,1\n")
        ph = phantom_from_config(parse_config(text))
        assert isinstance(ph, GaussianMixture)
        assert len(ph.weights) == 2

    def test_ball_and_box(self):
        ball = phantom_from_config(parse_config("type=ball\ncenter=0,0\nradius=1\n"))
        assert isinstance(ball, UniformBall)
        box = phantom_from_config(parse_config("type=box\nmin=-1,-1\nmax=1,1\n"))
        assert isinstance(box, UniformBox)

    def test_grid_spec(self):
        g = grid_from_config(parse_config("grid=-6,6,256;-6,6,128\n"))
        assert g.shape == (256, 128)

    def test_unknown_type(self):
        with pytest.raises(FormatError):
            phantom_from_config(parse_config("type=blob\n"))
