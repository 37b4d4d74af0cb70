import math
import re
import shutil
import struct
import subprocess
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentomo import _native, formats
from gentomo._native import build_library, load_function
from gentomo.cli import main
from gentomo.core import (GaussianMixture, ScalarField, TomogramFamily,
                          UniformBall, UniformBox, make_grid, sample_phantom,
                          standard_gaussian)
from gentomo.formats import (FormatError, grid_from_config, number_list,
                             parse_config, phantom_from_config, read_field,
                             read_tomogram, write_field, write_field_csv,
                             write_pgm, write_tomogram, write_tomogram_csv)
from gentomo.geometry import FAMILY_NAMES


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

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_every_family_name_roundtrips(self, tomogram, name, tmp_path):
        p = tmp_path / "a.gtmt"
        write_tomogram(p, replace(tomogram, family_tag=name))
        assert read_tomogram(p).family_tag == name

    @pytest.mark.parametrize("code,name", [
        (1, "hyperplane"), (2, "circle"), (3, "hyperbola"), (4, "hyperboloid"),
        (5, "quadric"), (6, "hybrid"), (7, "deformed")])
    def test_each_code_reads_its_family(self, code, name, tmp_path):
        """Files written before hold these codes, so a reordered
        FAMILY_NAMES fails here."""
        p = tmp_path / "a.gtmt"
        p.write_bytes(b"GTMT" + struct.pack("<H", code)
                      + struct.pack("<IddI", 1, -1.0, 1.0, 2)
                      + struct.pack("<IddI", 1, -1.0, 1.0, 3)
                      + bytes(8 * 2 * 3))
        assert read_tomogram(p).family_tag == name

    def test_unknown_tag_rejected(self, tomogram, tmp_path):
        p = tmp_path / "a.gtmt"
        write_tomogram(p, tomogram)
        raw = bytearray(p.read_bytes())
        raw[4:6] = (999).to_bytes(2, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"999 in {re.escape(str(p))}"):
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

    def test_overflowing_box_spacing_is_a_format_error(self, tmp_path):
        """A parameter box of finite bounds whose spacing overflows, which
        read as NaN parameter points."""
        p = tmp_path / "a.gtmt"
        p.write_bytes(b"GTMT" + struct.pack("<H", 1)
                      + struct.pack("<IddI", 1, -1e308, 1e308, 2)
                      + struct.pack("<IddI", 1, -1.0, 1.0, 3)
                      + bytes(8 * 2 * 3))
        with pytest.raises(FormatError, match="overflows"):
            read_tomogram(p)

    def test_tomogram_without_a_box_rejected(self, tomogram, tmp_path):
        points_only = TomogramFamily(
            x_grid=tomogram.x_grid, param_points=tomogram.param_points,
            values=tomogram.values, family_tag="hyperplane")
        p = tmp_path / "a.gtmt"
        with pytest.raises(FormatError, match="parameter box"):
            write_tomogram(p, points_only)
        assert not p.exists()


_READERS = {"gtm": (write_field, read_field),
            "gtmt": (write_tomogram, read_tomogram)}


class TestPayloadValues:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["gtm", "gtmt"])
    def test_non_finite_value_is_a_format_error(self, field, tomogram, kind,
                                                bad, tmp_path):
        obj = field if kind == "gtm" else tomogram
        write, read = _READERS[kind]
        p = tmp_path / f"a.{kind}"
        write(p, obj)
        raw = bytearray(p.read_bytes())
        raw[-16:-8] = struct.pack("<d", bad)
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError,
                           match=f"non-finite value in {re.escape(str(p))}"):
            read(p)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["gtm", "gtmt"]), data=st.data())
    def test_any_byte_overwrite_reads_or_is_a_format_error(self, kind, data,
                                                           tmp_path_factory):
        """A small file with one byte replaced either reads or raises
        FormatError, whatever the byte and its place."""
        write, read = _READERS[kind]
        p = tmp_path_factory.getbasetemp() / f"overwrite.{kind}"
        grid = make_grid(1, [(-1, 1, 2)])
        write(p, ScalarField(grid, np.ones(2)) if kind == "gtm" else
              TomogramFamily(x_grid=grid, param_grid=grid,
                             values=np.ones((2, 2)), family_tag="quadric"))
        raw = bytearray(p.read_bytes())
        # 0x7f or 0xff over the top byte of 1.0 makes an infinity
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.one_of(
            st.sampled_from([0x00, 0x7F, 0x80, 0xFF]), st.integers(0, 255)))
        p.write_bytes(bytes(raw))
        try:
            read(p)
        except FormatError:
            pass


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


def _both_paths(monkeypatch, write, path):
    """The bytes ``write(path)`` leaves with the compiled formatter (where
    it builds), then with the repr join."""
    write(path)
    compiled = path.read_bytes()
    with monkeypatch.context() as repr_path:
        repr_path.setattr(_native, "build_library", lambda helper: (None, ""))
        write(path)
    return compiled, path.read_bytes()


class TestCSV:
    @pytest.mark.parametrize("axes", [
        [(-2, 2, 9)],
        [(-2, 2, 9), (-1, 3, 5)],
        [(-0.3, 0.7, 4), (-1, 3, 5), (1e-7, 2e5, 3)],
    ])
    def test_field_csv_equals_rowwise_writer(self, axes, tmp_path,
                                             monkeypatch):
        grid = make_grid(len(axes), axes)
        rng = np.random.default_rng(len(axes))
        f = ScalarField(grid, rng.normal(size=grid.size) * 10.0 ** rng
                        .integers(-300, 300, size=grid.size))
        _rowwise_field_csv(tmp_path / "b.csv", f)
        expect = (tmp_path / "b.csv").read_bytes()
        compiled, joined = _both_paths(
            monkeypatch, lambda p: write_field_csv(p, f), tmp_path / "a.csv")
        assert compiled == expect
        assert joined == expect

    @pytest.mark.parametrize("param_axes", [
        [(-1, 1, 7)],
        [(-1, 1, 3), (-0.1, 0.35, 4)],
    ])
    def test_tomogram_csv_equals_rowwise_writer(self, param_axes, tmp_path,
                                                monkeypatch):
        pg = make_grid(len(param_axes), param_axes)
        xg = make_grid(1, [(-3.3, 7.1, 29)])
        rng = np.random.default_rng(7)
        values = rng.random((pg.size, xg.size))
        values[0, :3] = (0.0, 1e-320, 5e300)
        t = TomogramFamily(x_grid=xg, param_grid=pg, values=values,
                           family_tag="circle")
        _rowwise_tomogram_csv(tmp_path / "b.csv", t)
        expect = (tmp_path / "b.csv").read_bytes()
        compiled, joined = _both_paths(
            monkeypatch, lambda p: write_tomogram_csv(p, t), tmp_path / "a.csv")
        assert compiled == expect
        assert joined == expect

    @pytest.mark.parametrize("block_bytes", [1, 3000, 1 << 20])
    def test_every_block_size_gives_equal_bytes(self, tomogram, block_bytes,
                                                tmp_path, monkeypatch):
        """One row per block, a few rows per block and the whole table in
        one block, on both paths."""
        _rowwise_tomogram_csv(tmp_path / "b.csv", tomogram)
        monkeypatch.setattr(formats, "_CSV_BLOCK_BYTES", block_bytes)
        compiled, joined = _both_paths(
            monkeypatch, lambda p: write_tomogram_csv(p, tomogram),
            tmp_path / "a.csv")
        assert compiled == (tmp_path / "b.csv").read_bytes() == joined

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


@pytest.fixture(scope="module")
def compiled_formatter():
    fmt = load_function(*formats._FORMATTER)
    if fmt is None:
        pytest.skip("no compiled formatter: "
                    + build_library("_csvformat.cpp")[1])
    return fmt


def _compiled_reprs(fmt, values) -> list[str]:
    """The values through the compiled formatter, as one row of cells
    with empty prefix and tails."""
    row = np.array(values, dtype=np.float64).reshape(1, -1)
    block = formats._compiled_rows(fmt, [""], [""] * row.shape[1], row,
                                   row.shape[1] * formats._MAX_VALUE_BYTES)
    return bytes(block(0, 1)).decode("ascii").split("\n")[:-1]


def _with_neighbours(values):
    """Each value with its one-ulp neighbours, and all of them negated."""
    out = [v for x in values for v in (np.nextafter(x, 0.0), x,
                                       np.nextafter(x, math.inf))]
    return out + [-v for v in out]


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


class TestCompiledFormatter:
    """The compiled formatter spells every double as repr does."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=64))
    def test_finite_floats_match_repr(self, compiled_formatter, values):
        assert _compiled_reprs(compiled_formatter, values) \
            == [repr(v) for v in values]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1).map(_bits_to_float)
                    .filter(math.isfinite), min_size=1, max_size=64))
    def test_finite_bit_patterns_match_repr(self, compiled_formatter,
                                            values):
        assert _compiled_reprs(compiled_formatter, values) \
            == [repr(v) for v in values]

    @pytest.mark.parametrize("values", [
        pytest.param([0.0, -0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0,
                      1e-05, 0.0001, 2.2250738585072014e-308,
                      1.7976931348623157e308], id="edges"),
        pytest.param(_with_neighbours([math.ldexp(1.0, k)
                                       for k in range(-1074, 1024)]),
                     id="powers-of-two"),
        pytest.param(_with_neighbours([float(f"1e{k}")
                                       for k in range(-323, 309)]),
                     id="powers-of-ten"),
        pytest.param([math.nan, _bits_to_float(0xFFF8000000000000), math.inf,
                      -math.inf], id="non-finite"),
    ])
    def test_explicit_values_match_repr(self, compiled_formatter, values):
        assert _compiled_reprs(compiled_formatter, values) \
            == [repr(float(v)) for v in values]

    def test_non_finite_tomogram_values_match_rowwise_writer(
            self, compiled_formatter, tmp_path, monkeypatch):
        """A field holds only finite values; a tomogram may hold NaN of
        either sign and infinities, which repr spells nan, inf and -inf."""
        values = np.array([[math.nan, _bits_to_float(0xFFF8000000000000),
                            math.inf, -math.inf, 1.0]])
        t = TomogramFamily(x_grid=make_grid(1, [(0, 1, 5)]),
                           param_grid=make_grid(1, [(0, 1, 2)]),
                           values=np.vstack([values, -values]),
                           family_tag="hyperplane")
        _rowwise_tomogram_csv(tmp_path / "b.csv", t)
        compiled, joined = _both_paths(
            monkeypatch, lambda p: write_tomogram_csv(p, t), tmp_path / "a.csv")
        assert compiled == (tmp_path / "b.csv").read_bytes() == joined
        assert b"-nan" not in compiled

    def test_rows_that_overrun_the_buffer_are_refused(self,
                                                      compiled_formatter):
        block = formats._compiled_rows(compiled_formatter, ["1.0,"], ["2.0,"],
                                       np.ones((1, 1)), 10)
        with pytest.raises(RuntimeError, match="overran"):
            block(0, 1)

    def test_source_compiles_without_warnings(self, tmp_path):
        cxx = shutil.which("c++") or shutil.which("g++")
        if cxx is None:
            pytest.skip("no C++ compiler on PATH")
        proc = subprocess.run(
            [cxx, *_native._FLAGS["c++"], "-Wall", "-Wextra", "-Werror",
             "-o", str(tmp_path / "csvformat.so"),
             str(_native._SOURCE_DIR / "_csvformat.cpp")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


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

    def test_gaussian_is_a_one_component_mixture(self):
        ph = phantom_from_config(parse_config(
            "type=gaussian\nmean=1,0\ncov=2,0.5,0.5,1\n"))
        mix = phantom_from_config(parse_config(
            "type=mixture\nweight1=1\nmean1=1,0\ncov1=2,0.5,0.5,1\n"))
        assert (ph.weights, ph.means, ph.covariances) \
            == (mix.weights, mix.means, mix.covariances)

    @pytest.mark.parametrize("text, key", [
        ("type=gaussian\nmean=0,0\ncov=1,0,0\n", "cov"),
        ("type=mixture\nweight1=0.5\nmean1=0,0\ncov1=1,0,0,1\n"
         "weight2=0.5\nmean2=1,0\ncov2=1,0\n", "cov2"),
    ], ids=["gaussian", "mixture"])
    def test_bad_covariance_names_its_key(self, text, key):
        with pytest.raises(FormatError, match=f"^{key} must hold"):
            phantom_from_config(parse_config(text))

    @pytest.mark.parametrize("text, key", [
        ("type=mixture\nweight1=1\nmean1=0,0\ncov1=1,0,0,1\nweight3=0.5\n",
         "weight3"),
        ("type=mixture\nweight1=1\nmean1=0,0\ncov1=1,0,0,1\nmean2=1,1\n",
         "mean2"),
        ("type=gaussian\nmean=0,0\ncov=1,0,0,1\ncov1=1,0,0,1\n", "cov1"),
    ], ids=["weight-past-a-gap", "mean-without-weight", "numbered-gaussian"])
    def test_unread_component_key_rejected(self, text, key):
        with pytest.raises(FormatError, match=f"reads config key '{key}'$"):
            phantom_from_config(parse_config(text))

    @pytest.mark.parametrize("text, key", [
        ("type=gaussian\n", "mean"),
        ("type=gaussian\nmean=0,0\ncov=\n", "cov"),
        ("type=mixture\nweight1=1\ncov1=1,0,0,1\n", "mean1"),
        ("type=mixture\nweight1=\nmean1=0,0\ncov1=1,0,0,1\n", "weight1"),
        ("type=ball\nradius=1\n", "center"),
        ("type=ball\ncenter=0,0\nradius=\n", "radius"),
        ("type=box\nmax=1,1\n", "min"),
        ("type=box\nmin=0,0\n", "max"),
    ], ids=["mean", "empty-cov", "mean1", "empty-weight1", "center",
            "empty-radius", "min", "max"])
    def test_missing_key_named(self, text, key):
        with pytest.raises(FormatError, match=f"missing a value for '{key}'$"):
            phantom_from_config(parse_config(text))

    @pytest.mark.parametrize("text, key, value", [
        ("type=ball\ncenter=0,0\nradius=abc\n", "radius", "abc"),
        ("type=gaussian\nmean=0,x\ncov=1,0,0,1\n", "mean", "0,x"),
        ("type=mixture\nweight1=half\nmean1=0,0\ncov1=1,0,0,1\n",
         "weight1", "half"),
        # an empty token is malformed, not skipped
        ("type=gaussian\nmean=0,,0\ncov=1,0,0,1\n", "mean", "0,,0"),
        ("type=box\nmin=-1,-1\nmax=1,1,\n", "max", "1,1,"),
    ], ids=["ball-radius", "gaussian-mean", "mixture-weight",
            "mean-doubled-comma", "max-trailing-comma"])
    def test_malformed_number_names_its_key(self, text, key, value):
        with pytest.raises(FormatError, match=f"^config key '{key}' holds a "
                           f"malformed number: '{value}'$"):
            phantom_from_config(parse_config(text))

    def test_semicolon_in_a_phantom_list_reads_as_a_comma(self):
        rows = phantom_from_config(parse_config(
            "type=gaussian\nmean=0,0\ncov=2,0.5;0.5,1\n"))
        flat = phantom_from_config(parse_config(
            "type=gaussian\nmean=0,0\ncov=2,0.5,0.5,1\n"))
        assert np.array_equal(rows.covariances[0], flat.covariances[0])

    @pytest.mark.parametrize("text", [
        "-6,,6,16;-6,6,16", "-6,6,16;;-6,6,16", "-6,6,16;-6,6,16;",
        "-6,6,16,;-6,6,16"],
        ids=["doubled-comma", "empty-axis", "trailing-semicolon",
             "trailing-comma"])
    def test_empty_token_in_grid_names_the_key(self, text):
        with pytest.raises(FormatError, match="^config key 'grid' holds a "
                           f"malformed number: '{text}'$"):
            grid_from_config({"grid": text})

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=8),
           st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(1e-3, 1e6),
                              st.integers(2, 512)), min_size=1, max_size=4),
           st.data())
    def test_number_lists_read_back_and_refuse_an_empty_token(
            self, values, axes, data):
        """A repr-written list reads back equal, alone and as grid axes,
        and an empty token at any position is refused."""
        tokens = [repr(v) for v in values]
        assert number_list(",".join(tokens)) == values
        specs = tuple((lo, lo + width, n) for lo, width, n in axes)
        text = ";".join(f"{lo!r},{hi!r},{n!r}" for lo, hi, n in specs)
        assert grid_from_config({"grid": text}).axes == specs

        def hole(tokens):
            at = data.draw(st.integers(0, len(tokens)))
            return ",".join(tokens[:at] + [""] + tokens[at:])

        holed = hole(tokens)
        with pytest.raises(ValueError):
            number_list(holed)
        with pytest.raises(FormatError, match="^config key 'mean' holds"):
            phantom_from_config({"type": "gaussian", "mean": holed})
        with pytest.raises(FormatError, match="^config key 'grid' holds"):
            grid_from_config({"grid": hole(text.split(","))})

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
