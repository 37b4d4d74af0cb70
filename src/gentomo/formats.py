"""Self-describing binary formats, text exports and flat config parsing.

GTM  (fields):    magic "GTM1" | u32 ndim | per axis: f64 min, f64 max,
                  u32 count | row-major f64 values.
GTM-T (tomograms): magic "GTMT" | u16 family tag | parameter grid spec |
                  X grid spec | values as (param points, X points) rows.
All integers and floats are little-endian; write-then-read round-trips are
bit-identical.
"""

from __future__ import annotations

import ctypes
import struct
from pathlib import Path

import numpy as np

from ._native import build_library
from .core import (GridError, GridSpec, ScalarField, TomogramFamily,
                   GaussianMixture, Phantom, UniformBall, UniformBox)
from .geometry import FAMILY_NAMES

FIELD_MAGIC = b"GTM1"
TOMOGRAM_MAGIC = b"GTMT"


class FormatError(ValueError):
    """Malformed or mismatched file content."""


def _pack_grid(grid: GridSpec) -> bytes:
    out = [struct.pack("<I", grid.ndim)]
    for lo, hi, n in grid.axes:
        out.append(struct.pack("<ddI", lo, hi, n))
    return b"".join(out)


def _unpack_grid(buf: bytes, off: int) -> tuple[GridSpec, int]:
    if len(buf) < off + 4:
        raise FormatError("file ends inside a grid header")
    (ndim,) = struct.unpack_from("<I", buf, off)
    off += 4
    if len(buf) < off + 20 * ndim:
        raise FormatError("file ends inside a grid header")
    axes = []
    for _ in range(ndim):
        lo, hi, n = struct.unpack_from("<ddI", buf, off)
        off += 20
        axes.append((lo, hi, n))
    try:
        return GridSpec(tuple(axes)), off
    except GridError as exc:
        raise FormatError(f"bad grid header: {exc}") from None


def _unpack_values(buf: bytes, off: int, count: int, path) -> np.ndarray:
    """The ``count`` f64 values that end the file at ``off``; a payload of
    another size or holding a NaN or an infinity raises FormatError."""
    if len(buf) != off + 8 * count:
        raise FormatError(f"payload size mismatch in {path}")
    values = np.frombuffer(buf, dtype="<f8", count=count, offset=off)
    if not np.isfinite(values).all():
        raise FormatError(f"payload holds a non-finite value in {path}")
    return values.astype(np.float64)


def write_field(path, field: ScalarField) -> None:
    with open(path, "wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(_pack_grid(field.grid))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != FIELD_MAGIC:
        raise FormatError(f"not a GTM field file: {path}")
    grid, off = _unpack_grid(buf, 4)
    return ScalarField(grid, _unpack_values(buf, off, grid.size, path))


def write_tomogram(path, t: TomogramFamily) -> None:
    """GTM-T file of a tomogram on a parameter box (``param_grid`` set)."""
    if t.family_tag not in FAMILY_NAMES:
        raise FormatError(f"unknown family tag {t.family_tag!r}")
    if t.param_grid is None:
        raise FormatError("GTM-T stores a parameter box; this tomogram has "
                          "only a list of parameter points")
    with open(path, "wb") as fh:
        fh.write(TOMOGRAM_MAGIC)
        fh.write(struct.pack("<H", FAMILY_NAMES.index(t.family_tag) + 1))
        fh.write(_pack_grid(t.param_grid))
        fh.write(_pack_grid(t.x_grid))
        fh.write(np.ascontiguousarray(t.values, dtype="<f8").tobytes())


def read_tomogram(path) -> TomogramFamily:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != TOMOGRAM_MAGIC:
        raise FormatError(f"not a GTM-T tomogram file: {path}")
    if len(buf) < 6:
        raise FormatError(f"file ends inside the family tag: {path}")
    (tag,) = struct.unpack_from("<H", buf, 4)
    if not 1 <= tag <= len(FAMILY_NAMES):
        raise FormatError(f"unknown family tag value {tag} in {path}")
    param_grid, off = _unpack_grid(buf, 6)
    x_grid, off = _unpack_grid(buf, off)
    if x_grid.ndim != 1:
        raise FormatError(f"X grid of {x_grid.ndim} dimensions in {path}; "
                          f"GTM-T wants one")
    values = _unpack_values(buf, off, param_grid.size * x_grid.size, path)
    return TomogramFamily(x_grid=x_grid, param_grid=param_grid,
                          values=values.reshape(param_grid.size, x_grid.size),
                          family_tag=FAMILY_NAMES[tag - 1])


# ---------------------------------------------------------------------------
# text exports
# ---------------------------------------------------------------------------


_FORMATTER_SOURCE = Path(__file__).with_name("_csvformat.cpp")
_FORMATTER_FLAGS = ("-O2", "-std=c++17", "-fPIC", "-shared")
# output bytes per block of rows; a row longer than this is one block
_CSV_BLOCK_BYTES = 1 << 20
# the longest repr of a float, "-2.2250738585072014e-308", and a newline
_MAX_VALUE_BYTES = 25


def _load_formatter():
    """The compiled ``gentomo_csv_rows``, typed, or None for the repr path;
    built on first use, never at import."""
    lib = build_library(_FORMATTER_SOURCE, _FORMATTER_FLAGS)[0]
    if lib is None:
        return None
    ptr, long_ = ctypes.c_void_p, ctypes.c_long
    fmt = lib.gentomo_csv_rows
    fmt.argtypes = [ptr, ptr, ptr, ptr, long_, ptr, long_, long_, ptr, long_]
    fmt.restype = long_
    return fmt


def _offsets(strings: list[str]) -> tuple[bytes, np.ndarray]:
    """The ASCII strings joined, and the (n + 1) offsets that split them."""
    at = np.zeros(len(strings) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in strings], out=at[1:])
    return "".join(strings).encode("ascii"), at


def _compiled_rows(fmt, prefixes, tail, rows, cap: int):
    """(start, stop) -> the CSV bytes of those rows, formatted by ``fmt``
    into one reused buffer of ``cap`` bytes."""
    if rows.shape != (len(prefixes), len(tail)) or rows.dtype != np.float64 \
            or not rows.flags.c_contiguous:
        raise ValueError("CSV rows must be a C-contiguous float64 table of "
                         "one row per prefix and one column per tail value")
    pre, pre_at = _offsets(prefixes)
    tails, tail_at = _offsets(tail)
    out = np.empty(cap, dtype=np.uint8)

    def block(start, stop):
        n = fmt(pre, pre_at.ctypes.data, tails, tail_at.ctypes.data,
                rows.shape[1], rows.ctypes.data, start, stop,
                out.ctypes.data, cap)
        if n < 0:
            raise RuntimeError("CSV block overran its buffer")
        return memoryview(out)[:n]
    return block


def _repr_rows(prefixes, tail, rows):
    """(start, stop) -> the CSV bytes of those rows, joined from repr."""
    def block(start, stop):
        return "".join([f"{prefix}{x}{v!r}\n"
                        for prefix, row in zip(prefixes[start:stop],
                                               rows[start:stop].tolist())
                        for x, v in zip(tail, row)]).encode("ascii")
    return block


def _write_csv_rows(path, header, prefixes, tail, rows) -> None:
    """Header line, then ``prefix,tail[j],rows[i][j]`` per cell, row-major.

    Every float is written as ``repr(float(v))``: the prefixes and the tail
    values by repr, once each, and the cells by the compiled formatter, or
    by repr where it cannot be built, with equal bytes.  Rows go out in
    blocks of about _CSV_BLOCK_BYTES.
    """
    tail = [f"{v!r}," for v in tail.tolist()]
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    row_bytes = (rows.shape[1] * (max(map(len, prefixes), default=0)
                                  + _MAX_VALUE_BYTES) + sum(map(len, tail)))
    step = max(1, _CSV_BLOCK_BYTES // row_bytes)
    fmt = _load_formatter()
    block = (_repr_rows(prefixes, tail, rows) if fmt is None
             else _compiled_rows(fmt, prefixes, tail, rows, step * row_bytes))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for start in range(0, len(prefixes), step):
            fh.write(block(start, min(start + step, len(prefixes))))


def _prefixes(points: np.ndarray) -> list[str]:
    return [",".join(map(repr, p)) + "," for p in points.tolist()]


def write_field_csv(path, field: ScalarField) -> None:
    """One header row of axis names, then one row per grid point."""
    grid = field.grid
    names = [f"q{i + 1}" for i in range(grid.ndim)]
    lead = grid.axes[:-1]
    prefixes = _prefixes(GridSpec(lead).points()) if lead else [""]
    _write_csv_rows(path, names + ["value"], prefixes,
                    grid.axis_points(grid.ndim - 1),
                    field.values.reshape(len(prefixes), -1))


def write_tomogram_csv(path, t: TomogramFamily) -> None:
    names = [f"param{i + 1}" for i in range(t.param_points.shape[1])]
    _write_csv_rows(path, names + ["X", "omega"], _prefixes(t.param_points),
                    t.x_grid.axis_points(0), t.values)


def write_pgm(path, values: np.ndarray) -> tuple[float, float]:
    """8-bit binary PGM of a 2-d array, min-max scaled; rows are the first
    axis.  A constant array maps to all-zero pixels.  Returns (min, max)."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise FormatError("PGM export needs a two-dimensional array")
    lo, hi = float(v.min()), float(v.max())
    if hi > lo:
        pix = np.rint((v - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        pix = np.zeros(v.shape, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (v.shape[1], v.shape[0]))
        fh.write(pix.tobytes())
    return lo, hi


# ---------------------------------------------------------------------------
# flat key=value configs
# ---------------------------------------------------------------------------


def parse_config(text: str) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; later keys win."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _floats(s: str) -> list[float]:
    return [float(tok) for tok in s.replace(";", ",").split(",") if tok.strip()]


def grid_from_config(cfg: dict[str, str], key: str = "grid") -> GridSpec:
    """Axis specs like ``grid = -6,6,256 ; -6,6,256``."""
    if key not in cfg:
        raise FormatError(f"config is missing '{key}'")
    axes = []
    for part in cfg[key].split(";"):
        vals = [tok.strip() for tok in part.split(",") if tok.strip()]
        if len(vals) != 3:
            raise FormatError(f"axis spec must be min,max,count: {part!r}")
        axes.append((float(vals[0]), float(vals[1]), int(vals[2])))
    return GridSpec(tuple(axes))


def phantom_from_config(cfg: dict[str, str]) -> Phantom:
    """Phantom descriptions:

    type=gaussian        mean=0,0  cov=1,0,0,1        (row-major covariance)
    type=mixture         weight1=.5 mean1=2,0 cov1=1,0,0,1  weight2=...
    type=ball            center=0,0  radius=1
    type=box             min=-1,-1  max=1,1
    """
    kind = cfg.get("type")
    if kind in ("gaussian", "mixture"):
        # a gaussian is the one component keyed mean/cov, of weight 1
        suffixes = [""] if kind == "gaussian" else []
        while kind == "mixture" and f"weight{len(suffixes) + 1}" in cfg:
            suffixes.append(str(len(suffixes) + 1))
        if not suffixes:
            raise FormatError("mixture needs weight1/mean1/cov1, ...")
        weights, means, covs = [], [], []
        for k in suffixes:
            weights.append(float(cfg[f"weight{k}"]) if k else 1.0)
            mean = _floats(cfg.get(f"mean{k}", ""))
            cov = _floats(cfg.get(f"cov{k}", ""))
            n = len(mean)
            if len(cov) != n * n:
                raise FormatError(f"cov{k} must hold ndim*ndim entries")
            means.append(mean)
            covs.append(np.array(cov).reshape(n, n))
        return GaussianMixture(weights=tuple(weights), means=tuple(means),
                               covariances=tuple(covs))
    if kind == "ball":
        return UniformBall(center=tuple(_floats(cfg.get("center", ""))),
                           radius=float(cfg.get("radius", "0")))
    if kind == "box":
        return UniformBox(lo=tuple(_floats(cfg.get("min", ""))),
                          hi=tuple(_floats(cfg.get("max", ""))))
    raise FormatError(f"unknown phantom type {kind!r}")
