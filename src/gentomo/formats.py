"""Self-describing binary formats, text exports and flat config parsing.

GTM  (fields):    magic "GTM1" | u32 ndim | per axis: f64 min, f64 max,
                  u32 count | row-major f64 values.
GTM-T (tomograms): magic "GTMT" | u16 family tag | parameter grid spec |
                  X grid spec | values as (param points, X points) rows.
All integers and floats are little-endian; write-then-read round-trips are
bit-identical.
"""

from __future__ import annotations

import struct

import numpy as np

from .core import (GridError, GridSpec, ScalarField, TomogramFamily,
                   GaussianMixture, Phantom, UniformBall, UniformBox, gaussian)

FIELD_MAGIC = b"GTM1"
TOMOGRAM_MAGIC = b"GTMT"

FAMILY_TAGS = {
    "hyperplane": 1,
    "circle": 2,
    "hyperbola": 3,
    "hyperboloid": 4,
    "quadric": 5,
    "hybrid": 6,
    "deformed": 7,
}
TAG_NAMES = {v: k for k, v in FAMILY_TAGS.items()}


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
    if len(buf) != off + 8 * grid.size:
        raise FormatError(f"field payload size mismatch in {path}")
    values = np.frombuffer(buf, dtype="<f8", count=grid.size, offset=off)
    return ScalarField(grid, values.astype(np.float64))


def write_tomogram(path, t: TomogramFamily) -> None:
    """GTM-T file of a tomogram on a parameter box (``param_grid`` set)."""
    tag = FAMILY_TAGS.get(t.family_tag)
    if tag is None:
        raise FormatError(f"unknown family tag {t.family_tag!r}")
    if t.param_grid is None:
        raise FormatError("GTM-T stores a parameter box; this tomogram has "
                          "only a list of parameter points")
    with open(path, "wb") as fh:
        fh.write(TOMOGRAM_MAGIC)
        fh.write(struct.pack("<H", tag))
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
    if tag not in TAG_NAMES:
        raise FormatError(f"unknown family tag value {tag}")
    param_grid, off = _unpack_grid(buf, 6)
    x_grid, off = _unpack_grid(buf, off)
    if x_grid.ndim != 1:
        raise FormatError(f"X grid of {x_grid.ndim} dimensions in {path}; "
                          f"GTM-T wants one")
    count = param_grid.size * x_grid.size
    if len(buf) != off + 8 * count:
        raise FormatError(f"tomogram payload size mismatch in {path}")
    values = np.frombuffer(buf, dtype="<f8", count=count, offset=off)
    return TomogramFamily(x_grid=x_grid, param_grid=param_grid,
                          values=values.astype(np.float64).reshape(
                              param_grid.size, x_grid.size),
                          family_tag=TAG_NAMES[tag])


# ---------------------------------------------------------------------------
# text exports
# ---------------------------------------------------------------------------


def _write_csv_rows(path, header, prefixes, tail, rows) -> None:
    """Header line, then ``prefix,tail[j],rows[i][j]`` per cell, row-major.

    Every float is written as ``repr(float(v))``; each tail value and each
    prefix is formatted once, and each row goes out in one write.
    """
    tail = [f"{v!r}," for v in tail.tolist()]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for prefix, row in zip(prefixes, rows.tolist()):
            fh.write("".join([f"{prefix}{x}{v!r}\n" for x, v in zip(tail, row)]))


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
    if kind == "gaussian":
        mean = _floats(cfg.get("mean", ""))
        cov = _floats(cfg.get("cov", ""))
        n = len(mean)
        if len(cov) != n * n:
            raise FormatError("cov must hold ndim*ndim row-major entries")
        return gaussian(mean, np.array(cov).reshape(n, n))
    if kind == "mixture":
        weights, means, covs = [], [], []
        k = 1
        while f"weight{k}" in cfg:
            weights.append(float(cfg[f"weight{k}"]))
            mean = _floats(cfg.get(f"mean{k}", ""))
            cov = _floats(cfg.get(f"cov{k}", ""))
            n = len(mean)
            if len(cov) != n * n:
                raise FormatError(f"cov{k} must hold ndim*ndim entries")
            means.append(tuple(mean))
            covs.append(tuple(map(tuple, np.array(cov).reshape(n, n))))
            k += 1
        if not weights:
            raise FormatError("mixture needs weight1/mean1/cov1, ...")
        return GaussianMixture(weights=tuple(weights), means=tuple(means),
                               covariances=tuple(covs))
    if kind == "ball":
        return UniformBall(center=tuple(_floats(cfg.get("center", ""))),
                           radius=float(cfg.get("radius", "0")))
    if kind == "box":
        return UniformBox(lo=tuple(_floats(cfg.get("min", ""))),
                          hi=tuple(_floats(cfg.get("max", ""))))
    raise FormatError(f"unknown phantom type {kind!r}")
