"""Command-line front end.

Subcommands: ``phantom`` (sample a configured phantom to a GTM field),
``forward`` (tomogram family of a field or phantom), ``invert``
(reconstruct a field from a GTM-T file), ``check`` (property suites) and
``export`` (CSV / PGM conversion).

Exit codes: 0 success (warnings included), 1 a failing ``check`` row, 2
bad input, 3 inconsistent inputs, 4 I/O failure.  Warnings go to stderr and
never change the exit code; only precondition violations do.

Commands raise; ``main`` alone maps an exception to its exit code and
prints one ``error:`` line: ``OSError`` -> 4, ``DimensionMismatchError``
-> 3, any other ``ValueError`` (format and grid errors, and every value
the library rejects, ``check`` values included) -> 2, ``MemoryError`` (a
size flag such as ``invert --q-count`` or ``--samples`` too large to
allocate; ``forward`` streams its source) -> 2, and a ``CliError``
carries its own code.  Commands catch only to add context the exception
lacks: ``_numbers`` (``--B``, ``--split`` and each grid axis, by
``formats.number_list``), ``_grid_flags`` (the mu, X and q grids), and the
``bad config:`` / ``bad source`` wrappers, which also keep a phantom
config's own dimension errors at exit 2.  The ``--taper``,
``--decay-floor``, family tag, hyperboloid dimension, ``--B``/``--split``
family and ``forward --q-box``/``--q-count`` source checks stay in the
commands because the library cannot name those flags.  Any other
exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import checks, formats
from .core import (DimensionMismatchError, GridSpec, ScalarField,
                   sample_phantom, total_mass)
from .forward import forward_binned, normalization_profile, thread_count
from .geometry import (FAMILY_NAMES, Hybrid, Hyperplane, LevelFamily, Quadric,
                       QuadricForm, circle_family, hyperbola_family,
                       hyperboloid_family)
from .inverse import (DEFAULT_DECAY_FLOOR, characteristic_slice,
                      invert_for_family)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INCONSISTENT = 3
EXIT_IO = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _numbers(flag: str, text: str, want: str, n: int | None = None,
             kind=float, prefix: str = "") -> list:
    """``formats.number_list`` of ``flag``'s ``text``, of ``n`` numbers when
    ``n`` is set; else CliError naming the flag and the ``want`` form."""
    try:
        vals = formats.number_list(text, kind)
        if n in (None, len(vals)):
            return vals
    except ValueError:
        pass
    raise CliError(f"{prefix}{flag} wants {want}, got {text!r}",
                   EXIT_BAD_INPUT)


def _grid_flags(box_flag: str, box_text: str, count_flag: str,
                count_text: str, prefix: str = "bad grid flags: ",
                one_axis: bool = False) -> GridSpec:
    """The grid of a box flag ('lo,hi;lo,hi') and a count flag ('n;n', or
    one count for all axes); ``one_axis`` refuses a box of more axes."""
    boxes = [_numbers(box_flag, box, "'lo,hi' per axis", 2, prefix=prefix)
             for box in box_text.split(";")]
    counts = [_numbers(count_flag, count, "a count per axis", 1,
                       prefix=prefix) for count in count_text.split(";")]
    if one_axis and len(boxes) > 1:
        raise CliError(f"{prefix}{box_flag} wants one axis, got "
                       f"{box_text!r}", EXIT_BAD_INPUT)
    if len(counts) == 1:
        counts *= len(boxes)
    if len(counts) != len(boxes):
        raise CliError("box and count flags disagree in axis count",
                       EXIT_BAD_INPUT)
    try:
        return GridSpec(tuple((*b, *c) for b, c in zip(boxes, counts)))
    except ValueError as exc:
        raise CliError(f"{prefix}{exc}", EXIT_BAD_INPUT) from None


def _hyperboloid(ndim: int) -> LevelFamily:
    if ndim % 2:
        raise CliError("hyperboloid family needs an even-dimensional space",
                       EXIT_INCONSISTENT)
    return hyperboloid_family(ndim // 2)


# --family constructors: of the data's dimension, or of the --B/--split form
_MATRIX_FREE = dict(zip(FAMILY_NAMES, (
    Hyperplane, lambda ndim: circle_family(), lambda ndim: hyperbola_family(),
    _hyperboloid)))
_WITH_MATRIX = dict(zip(FAMILY_NAMES[len(_MATRIX_FREE):], (Quadric, Hybrid)))


def _family_from_args(args, ndim: int) -> LevelFamily:
    name = args.family
    if name in _MATRIX_FREE:
        if args.B or args.split:
            raise CliError(f"--family {name} takes neither --B nor --split",
                           EXIT_BAD_INPUT)
        return _MATRIX_FREE[name](ndim)
    if not args.B:
        raise CliError(f"--family {name} requires --B", EXIT_BAD_INPUT)
    entries = _numbers("--B", args.B, "a comma list of numbers")
    n = int(round(len(entries) ** 0.5))
    if n * n != len(entries):
        raise CliError("--B must hold a square row-major matrix",
                       EXIT_BAD_INPUT)
    if n != ndim:
        raise CliError(f"--B is {n}x{n} but the data is {ndim}-dimensional",
                       EXIT_INCONSISTENT)
    split = (_numbers("--split", args.split, "a comma list of axis indices",
                      kind=int) if args.split else [])
    return _WITH_MATRIX[name](
        QuadricForm(np.array(entries).reshape(n, n), linear_axes=split))


def _load_source(path: str):
    reader = formats.reader_of(path)
    if reader is formats.read_tomogram:
        raise CliError(f"bad source {path}: forward reads a GTM field or a "
                       f"phantom config", EXIT_BAD_INPUT)
    try:
        if reader is not None:
            return reader(path)
        with open(path) as fh:
            return formats.phantom_from_config(formats.parse_config(fh.read()))
    except ValueError as exc:
        raise CliError(f"bad source {path}: {exc}", EXIT_BAD_INPUT) from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_phantom(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = formats.parse_config(fh.read())
        phantom = formats.phantom_from_config(cfg)
        grid = formats.grid_from_config(cfg)
        field = sample_phantom(phantom, grid)
    except ValueError as exc:
        raise CliError(f"bad config: {exc}", EXIT_BAD_INPUT) from None
    formats.write_field(args.out, field)
    print(f"total mass {total_mass(field):.9g}")
    return EXIT_OK


def cmd_forward(args) -> int:
    source = _load_source(args.input)
    ndim = source.grid.ndim if isinstance(source, ScalarField) else source.ndim
    family = _family_from_args(args, ndim)
    param_grid = _grid_flags("--mu-box", args.mu_box, "--mu-count",
                             args.mu_count)
    x_grid = _grid_flags("--x-range", args.x_range, "--x-count", args.x_count,
                         "bad X grid flags: ", one_axis=True)
    q_grid = None
    if isinstance(source, ScalarField):
        if args.q_box is not None or args.q_count is not None:
            raise CliError("--q-box/--q-count apply to phantom sources; a "
                           "GTM field is integrated on its own grid",
                           EXIT_BAD_INPUT)
    elif args.q_box and args.q_count:
        q_grid = _grid_flags("--q-box", args.q_box, "--q-count", args.q_count)
    else:
        raise CliError("phantom sources require --q-box/--q-count",
                       EXIT_BAD_INPUT)
    tomo = forward_binned(source, family, param_grid, x_grid, q_grid)
    for w in tomo.warnings:
        _warn(w)
    if family.tag == circle_family().tag \
            and np.all(param_grid.points() == 0.0, axis=1).any():
        _warn("parameter grid contains the degenerate direction (0, 0)")
    formats.write_tomogram(args.out, tomo)
    norm = normalization_profile(tomo)
    print(f"normalization min {norm.min():.6g} max {norm.max():.6g}")
    print(f"overflow mass max {tomo.overflow.max():.6g}")
    return EXIT_OK


def cmd_invert(args) -> int:
    tomo = formats.read_tomogram(args.input)
    family = _family_from_args(args, tomo.param_grid.ndim)
    if family.tag != tomo.family_tag:
        raise CliError(
            f"tomogram was produced by the {tomo.family_tag!r} family, "
            f"flags request {family.tag!r}", EXIT_INCONSISTENT)
    out_grid = _grid_flags("--q-box", args.q_box, "--q-count", args.q_count)
    taper = args.taper
    if taper is not None and taper is not True \
            and not (np.isfinite(taper) and taper > 0):
        raise CliError(f"--taper width must be finite and > 0, got {taper:g}",
                       EXIT_BAD_INPUT)
    if not args.decay_floor >= 0:
        raise CliError(f"--decay-floor must be >= 0, got {args.decay_floor:g}",
                       EXIT_BAD_INPUT)
    slc = characteristic_slice(tomo)
    field, diag = invert_for_family(slc, family, out_grid,
                                    decay_floor=args.decay_floor, taper=taper)
    for w in diag.warnings:
        _warn(w)
    formats.write_field(args.out, field)
    print(f"imaginary residual ratio {diag.imag_ratio:.6g}")
    print(f"boundary decay {diag.boundary_decay:.6g}")
    return EXIT_OK


def cmd_check(args) -> int:
    results = checks.run_suite(args.suite, seed=args.seed,
                               samples=args.samples, lam=args.lam)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name} measured={r.measured:.6g} bound={r.bound:.6g} {status}")
    return EXIT_OK if all(r.passed for r in results) else 1


def cmd_export(args) -> int:
    reader = formats.reader_of(args.input)
    if reader is None:
        raise CliError(f"{args.input} is neither a GTM nor a GTM-T file",
                       EXIT_BAD_INPUT)
    obj = reader(args.input)
    is_field = reader is formats.read_field
    if args.format == "csv":
        (formats.write_field_csv if is_field
         else formats.write_tomogram_csv)(args.out, obj)
        return EXIT_OK
    if is_field and obj.grid.ndim != 2:
        raise CliError("PGM export of a field needs two dimensions "
                       "(a slice flag for higher ranks is not implemented)",
                       EXIT_BAD_INPUT)
    if not is_field and obj.param_grid.ndim != 1:
        raise CliError("PGM export of a tomogram needs a one-dimensional "
                       "parameter grid", EXIT_BAD_INPUT)
    lo, hi = formats.write_pgm(args.out, obj.values)
    print(f"scaling min {lo:.9g} max {hi:.9g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True,
                   choices=[*_MATRIX_FREE, *_WITH_MATRIX])
    p.add_argument("--B", help="row-major comma list for quadric/hybrid forms")
    p.add_argument("--split", help="comma list of linear axes for hybrid forms")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gentomo",
        description="generalized tomographic transforms and reconstructions")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="sample a configured phantom to GTM")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_phantom)

    p = sub.add_parser("forward", help="tomogram family of a field or phantom")
    p.add_argument("input", help="GTM field or phantom config")
    _add_family_flags(p)
    p.add_argument("--mu-box", required=True, help="'lo,hi;lo,hi' per axis")
    p.add_argument("--mu-count", required=True, help="'n;n' per axis")
    p.add_argument("--x-range", required=True, help="'lo,hi'")
    p.add_argument("--x-count", required=True, help="'n'")
    p.add_argument("--q-box", help="phantom sampling box (phantom input only)")
    p.add_argument("--q-count", help="phantom sampling counts")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_forward)

    p = sub.add_parser("invert", help="reconstruct a field from a GTM-T file")
    p.add_argument("input")
    _add_family_flags(p)
    p.add_argument("--q-box", required=True, help="output grid box")
    p.add_argument("--q-count", required=True, help="output grid counts")
    p.add_argument("--decay-floor", type=float,
                   default=DEFAULT_DECAY_FLOOR)
    p.add_argument("--taper", nargs="?", const=True, default=None, type=float,
                   help="Gaussian taper width (bare flag = box half-width / 3)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_invert)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("suite", choices=[*checks.SUITES, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None,
                   help="Monte-Carlo draws for the oracle-agreement suite")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="extra scaling factor for the homogeneity suite")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("export", help="convert GTM/GTM-T to csv or pgm")
    p.add_argument("input")
    p.add_argument("--format", required=True, choices=["csv", "pgm"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        thread_count()  # a bad GENTOMO_THREADS exits 2 before any work
        return args.fn(args)
    except CliError as exc:
        code, message = exc.code, str(exc)
    except OSError as exc:
        code, message = EXIT_IO, str(exc)
    except DimensionMismatchError as exc:
        code, message = EXIT_INCONSISTENT, f"inconsistent dimensions: {exc}"
    except ValueError as exc:
        code, message = EXIT_BAD_INPUT, str(exc)
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        code, message = EXIT_BAD_INPUT, f"out of memory{detail}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
