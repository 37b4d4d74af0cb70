"""The benchmark's workloads: seeded inputs, the timed op and its checks.

Every workload draws its phantom parameters from ``random.Random(seed)``
within ranges that keep its acceptance bound; grid sizes never depend on
the seed, so the work per op is fixed.  gentomo only ever sees the
generated inputs.

An op is the sequence of public gentomo calls a batch user makes, run once
the previous op has finished.  The same code runs untraced (only the op's
root span is timed) and traced (every call is a span, and the work hidden
inside ``forward_binned`` is replayed after the op).  Each op returns an
``OpResult`` whose ``failures`` list is empty when every output check held.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gentomo as gt
from gentomo import formats

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / "perfbench" / "work"

# (points x params) elements per block in the level-evaluation replay
REPLAY_BLOCK_ELEMS = 2_000_000
# bins * dX + overflow must equal the source mass to this relative tolerance
MASS_RTOL = 1e-9


@dataclass
class OpResult:
    solution_err: float
    tomo_digest: str
    recon_digest: str
    failures: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def digest(values) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def corrupt(values: np.ndarray) -> np.ndarray:
    """A deliberately wrong copy: the largest value negated."""
    bad = np.array(values, dtype=float, copy=True)
    bad.flat[int(np.argmax(bad))] *= -1.0
    return bad


def grid(ndim: int, lo: float, hi: float, n: int) -> gt.GridSpec:
    return gt.make_grid(ndim, [(lo, hi, n)] * ndim)


def draw_gaussian(rng: random.Random, offset: float, eig: tuple[float, float]):
    """Mean within +-offset per axis; covariance with eigenvalues in ``eig``
    and a random rotation."""
    mean = (rng.uniform(-offset, offset), rng.uniform(-offset, offset))
    a = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    cov = rot @ np.diag([rng.uniform(*eig), rng.uniform(*eig)]) @ rot.T
    return mean, (cov + cov.T) / 2.0


def _node_axes(q_grid: gt.GridSpec, s: int) -> list[np.ndarray]:
    """Per-axis midpoints of every cell subdivided s-fold."""
    axes = []
    for lo, hi, n in q_grid.axes:
        d = (hi - lo) / (n - 1)
        base = lo + d * np.arange(n - 1)
        axes.append((base[:, None] + d * (np.arange(s) + 0.5)[None, :] / s).ravel())
    return axes


def _mesh(axes) -> np.ndarray:
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def quadrature(source, q_grid: gt.GridSpec | None, supersample: int = 1):
    """Source quadrature nodes and masses, rebuilt the way the forward
    engine documents them: trapezoid weights on a field's own grid, or
    (refined) cell midpoints times the cell volume for a phantom."""
    if isinstance(source, gt.ScalarField):
        pts = source.grid.points()
        return pts, source.flat * source.grid.trapezoid_weights().ravel()
    pts = _mesh(_node_axes(q_grid, supersample))
    return pts, source.pdf(pts) * (q_grid.cell_volume / supersample**q_grid.ndim)


def source_mass(source, q_grid, family, supersample: int = 1) -> float:
    """The checks' own sum of the source mass off the singular set.  Phantom
    nodes are built in slabs of the first axis, so the check adds little to
    the run's peak memory."""
    if isinstance(source, gt.ScalarField):
        pts, masses = quadrature(source, None)
        return float(masses[~family.singular_mask(pts)].sum())
    axes = _node_axes(q_grid, supersample)
    step = max(1, (1 << 18) // math.prod(len(a) for a in axes[1:]))
    total = 0.0
    for i in range(0, len(axes[0]), step):
        pts = _mesh([axes[0][i:i + step], *axes[1:]])
        total += float(source.pdf(pts[~family.singular_mask(pts)]).sum())
    return total * (q_grid.cell_volume / supersample**q_grid.ndim)


def replay_levels(family, points, param_points) -> int:
    """Singular mask plus level evaluation over every parameter block, as
    the deposit loop runs them; returns the kept point count."""
    points = points[~family.singular_mask(points)]
    evaluate = family.level_evaluator(points)
    chunk = max(1, REPLAY_BLOCK_ELEMS // max(len(points), 1))
    for start in range(0, len(param_points), chunk):
        evaluate(param_points[start:start + chunk])
    return len(points)


def check_tomogram(values, overflow, dx, mass, failures):
    """Nonnegativity, and bins * dX + overflow == source mass (if given)."""
    if not np.all(values >= 0.0):
        failures.append("negative tomogram values")
    if mass is not None:
        dev = float(np.abs(values.sum(axis=1) * dx + overflow - mass).max())
        if not dev <= MASS_RTOL * mass:
            failures.append(f"mass not conserved: deviation {dev:.3g} "
                            f"of source mass {mass:.6g}")


def check_bound(err, bound, label, failures):
    if not err <= bound:
        failures.append(f"solution error {err:.4g} exceeds the {label} "
                        f"bound {bound:g}")


# ---------------------------------------------------------------------------
# library round trips: rt-quadric, rt-circle
# ---------------------------------------------------------------------------


class Roundtrip:
    """``gt.roundtrip`` spelled out as its public calls, so the tomogram is
    visible to the checks and each call can carry a span."""

    def __init__(self, phantom, family, q_grid, x_grid, param_grid, out_grid,
                 margin: float, bound: float, bound_label: str):
        self.phantom, self.family = phantom, family
        self.q_grid, self.x_grid = q_grid, x_grid
        self.param_grid, self.out_grid = param_grid, out_grid
        self.margin, self.bound, self.bound_label = margin, bound, bound_label
        self.deformed = isinstance(family, gt.Deformed)
        self._mass = None

    def library_roundtrip(self):
        """The one-call form, used by the smoke check to prove the spelled-
        out sequence is the same computation."""
        return gt.roundtrip(self.phantom, self.family, q_grid=self.q_grid,
                            x_grid=self.x_grid, param_grid=self.param_grid,
                            out_grid=self.out_grid,
                            exclusion_margin=self.margin)

    def run(self, tr, bad: bool = False) -> OpResult:
        fam, out_grid = self.family, self.out_grid
        with tr.span("op"):
            if self.deformed:
                with tr.span("core.quadrature", "core"):
                    source = gt.pullback_density(self.phantom, fam.diffeo,
                                                 self.q_grid)
                with tr.span("core.reference", "core"):
                    reference = gt.pullback_density(self.phantom, fam.diffeo,
                                                    out_grid)
            else:
                source = self.phantom
                with tr.span("core.reference", "core"):
                    reference = gt.sample_phantom(self.phantom, out_grid)
            q_grid = None if self.deformed else self.q_grid
            with tr.span("forward.forward_binned", "forward") as fw:
                tomo = gt.forward_binned(source, fam, self.param_grid,
                                         self.x_grid, q_grid)
            with tr.span("inverse.slice", "inverse"):
                slc = gt.characteristic_slice(tomo)
            with tr.span("inverse.kernel", "inverse"):
                recon, diag = gt.invert_for_family(slc, fam, out_grid)
            mask = None
            if self.margin > 0.0:
                with tr.span("geometry.singular_distance", "geometry"):
                    dist = fam.singular_distance(out_grid.points())
                    mask = (dist > self.margin).reshape(out_grid.shape)
            with tr.span("core.l2_rel_error", "core"):
                err = gt.l2_rel_error(recon, reference, mask=mask)
            with tr.span("forward.normalization_profile", "forward"):
                gt.normalization_profile(tomo)

        n_points = len(source.flat) if self.deformed else \
            math.prod(n - 1 for n in self.q_grid.shape)
        params = self.param_grid.points()
        counts = {"points": n_points, "params": len(params),
                  "x_bins": self.x_grid.size, "out_points": out_grid.size,
                  "imag_ratio": diag.imag_ratio,
                  "boundary_decay": diag.boundary_decay,
                  "singular_frac": tomo.singular_fraction}
        if tr.enabled:
            pts, _ = tr.replay("core.quadrature", "core", fw,
                               lambda: quadrature(source, q_grid))
            counts["kept"] = tr.replay(
                "geometry.level", "geometry", fw,
                lambda: replay_levels(fam, pts, params))

        if self._mass is None:
            self._mass = source_mass(source, q_grid, fam)
        counts["overflow_frac"] = float(tomo.overflow.max()) / self._mass
        values = corrupt(tomo.values) if bad else tomo.values
        res = OpResult(err, digest(values), digest(recon.values), counts=counts)
        check_tomogram(values, tomo.overflow, self.x_grid.spacing[0],
                       self._mass, res.failures)
        check_bound(err, self.bound, self.bound_label, res.failures)
        return res


def rt_quadric(seed: int, smoke: bool) -> Roundtrip:
    """Unit-B quadric of a seeded Gaussian, shaped like AC-6."""
    mean, cov = draw_gaussian(random.Random(seed), 0.2, (0.9, 1.1))
    return Roundtrip(
        gt.gaussian(mean, cov), gt.Quadric(gt.QuadricForm(np.eye(2))),
        q_grid=grid(2, -6, 6, 96 if smoke else 256),
        x_grid=grid(1, -10, 200, 841),
        param_grid=grid(2, -6, 6, 24 if smoke else 64),
        out_grid=grid(2, -3, 3, 16 if smoke else 48),
        margin=0.0, bound=0.10, bound_label="AC-6")


def rt_circle(seed: int, smoke: bool) -> Roundtrip:
    """Circle family on the pullback of a seeded Gaussian, shaped like AC-7."""
    mean, cov = draw_gaussian(random.Random(seed), 0.1, (0.95, 1.05))
    return Roundtrip(
        gt.gaussian(mean, cov), gt.circle_family(),
        q_grid=grid(2, -8, 8, 160),
        x_grid=grid(1, -30, 30, 241 if smoke else 481),
        param_grid=grid(2, -5, 5, 24 if smoke else 80),
        out_grid=grid(2, -5, 5, 24 if smoke else 160),
        margin=0.3, bound=0.10, bound_label="AC-7")


# ---------------------------------------------------------------------------
# directions: forward_binned_at over unit directions
# ---------------------------------------------------------------------------


class Directions:
    """Hyperplane tomograms of a seeded Gaussian along 16 unit directions,
    scored against the closed form (AC-1)."""

    bound = 2e-2

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        self.mean, self.cov = draw_gaussian(rng, 0.1, (0.97, 1.03))
        # a narrow band of offsets keeps every direction away from the
        # low-order lattice slopes, where the source lattice beats with the
        # X bins and the error jumps
        offset = rng.uniform(0.05, 0.06)
        self.directions = np.array(
            [(math.cos(offset + k * math.pi / 8), math.sin(offset + k * math.pi / 8))
             for k in range(16)])
        self.phantom = gt.gaussian(self.mean, self.cov)
        self.family = gt.Hyperplane(2)
        self.q_grid = grid(2, -6, 6, 128 if smoke else 1024)
        self.x_grid = grid(1, -6, 6, 121 if smoke else 481)
        self.supersample = 2
        self._mass = None

    def run(self, tr, bad: bool = False) -> OpResult:
        xs = self.x_grid.axis_points(0)
        with tr.span("op"):
            with tr.span("forward.forward_binned_at", "forward") as fw:
                table = gt.forward_binned_at(
                    self.phantom, self.family, self.directions, self.x_grid,
                    self.q_grid, supersample=self.supersample)
            with tr.span("forward.closed_form", "forward"):
                err = max(float(np.abs(
                    table.values[k] - gt.gaussian_hyperplane_tomogram(
                        self.mean, self.cov, d).pdf(xs)).max())
                    for k, d in enumerate(self.directions))

        counts = {"points": math.prod((n - 1) * self.supersample
                                      for n in self.q_grid.shape),
                  "params": len(self.directions), "x_bins": self.x_grid.size,
                  "singular_frac": table.singular_fraction}
        if tr.enabled:
            pts, _ = tr.replay(
                "core.quadrature", "core", fw,
                lambda: quadrature(self.phantom, self.q_grid, self.supersample))
            counts["kept"] = tr.replay(
                "geometry.level", "geometry", fw,
                lambda: replay_levels(self.family, pts, self.directions))
        if self._mass is None:
            self._mass = source_mass(self.phantom, self.q_grid, self.family,
                                     self.supersample)
        counts["overflow_frac"] = float(table.overflow.max()) / self._mass
        values = corrupt(table.values) if bad else table.values
        res = OpResult(err, digest(values), "", counts=counts)
        check_tomogram(values, table.overflow, self.x_grid.spacing[0],
                       self._mass, res.failures)
        check_bound(err, self.bound, "AC-1", res.failures)
        res.failures += [f"unexpected warning: {w}" for w in table.warnings]
        return res


# ---------------------------------------------------------------------------
# cli-files: phantom -> forward -> invert -> export csv -> export pgm
# ---------------------------------------------------------------------------


class CliFiles:
    """The README's shell pipeline, one fresh ``python -m gentomo.cli``
    process per command, on a window that raises no warning.  Scored
    against the sampled mixture (AC-5)."""

    bound = 0.05
    MU = "-5,5;-5,5"
    X_RANGE = (-40.0, 40.0)

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        angle = rng.uniform(0.0, math.pi)
        weight = rng.uniform(0.4, 0.6)
        comps = []
        for sign, w in ((1.0, weight), (-1.0, 1.0 - weight)):
            r = 2.0 + rng.uniform(-0.2, 0.2)
            mean = (sign * r * math.cos(angle) + rng.uniform(-0.2, 0.2),
                    sign * r * math.sin(angle) + rng.uniform(-0.2, 0.2))
            _, cov = draw_gaussian(rng, 0.0, (0.9, 1.1))
            comps.append((w, mean, cov))
        self.mixture = gt.GaussianMixture(
            weights=tuple(w for w, _, _ in comps),
            means=tuple(m for _, m, _ in comps),
            covariances=tuple(tuple(map(tuple, c)) for _, _, c in comps))
        self.field_n = 64 if smoke else 128
        self.mu_n = 16 if smoke else 32
        self.x_n = 401
        self.out_n = 16 if smoke else 64

        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.paths = {k: WORK_DIR / name for k, name in (
            ("cfg", "mix.cfg"), ("field", "mix.gtm"), ("tomo", "mix.gtmt"),
            ("recon", "recon.gtm"), ("csv", "mix.csv"), ("pgm", "recon.pgm"))}
        lines = ["type=mixture"]
        for k, (w, m, c) in enumerate(comps, 1):
            lines += [f"weight{k}={w!r}", f"mean{k}={m[0]!r},{m[1]!r}",
                      "cov%d=%s" % (k, ",".join(repr(float(v)) for v in c.ravel()))]
        lines.append(f"grid=-6,6,{self.field_n};-6,6,{self.field_n}")
        self.paths["cfg"].write_text("\n".join(lines) + "\n")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        self.out_grid = grid(2, -5, 5, self.out_n)
        self._reference = None

    def commands(self) -> list[tuple[str, list[str]]]:
        p = {k: str(v) for k, v in self.paths.items()}
        lo, hi = self.X_RANGE
        return [
            ("cli.phantom", ["phantom", p["cfg"], "--out", p["field"]]),
            ("cli.forward", ["forward", p["field"], "--family", "hyperplane",
                             f"--mu-box={self.MU}",
                             "--mu-count", f"{self.mu_n};{self.mu_n}",
                             f"--x-range={lo:g},{hi:g}",
                             "--x-count", str(self.x_n), "--out", p["tomo"]]),
            ("cli.invert", ["invert", p["tomo"], "--family", "hyperplane",
                            "--q-box=-5,5;-5,5",
                            "--q-count", f"{self.out_n};{self.out_n}",
                            "--out", p["recon"]]),
            ("cli.export", ["export", p["tomo"], "--format", "csv",
                            "--out", p["csv"]]),
            ("cli.export", ["export", p["recon"], "--format", "pgm",
                            "--out", p["pgm"]]),
        ]

    def _startup(self, tr):
        with tr.span("cli.startup", "cli"):
            subprocess.run([sys.executable, "-c", "import gentomo.cli"],
                           env=self.env, check=True)

    def _run_explicit(self, tr, failures):
        """The public calls each CLI command makes, in-process, each in a
        span, plus one fresh ``import gentomo.cli`` per command."""
        p = self.paths
        family = gt.Hyperplane(2)
        with tr.span("cli.phantom", "cli"):
            self._startup(tr)
            with tr.span("formats.parse_config", "formats"):
                cfg = formats.parse_config(p["cfg"].read_text())
                phantom = formats.phantom_from_config(cfg)
                q_grid = formats.grid_from_config(cfg)
            with tr.span("core.quadrature", "core"):
                field_ = gt.sample_phantom(phantom, q_grid)
            with tr.span("formats.write_field", "formats"):
                formats.write_field(p["field"], field_)
            with tr.span("core.total_mass", "core"):
                gt.total_mass(field_)
        with tr.span("cli.forward", "cli"):
            self._startup(tr)
            with tr.span("formats.read_field", "formats"):
                source = formats.read_field(p["field"])
            param_grid = grid(2, -5, 5, self.mu_n)
            x_grid = gt.make_grid(1, [(*self.X_RANGE, self.x_n)])
            with tr.span("forward.forward_binned", "forward") as fw:
                tomo = gt.forward_binned(source, family, param_grid, x_grid)
            with tr.span("formats.write_tomogram", "formats"):
                formats.write_tomogram(p["tomo"], tomo)
            with tr.span("forward.normalization_profile", "forward"):
                gt.normalization_profile(tomo)
            failures += [f"forward warning: {w}" for w in tomo.warnings]
        with tr.span("cli.invert", "cli"):
            self._startup(tr)
            with tr.span("formats.read_tomogram", "formats"):
                tomo_in = formats.read_tomogram(p["tomo"])
            with tr.span("inverse.slice", "inverse"):
                slc = gt.characteristic_slice(tomo_in)
            with tr.span("inverse.kernel", "inverse"):
                recon, diag = gt.invert_for_family(slc, family, self.out_grid)
            with tr.span("formats.write_field", "formats"):
                formats.write_field(p["recon"], recon)
            failures += [f"invert warning: {w}" for w in diag.warnings]
        with tr.span("cli.export", "cli"):
            self._startup(tr)
            with tr.span("formats.read_tomogram", "formats"):
                t_csv = formats.read_tomogram(p["tomo"])
            with tr.span("formats.csv", "formats"):
                formats.write_tomogram_csv(p["csv"], t_csv)
        with tr.span("cli.export", "cli"):
            self._startup(tr)
            with tr.span("formats.read_field", "formats"):
                r_pgm = formats.read_field(p["recon"])
            with tr.span("formats.write_pgm", "formats"):
                formats.write_pgm(p["pgm"], r_pgm.values)
        return fw, source, tomo, diag

    def run(self, tr, bad: bool = False) -> OpResult:
        failures: list[str] = []
        counts: dict = {}
        with tr.span("op"):
            if tr.enabled:
                fw, source, tomo, diag = self._run_explicit(tr, failures)
            else:
                for name, argv in self.commands():
                    proc = subprocess.run(
                        [sys.executable, "-m", "gentomo.cli", *argv],
                        env=self.env, capture_output=True, text=True)
                    if proc.returncode != 0:
                        failures.append(f"{name} exited {proc.returncode}: "
                                        f"{proc.stderr.strip()[-300:]}")
                    elif "warning" in proc.stderr:
                        failures.append(f"{name} warned: {proc.stderr.strip()}")
        if tr.enabled:
            params = tomo.param_grid.points()
            pts, masses = tr.replay("core.quadrature", "core", fw,
                                    lambda: quadrature(source, None))
            counts["kept"] = tr.replay(
                "geometry.level", "geometry", fw,
                lambda: replay_levels(gt.Hyperplane(2), pts, params))
            counts.update(imag_ratio=diag.imag_ratio,
                          boundary_decay=diag.boundary_decay,
                          overflow_frac=float(tomo.overflow.max())
                          / float(masses.sum()))
        if failures:
            return OpResult(math.inf, "", "", failures, counts)
        return self._check(bad, failures, counts)

    def _check(self, bad, failures, counts) -> OpResult:
        p = self.paths
        tomo = formats.read_tomogram(p["tomo"])
        recon = formats.read_field(p["recon"])
        if self._reference is None:
            self._reference = gt.sample_phantom(self.mixture, self.out_grid)
        err = gt.l2_rel_error(recon, self._reference)
        values = corrupt(tomo.values) if bad else tomo.values
        res = OpResult(err, digest(values), digest(recon.values), failures,
                       counts)
        check_tomogram(values, 0.0, tomo.x_grid.spacing[0], None, failures)
        check_bound(err, self.bound, "AC-5", failures)

        n_rows = 0
        with open(p["csv"], "rb") as fh:
            header = fh.readline()
            while chunk := fh.read(1 << 22):
                n_rows += chunk.count(b"\n")
        if header != b"param1,param2,X,omega\n" or n_rows != tomo.values.size:
            failures.append(f"csv export has header {header!r} and {n_rows} "
                            f"rows, expected {tomo.values.size}")
        pgm = p["pgm"].read_bytes()
        head = b"P5\n%d %d\n255\n" % (self.out_n, self.out_n)
        if not pgm.startswith(head) or len(pgm) != len(head) + self.out_n**2:
            failures.append("pgm export has a wrong header or size")
        counts.update(points=self.field_n**2,
                      params=tomo.param_grid.size, x_bins=tomo.x_grid.size,
                      out_points=self.out_grid.size, singular_frac=0.0,
                      tomogram_bytes=p["tomo"].stat().st_size,
                      csv_bytes=p["csv"].stat().st_size)
        return res


WORKLOADS = {
    "rt-quadric": rt_quadric,
    "rt-circle": rt_circle,
    "cli-files": CliFiles,
    "directions": Directions,
}
