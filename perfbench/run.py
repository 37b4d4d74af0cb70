"""gentomo benchmark: seeded batch workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload rt-quadric --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload rt-quadric --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

Run from the repository root.  One process runs one workload: BLAS is
pinned to one thread before numpy loads, and ops run back to back until
``--seconds`` have passed (at least MIN_OPS of them).  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` alternates untraced and traced ops and
prints the per-layer metrics.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries the run's details (seed, environment, quartiles, digests,
failures).  See perfbench/README.md.
"""

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402  (the BLAS pin must come first)
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from statistics import median  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

from tracing import LAYERS, Tracer, breakdown, op_seconds  # noqa: E402

MIN_OPS = 3            # ops per run, whatever --seconds says
SETUP_PROBES = 7       # fresh processes timed for setup_s
HELD_OUT_SEED = 7919   # reserved for verifying claims; not used in tuning

END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "solution_err": "1"}
PER_LAYER = {
    "core.self_s": "s", "core.quadrature_s": "s", "core.points": "count",
    "core.quadrature_ns_per_point": "ns",
    "geometry.self_s": "s", "geometry.level_s": "s",
    "geometry.level_ns_per_pair": "ns",
    "forward.self_s": "s", "forward.s": "s", "forward.pairs": "count",
    "forward.ns_per_pair": "ns", "forward.scatter_s": "s",
    "forward.overflow_frac": "1", "forward.singular_frac": "1",
    "inverse.self_s": "s", "inverse.slice_s": "s",
    "inverse.slice_ns_per_elem": "ns", "inverse.kernel_s": "s",
    "inverse.kernel_pairs": "count", "inverse.kernel_ns_per_pair": "ns",
    "inverse.imag_ratio": "1", "inverse.boundary_decay": "1",
    "formats.self_s": "s", "formats.write_tomogram_s": "s",
    "formats.read_tomogram_s": "s", "formats.tomogram_bytes": "B",
    "formats.csv_s": "s", "formats.csv_bytes": "B", "formats.csv_mb_per_s": "MB/s",
    "cli.self_s": "s", "cli.startup_s": "s", "cli.phantom_s": "s",
    "cli.forward_s": "s", "cli.invert_s": "s", "cli.export_s": "s",
    "trace.op_s": "s", "trace.overhead_s": "s",
}


def build(workload: str, seed: int, smoke: bool):
    import workloads
    return workloads.WORKLOADS[workload](seed, smoke)


def probe_setup(args) -> None:
    """Child process: time importing gentomo and building the inputs."""
    t0 = time.perf_counter()
    build(args.workload, args.seed, args.size == "smoke")
    print(repr(time.perf_counter() - t0))


def measure_setup(args) -> list[float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    return [float(subprocess.run(cmd, check=True, capture_output=True,
                                 text=True).stdout.split()[-1])
            for _ in range(SETUP_PROBES)]


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def run_ops(wl, seconds: float, traced: bool, fault: bool):
    """Ops back to back until the deadline.  In a traced run odd ops are
    traced.  Returns the tracer and one record per op."""
    from workloads import OpResult
    tr = Tracer()
    ops = []
    deadline = time.perf_counter() + seconds
    while len(ops) < MIN_OPS or time.perf_counter() < deadline:
        i = tr.op_id = len(ops)
        tr.enabled = traced and i % 2 == 1
        try:
            res = wl.run(tr, bad=fault and i == 1)
        except Exception as exc:  # a failed op is counted, not fatal
            res = OpResult(math.inf, "", "", [
                f"raised {type(exc).__name__}: {exc}",
                traceback.format_exc(limit=-3)])
        ops.append({"id": i, "traced": tr.enabled,
                    "seconds": op_seconds(tr.op_spans(i)), "res": res})
    ref = next((o["res"] for o in ops if not o["res"].failures), None)
    for o in ops:
        r = o["res"]
        if ref is not None and (r.tomo_digest, r.recon_digest) != (
                ref.tomo_digest, ref.recon_digest):
            r.failures.append("output digest differs from the run's first "
                              "passing op")
    return tr, ops


def quartiles(values) -> dict:
    q = statistics.quantiles(values, n=4)
    return {"q1": q[0], "median": median(values), "q3": q[2], "n": len(values)}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def layer_metrics(spans, counts) -> dict:
    by_layer, dur, own = breakdown(spans)

    def ns(seconds, n):
        return seconds / n * 1e9 if n else 0.0

    points, kept = counts.get("points", 0), counts.get("kept", 0)
    params, x_bins = counts.get("params", 0), counts.get("x_bins", 0)
    kernel_pairs = counts.get("out_points", 0) * params if dur["inverse.kernel"] else 0
    forward_s = dur["forward.forward_binned"] + dur["forward.forward_binned_at"]
    startups = sum(1 for s in spans if s["name"] == "cli.startup")
    m = {f"{layer}.self_s": by_layer[layer] for layer in LAYERS}
    m.update({
        "core.quadrature_s": dur["core.quadrature"],
        "core.points": points,
        "core.quadrature_ns_per_point": ns(dur["core.quadrature"], points),
        "geometry.level_s": dur["geometry.level"],
        "geometry.level_ns_per_pair": ns(dur["geometry.level"], kept * params),
        "forward.s": forward_s,
        "forward.pairs": kept * params,
        "forward.ns_per_pair": ns(forward_s, kept * params),
        "forward.scatter_s": own["forward.forward_binned"]
        + own["forward.forward_binned_at"],
        "forward.overflow_frac": counts.get("overflow_frac", 0.0),
        "forward.singular_frac": counts.get("singular_frac", 0.0),
        "inverse.slice_s": dur["inverse.slice"],
        "inverse.slice_ns_per_elem": ns(dur["inverse.slice"], params * x_bins),
        "inverse.kernel_s": dur["inverse.kernel"],
        "inverse.kernel_pairs": kernel_pairs,
        "inverse.kernel_ns_per_pair": ns(dur["inverse.kernel"], kernel_pairs),
        "inverse.imag_ratio": counts.get("imag_ratio", 0.0),
        "inverse.boundary_decay": counts.get("boundary_decay", 0.0),
        "formats.write_tomogram_s": dur["formats.write_tomogram"],
        "formats.read_tomogram_s": dur["formats.read_tomogram"],
        "formats.tomogram_bytes": counts.get("tomogram_bytes", 0),
        "formats.csv_s": dur["formats.csv"],
        "formats.csv_bytes": counts.get("csv_bytes", 0),
        "formats.csv_mb_per_s": (counts.get("csv_bytes", 0) / 1e6 / dur["formats.csv"]
                                 if dur["formats.csv"] else 0.0),
        "cli.startup_s": dur["cli.startup"] / startups if startups else 0.0,
        "cli.phantom_s": dur["cli.phantom"],
        "cli.forward_s": dur["cli.forward"],
        "cli.invert_s": dur["cli.invert"],
        "cli.export_s": dur["cli.export"],
        "trace.op_s": op_seconds(spans),
    })
    return m


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def env_stamp() -> dict:
    import numpy as np
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
        top, _, sha = proc.stdout.strip().partition("\n")
        # a checkout without .git may sit inside some other repository
        if proc.returncode != 0 or Path(top).resolve() != ROOT:
            sha = None
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
            capture_output=True, text=True).stdout.strip()) if sha else None
    except OSError:
        sha = dirty = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    threads = {v: os.environ.get(v) for v in BLAS_VARS}
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(idx / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(idx / "size")
    return {
        "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": threads,
        "blas_threads_pinned": all(v == "1" for v in threads.values()),
        "GENTOMO_THREADS": os.environ.get("GENTOMO_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "caches": caches,
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run(args) -> int:
    smoke = args.size == "smoke"
    try:
        wl = build(args.workload, args.seed, smoke)
        setup = measure_setup(args)
    except (ImportError, subprocess.CalledProcessError) as exc:
        print(f"error: cannot set up gentomo from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    env = env_stamp()
    if not env["blas_threads_pinned"]:
        print(f"error: BLAS threads not pinned: {env['blas_threads']}",
              file=sys.stderr)
        return 2

    traced = bool(args.trace)
    tr, ops = run_ops(wl, args.seconds, traced, args.inject_fault)
    failed = [o for o in ops if o["res"].failures]
    untraced_s = [o["seconds"] for o in ops if not o["traced"]]
    errs = [o["res"].solution_err for o in ops if math.isfinite(o["res"].solution_err)]
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "held_out_seed": HELD_OUT_SEED, "trace": args.trace, "env": env,
        "op_s": quartiles(untraced_s), "op_s_samples": untraced_s,
        "setup_s_samples": setup,
        "failed_frac": len(failed) / len(ops),
        "digests": sorted({(o["res"].tomo_digest, o["res"].recon_digest)
                           for o in ops}),
        "failures": {o["id"]: o["res"].failures for o in failed},
    }

    if traced:
        per_op = [layer_metrics(tr.op_spans(o["id"]), o["res"].counts)
                  for o in ops if o["traced"]]
        metrics = {k: median(m[k] for m in per_op) for k in per_op[0]}
        # the first op pays for a cold heap; leave it out of the comparison
        metrics["trace.overhead_s"] = metrics["trace.op_s"] - median(
            untraced_s[1:] or untraced_s)
        units = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tr.spans))
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
        print_layers(args.workload, metrics)
    elif not errs:
        print("error: no op produced a result", file=sys.stderr)
        print(json.dumps({"detail": detail}))
        return 1
    else:
        metrics = {"op_s": median(untraced_s), "setup_s": median(setup),
                   "peak_rss_mb": peak_rss_mb(), "solution_err": median(errs)}
        units = END_TO_END
        for name, unit in units.items():
            print(f"{args.workload:<11} {name:<13} {metrics[name]:<22.6g} {unit}")
        q = detail["op_s"]
        print(f"{args.workload:<11} op_s quartiles {q['q1']:.4f} / "
              f"{q['median']:.4f} / {q['q3']:.4f} s over {q['n']} ops; "
              f"failed {len(failed)}/{len(ops)}")
    for o in failed:
        print(f"op {o['id']} failed: {'; '.join(o['res'].failures)}",
              file=sys.stderr)

    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def print_layers(workload: str, m: dict) -> None:
    """Per-layer table, then the ROADMAP Baseline columns."""
    op = m["trace.op_s"]
    norm = {"core": ("core.quadrature_ns_per_point", "ns/point"),
            "geometry": ("geometry.level_ns_per_pair", "ns/pair"),
            "forward": ("forward.ns_per_pair", "ns/pair"),
            "inverse": ("inverse.kernel_ns_per_pair", "ns/pair"),
            "formats": ("formats.csv_mb_per_s", "MB/s csv"),
            "cli": ("cli.startup_s", "s/startup")}
    print(f"{workload:<11} {'layer':<9} {'self_s':>9} {'share':>7}  normalized")
    for layer in LAYERS:
        key, unit = norm[layer]
        s = m[f"{layer}.self_s"]
        print(f"{workload:<11} {layer:<9} {s:9.4f} {s / op:7.1%}  {m[key]:.4g} {unit}")
    print(f"{workload:<11} baseline: forward {m['forward.s']:.3f} s, level eval "
          f"{m['geometry.level_s']:.3f} s (replay), char. slice "
          f"{m['inverse.slice_s']:.3f} s, invert {m['inverse.kernel_s']:.3f} s")
    print(f"{workload:<11} traced op {op:.4f} s, tracing overhead "
          f"{m['trace.overhead_s']:+.4f} s")


# ---------------------------------------------------------------------------
# smoke mode: the harness's own test
# ---------------------------------------------------------------------------


def smoke() -> int:
    """Every workload at tiny sizes, traced and untraced: every metric in
    BENCHMARK.json is printed with its unit, runs are correct, and a
    deliberately corrupted output is counted as a failed op."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def result(workload, trace, *extra):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "0", "--seconds", "1", "--trace", str(trace),
               "--size", "smoke", *extra]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            problems.append(f"{workload}: exit {proc.returncode}: {proc.stderr}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    for spec_wl in spec["workloads"]:
        name = spec_wl["name"]
        for trace in (0, 1):
            res = result(name, trace)
            if res is None:
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace {trace}: metrics {got} "
                                f"differ from BENCHMARK.json {want[trace]}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace {trace}: not correct: {res}")
        res = result(name, 0, "--inject-fault")
        if res is not None and (res["correct"] or res["failed"] < 1):
            problems.append(f"{name}: a corrupted output was not counted "
                            f"as failed: {res}")

    from workloads import digest
    for name in ("rt-quadric", "rt-circle"):
        wl = build(name, 0, True)
        rep = wl.library_roundtrip()
        mine = wl.run(Tracer())
        if digest(rep.reconstruction.values) != mine.recon_digest or \
                rep.l2_rel_error != mine.solution_err:
            problems.append(f"{name}: spelled-out op differs from gt.roundtrip")

    for p in problems:
        print(f"smoke: FAIL {p}")
    print(f"smoke: {'FAIL' if problems else 'PASS'} "
          f"({len(problems)} problem(s))")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["rt-quadric", "rt-circle",
                                           "cli-files", "directions"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full",
                    help="smoke: tiny grids for the harness's own test")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt the second op's output (tests the checks)")
    ap.add_argument("--smoke", action="store_true",
                    help="run the harness self-test and exit")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.probe_setup:
        probe_setup(args)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
