"""Benchmark of the anticonc command line on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.
One client runs a closed loop in one thread: each operation (one call of
``anticonc.cli.main``) starts when the previous one has finished and its
output has been checked.  A pass runs every operation of the workload once.
After an untimed warm-up pass on reduced inputs, passes repeat until
``--seconds`` have gone by (at least two passes), and the run reports
medians over passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints per-layer metrics taken from spans
around the package's public functions (see ``tracer.py``), plus the tracing
overhead.  The last line of standard output is the JSON result; a record of
the run (pass times, output digests and, when traced, every span) goes to
``.bench_out/``.
"""

from __future__ import annotations

import os

# One thread everywhere, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ANTICONC_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
# Set-up runs once in this process and this many times in fresh interpreters.
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 120

# Per-layer metrics are named <span>.<field>.  Each is a per-pass value, and
# the run reports its median over the traced passes.
LAYERS = (
    ("concentration.mc_q", ("calls", "busy_s", "self_s", "samples")),
    ("concentration.WeightedSum.sample", ("busy_s", "distinct_frac")),
    ("distributions.cp_sample_rng", ("busy_s", "distinct_frac")),
    ("concentration.exact_q.1d", ("calls", "busy_s", "atoms_in")),
    ("concentration.exact_q.2d", ("calls", "busy_s", "atoms_in")),
    ("concentration.exact_q.3d", ("calls", "busy_s", "atoms_in")),
    ("concentration.weighted_sum_distribution", ("calls", "busy_s", "atoms_out")),
    ("progressions.beta_rm", ("calls", "busy_s", "evaluations")),
    ("progressions.gamma_rs", ("calls", "busy_s", "evaluations")),
    ("progressions.uncovered_mass", ("calls", "busy_s")),
    ("lcd.compute_lcd", ("calls", "busy_s", "iterations")),
    ("lcd.violation_condition", ("calls", "busy_s")),
    ("concentration.esseen_upper_q", ("calls", "busy_s", "failed")),
    ("concentration.regularity_check", ("calls", "busy_s")),
    ("bounds.build_bound_report", ("calls", "self_s")),
    ("bounds.verify_pointwise_chain", ("calls", "busy_s")),
    ("verify.run_verification", ("calls", "self_s")),
    ("instances.load_instances", ("busy_s",)),
    ("cli.main", ("calls", "self_s")),
)
TRACE_METRICS = ("trace.self_sum_frac", "trace.spans", "trace.wall_s", "trace.overhead_s")
PER_LAYER = [f"{span}.{field}" for span, fields in LAYERS for field in fields]
PER_LAYER += TRACE_METRICS


E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "fraction",
}


def unit_of(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "fraction"
    return "count"


class Runner:
    """Runs ops through ``anticonc.cli.main`` and keeps the tallies."""

    def __init__(self, tracer=None):
        import anticonc.cli

        self.cli = anticonc.cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}
        self._op_id = 0

    def run_op(self, op, traced: bool) -> tuple:
        """Run one op; return (wall seconds, CPU seconds).  Checks are untimed."""
        self._op_id += 1
        buf = io.StringIO()
        error = None
        if traced:
            self.tracer.begin_op(self._op_id)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code
        except Exception as exc:  # an escaped exception is a failed op
            rc = None
            error = f"raised {exc!r}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if traced:
            self.tracer.end_op()
        text = buf.getvalue()
        if error is None and rc != 0:
            error = f"exit code {rc}"
        if error is None:
            try:
                op.check(text)
            except (workloads.CheckFailed, KeyError, TypeError, ValueError) as exc:
                error = f"check failed: {exc}"
        self.attempted += 1
        self.digests[op.label] = hashlib.sha256(text.encode()).hexdigest()
        if error is not None:
            self.failed += 1
            self.errors.append(f"{op.label}: {error}")
            print(f"perfbench: op {op.label} failed: {error}", file=sys.stderr)
        return wall, cpu

    def run_pass(self, ops, traced: bool = False) -> tuple:
        wall = cpu = 0.0
        for op in ops:
            w, c = self.run_op(op, traced)
            wall += w
            cpu += c
        return wall, cpu


def child_setup_seconds(name: str, seed: int, root: Path, workdir: Path) -> float:
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
        "import workloads\n"
        f"print(workloads.timed_setup({name!r}, {seed}, {str(root)!r}, {str(workdir)!r})[0])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def layer_metrics(spans, lo: int, hi: int, wall: float) -> dict:
    totals = tracing.layer_totals(spans, lo, hi)
    out = {}
    for span, fields in LAYERS:
        rec = totals.get(span, {})
        for field in fields:
            if field == "distinct_frac":
                samples = rec.get("samples", 0)
                value = rec.get("distinct", 0) / samples if samples else 0.0
            elif field.endswith("_s"):
                value = rec.get(field, 0.0)
            else:
                value = int(rec.get(field, 0))
            out[f"{span}.{field}"] = value
    out["trace.self_sum_frac"] = sum(r["self_s"] for r in totals.values()) / wall
    out["trace.spans"] = hi - lo
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    out_dir = root / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}"
    try:
        setup_own, wl = workloads.timed_setup(args.workload, args.seed, root, out_dir / tag)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    setups = [setup_own] + [
        child_setup_seconds(args.workload, args.seed, root, out_dir / f"{tag}-setup{i}")
        for i in range(SETUP_CHILDREN)
    ]

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    runner = Runner(tracer)
    runner.run_pass(wl.warmup)

    passes, traced_passes = [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) > len(traced_passes)
        lo = len(tracer.spans) if traced else 0
        wall, cpu = runner.run_pass(wl.ops, traced)
        if traced:
            traced_passes.append(layer_metrics(tracer.spans, lo, len(tracer.spans), wall))
            traced_passes[-1]["trace.wall_s"] = wall
        else:
            passes.append((wall, cpu))
        done = len(passes) + len(traced_passes)
        if done >= MIN_PASSES and time.perf_counter() - start >= args.seconds:
            if not args.trace or len(passes) == len(traced_passes):
                break

    wall_s = statistics.median(w for w, _ in passes)
    if args.trace:
        metrics = {
            key: statistics.median(p[key] for p in traced_passes) for key in traced_passes[0]
        }
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall_s
    else:
        metrics = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(c for _, c in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok_frac": (runner.attempted - runner.failed) / runner.attempted,
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "notes": wl.notes,
        "setup_s": setups,
        "passes": passes,
        "traced_passes": traced_passes,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "output_sha256": runner.digests,
    }
    (out_dir / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(out_dir / f"{tag}.spans.jsonl")

    print(
        f"perfbench: {args.workload} seed={args.seed} passes={len(passes)}"
        f"+{len(traced_passes)} traced, ops_failed_frac={runner.failed / runner.attempted:g}, "
        f"output_sha256={json.dumps(runner.digests, sort_keys=True)}"
    )
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
