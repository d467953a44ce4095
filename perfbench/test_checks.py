"""Self-test of the benchmark's output checks: a corrupted output counts as a
failed op.

    python3 -m pytest -q perfbench/test_checks.py

Run it from the repository root.  It uses small generated instances and
takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

workloads.import_package(BENCH_DIR.parent)

import anticonc.cli  # noqa: E402


class CorruptingCli:
    """Stands in for ``anticonc.cli``: runs the real command, then edits its output."""

    def __init__(self, edit):
        self.edit = edit

    def main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = anticonc.cli.main(argv)
        obj = json.loads(buf.getvalue())
        self.edit(obj)
        sys.stdout.write(json.dumps(obj))
        return rc


def _runner(edit=None):
    runner = run.Runner()
    if edit is not None:
        runner.cli = CorruptingCli(edit)
    return runner


@pytest.fixture(scope="module")
def gapfit_op(tmp_path_factory):
    return workloads.gapfit_op(3, tmp_path_factory.mktemp("gapfit"), 40)


@pytest.fixture(scope="module")
def q_ops(tmp_path_factory):
    """Small exact and Monte Carlo q ops with their true values."""
    cases = workloads.Q_WARMUP_CASES
    ops = workloads.q_ops(5, tmp_path_factory.mktemp("q"), cases, None)
    values = {}
    for op in ops:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert anticonc.cli.main(op.argv) == 0
        values[op.label] = json.loads(buf.getvalue())["value"]
    return ops, values


def _with_frozen(op, frozen):
    check = workloads.check_exact_q if op.label.startswith("exact") else workloads.check_mc_q
    return workloads.Op(op.label, op.argv, check(frozen))


def test_true_outputs_pass(gapfit_op, q_ops):
    ops, values = q_ops
    runner = _runner()
    runner.run_pass([gapfit_op] + [_with_frozen(op, values[op.label]) for op in ops])
    assert (runner.attempted, runner.failed) == (1 + len(ops), 0), runner.errors


def test_altered_witness_is_a_failed_op(gapfit_op):
    def scale_steps(obj):
        wit = obj["beta"]["witness"]
        wit["h"] = [1.37 * h for h in wit["h"]]

    runner = _runner(scale_steps)
    runner.run_op(gapfit_op, traced=False)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "witness replays" in runner.errors[0]


def test_altered_gamma_witness_is_a_failed_op(gapfit_op):
    def scale_steps(obj):
        wit = obj["gamma_fit"]["witness"]
        wit["h"] = [1.37 * h for h in wit["h"]]

    runner = _runner(scale_steps)
    runner.run_op(gapfit_op, traced=False)
    assert runner.failed == 1


@pytest.mark.parametrize("label", ["exact-1d", "exact-2d", "exact-3d"])
def test_wrong_exact_value_is_a_failed_op(q_ops, label):
    ops, values = q_ops
    op = next(o for o in ops if o.label == label)
    runner = _runner()
    runner.run_op(_with_frozen(op, values[label] + 1e-9), traced=False)
    assert runner.failed == 1
    assert "differs from frozen" in runner.errors[0]


def test_mc_value_below_frozen_is_a_failed_op(q_ops):
    ops, values = q_ops
    op = next(o for o in ops if o.label == "mc-3d")
    runner = _runner()
    runner.run_op(_with_frozen(op, values["mc-3d"] + 1e-6), traced=False)
    assert runner.failed == 1


def test_nonzero_exit_is_a_failed_op(tmp_path):
    op = workloads.Op("missing", ["q", str(tmp_path / "absent.json")], lambda text: None)
    runner = _runner()
    runner.run_op(op, traced=False)
    assert runner.failed == 1
    assert "exit code 2" in runner.errors[0]


def test_bounds_report_checks():
    good = {"reports": [{"instance": "a", "q": {"value": 0.5}, "references": {"q": {"value": 0.5}}}]}
    check = workloads.check_bounds(["a"])
    check(json.dumps(good))
    with pytest.raises(workloads.CheckFailed):
        workloads.check_bounds(["a", "b"])(json.dumps(good))
    good["reports"][0]["references"]["q"]["value"] = 1.5
    with pytest.raises(workloads.CheckFailed):
        check(json.dumps(good))


def test_verify_fail_is_caught():
    check = workloads.check_verify(25)
    check(json.dumps({"n_instances": 25, "passed": True}))
    with pytest.raises(workloads.CheckFailed):
        check(json.dumps({"n_instances": 25, "passed": False, "results": []}))
    with pytest.raises(workloads.CheckFailed):
        check(json.dumps({"n_instances": 24, "passed": True}))


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_traced_pass_reports_layers(q_ops, gapfit_op):
    ops, _ = q_ops
    tracer = run.tracing.Tracer()
    tracer.install()
    runner = run.Runner(tracer)
    passes = [ops, [gapfit_op]]
    for pass_ops in passes:
        lo = len(tracer.spans)
        wall, _ = runner.run_pass(pass_ops, traced=True)
        metrics = run.layer_metrics(tracer.spans, lo, len(tracer.spans), wall)
        assert runner.failed == 0, runner.errors
        assert abs(metrics["trace.self_sum_frac"] - 1.0) < 0.05
        assert metrics["cli.main.calls"] == len(pass_ops)
    q_metrics = run.layer_metrics(tracer.spans, 0, lo, 1.0)
    assert q_metrics["concentration.mc_q.calls"] == 2
    assert q_metrics["concentration.mc_q.samples"] == 2 * workloads.WARMUP_BUDGET
    assert 0.0 < q_metrics["concentration.WeightedSum.sample.distinct_frac"] <= 1.0
    for d in ("1d", "2d", "3d"):
        assert q_metrics[f"concentration.exact_q.{d}.calls"] == 1
    assert metrics["progressions.beta_rm.evaluations"] > 0
    assert metrics["progressions.uncovered_mass.calls"] > metrics["progressions.beta_rm.calls"]
    # every span but the op roots has a parent span in the same op
    for span in tracer.spans:
        parent = span[run.tracing.PARENT]
        assert parent == -1 or tracer.spans[parent][run.tracing.OP] == span[run.tracing.OP]
