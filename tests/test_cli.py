import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from anticonc import cli
from anticonc.cli import SCHEMA_VERSION, main
from anticonc.errors import (
    CapacityError,
    ChainViolationError,
    DomainError,
    InputError,
    NumericsError,
    naming_instance,
)
from anticonc.progressions import Cgap, Gap

CORPUS = Path(__file__).resolve().parents[1] / "src" / "anticonc" / "data" / "corpus"
ONES10 = CORPUS / "02-ones-10.json"


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_q_exact_known_value(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "id": "flat",
        "distribution": "rademacher",
        "weights": [[1.0]] * 10,
        "parameters": {"tau": 0.0},
    }))
    code, out, _ = run(["q", str(inst)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == 0.24609375
    assert obj["method"] == "exact"
    assert obj["spec_version"] == SCHEMA_VERSION


def test_q_methods_mc_and_esseen(capsys):
    code, out, _ = run(["q", str(ONES10), "--method", "mc", "--budget", "20000"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "monte_carlo"
    assert abs(obj["value"] - 0.24609375) < 0.02
    code, out, _ = run(["q", str(ONES10), "--method", "esseen"], capsys)
    assert code == 0
    assert json.loads(out)["method"] == "esseen_upper"


def test_malformed_json_is_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"id": "x", ')
    code, _, err = run(["q", str(bad)], capsys)
    assert code == 2
    assert "malformed JSON" in err


def test_missing_parameter_is_exit_two(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "id": "no-tau",
        "distribution": "rademacher",
        "weights": [[1.0]],
    }))
    code, _, err = run(["q", str(inst)], capsys)
    assert code == 2
    assert "tau" in err


@pytest.mark.parametrize("method", ["exact", "mc"])
def test_non_finite_tau_is_exit_two(capsys, tmp_path, method):
    inst = tmp_path / "inst.json"
    inst.write_text(
        '{"id": "nan-tau", "distribution": "rademacher", "weights": [[1.0]], '
        '"parameters": {"tau": NaN}}'
    )
    code, out, err = run(["q", str(inst), "--method", method], capsys)
    assert code == 2
    assert out == ""
    assert "tau" in err


@pytest.mark.parametrize(
    "field, text, message",
    [
        ("weights", "[NaN, 1]", "weights: expected finite numbers, got nan"),
        ("distribution", '{"atoms": [-Infinity, 1], "weights": [0.5, 0.5]}',
         "distribution: atoms: expected finite numbers, got -inf"),
        ("distribution", '{"atoms": [-1, 1], "weights": [Infinity, 0.5]}',
         "distribution: weights: expected finite numbers, got inf"),
    ],
    ids=["nan-weight", "infinite-atom", "infinite-atom-weight"],
)
def test_non_finite_array_entry_is_exit_two_naming_the_array(capsys, tmp_path, field, text, message):
    # Python's json reads NaN and Infinity; the array rule refuses them
    inst = tmp_path / "inst.json"
    fields = {"distribution": '"rademacher"', "weights": "[1, 2]", field: text}
    inst.write_text(
        '{"id": "bad", "distribution": %(distribution)s, "weights": %(weights)s, '
        '"parameters": {"tau": 1}}' % fields
    )
    code, out, err = run(["q", str(inst)], capsys)
    assert code == 2 and out == ""
    assert err.strip() == f"error: {inst}: instance 'bad': {message}"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exact_q_near_the_float_maximum_raises_no_warning(capsys, tmp_path):
    # the atoms -1e308 and 1e308 lie 2e308 apart, past the float range: an
    # infinite merge gap is far, not an overflow warning
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "id": "huge", "distribution": "rademacher", "weights": [1e308, 1],
        "parameters": {"tau": 0.5},
    }))
    code, out, _ = run(["q", str(inst), "--method", "exact"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == 0.5


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "weight, argv",
    [(5e307, ["verify"]), (1e308, ["q", "--method", "esseen"])],
    ids=["verify", "q-esseen"],
)
def test_phases_past_the_float_range_exit_two(capsys, tmp_path, weight, argv):
    # a chain or quadrature phase t * weight overflows: verify passed its chain on
    # NaN phases, and the quadrature ran out of its interval budget
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "huge.json").write_text(json.dumps({
        "id": "huge", "distribution": "rademacher", "weights": [weight, 1],
        "parameters": {"tau": 0.5, "kappa": 1, "delta": 0.5},
    }))
    target = corpus if argv[0] == "verify" else corpus / "huge.json"
    code, out, err = run([argv[0], str(target), *argv[1:]], capsys)
    assert code == 2 and out == ""
    assert err.strip().endswith(
        "instance 'huge': phases <t, a_k>: expected finite numbers, got -inf"
    )


def test_non_converged_quadrature_is_exit_one(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "id": "tiny-tau",
        "distribution": "rademacher",
        "weights": [[1.0]],
        "parameters": {"tau": 1e-6},
    }))
    code, out, err = run(["q", str(inst), "--method", "esseen"], capsys)
    assert code == 1
    assert out == ""
    assert "adaptive Simpson" in err


def test_capacity_is_exit_three(capsys, tmp_path):
    import numpy as np
    rng = np.random.default_rng(1)
    inst = tmp_path / "big.json"
    inst.write_text(json.dumps({
        "id": "big",
        "distribution": "rademacher",
        "weights": [[float(v)] for v in rng.normal(size=40)],
        "parameters": {"tau": 1.0},
    }))
    code, _, err = run(["q", str(inst), "--budget", "5000"], capsys)
    assert code == 3
    assert "capacity" in err.lower()


_PLANE = [[1.0, 0.5], [0.5, 1.0]]
_SPACE = [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]


@pytest.mark.parametrize(
    "argv",
    [["q"], ["q", "--method", "mc", "--budget", "2000"], ["bounds", "--budget", "2000"]],
    ids=["exact", "mc", "bounds"],
)
@pytest.mark.parametrize(
    "weights, tau",
    [(_PLANE, 1e300), (_PLANE, 1e160), (_SPACE, 1e300), (_SPACE, 1e160),
     ([[1e155, 2.0], [3.0, 1e155]], 1.0)],
    ids=["2d-tau1e300", "2d-tau1e160", "3d-tau1e300", "3d-tau1e160", "2d-weights1e155"],
)
def test_d2_past_the_ball_range_is_exit_two(capsys, tmp_path, argv, weights, tau):
    # squared distances would overflow: refused before any pair is listed
    inst = tmp_path / "far.json"
    inst.write_text(json.dumps({
        "id": "far",
        "distribution": "rademacher",
        "weights": weights,
        "parameters": {"tau": tau, "kappa": 1.0, "delta": 0.5},
    }))
    code, out, err = run([argv[0], str(inst), *argv[1:]], capsys)
    assert code == 2 and out == ""
    assert err == (
        "error: instance 'far': in dimension >= 2, coordinates and tau/2 must not exceed 1e+150\n"
    )


@pytest.mark.parametrize(
    "argv", [["bounds", "--budget", "2000"], ["verify"]], ids=["bounds", "verify"]
)
def test_error_while_computing_a_report_names_the_instance(capsys, tmp_path, argv):
    # a directory of a valid instance and one past the ball range: the error
    # names the failing instance, and the exit code and empty stdout stay
    (tmp_path / "02-ones-10.json").write_text(ONES10.read_text())
    (tmp_path / "huge-2d.json").write_text(json.dumps({
        "id": "huge-2d",
        "distribution": "rademacher",
        "weights": _PLANE,
        "parameters": {"tau": 1e300, "kappa": 1.0, "delta": 0.5},
    }))
    code, out, err = run([argv[0], str(tmp_path), *argv[1:]], capsys)
    assert code == 2 and out == ""
    assert err == (
        "error: instance 'huge-2d': in dimension >= 2, "
        "coordinates and tau/2 must not exceed 1e+150\n"
    )


_FAR = {"tau": 1e300, "kappa": 1.0, "delta": 0.5}
_SPACE = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
# 40 generic weights: their exact law outgrows an enumeration budget of 5,000
_GENERIC_40 = [[(k + 2) ** 0.5] for k in range(40)]
_BALL_RANGE = "in dimension >= 2, coordinates and tau/2 must not exceed 1e+150"


@pytest.mark.parametrize(
    "argv, weights, params, code, message",
    [
        (["q"], _PLANE, _FAR, 2, _BALL_RANGE),
        (["q", "--method", "mc", "--budget", "2000"], _PLANE, _FAR, 2, _BALL_RANGE),
        (["bounds", "--budget", "2000"], _PLANE, _FAR, 2, _BALL_RANGE),
        (["gapfit"], _PLANE, {"delta": 0.5}, 2,
         "gapfit operates on one-dimensional weight vectors"),
        (["q", "--method", "esseen"], [[1.0]], {"tau": 1e-310}, 2,
         "tau: in dimension 1 the dual radius 1/tau must not exceed 8.8e+304, got 1e-310"),
        (["q", "--method", "esseen"], [[1.0]], {"tau": 1e-308}, 2,
         "tau: in dimension 1 the dual radius 1/tau must not exceed 8.8e+304, got 1e-308"),
        (["q", "--method", "esseen"], _PLANE, {"tau": 1e-160}, 2,
         "tau: in dimension 2 the dual radius 1/tau must not exceed 3e+152, got 1e-160"),
        (["q", "--method", "esseen"], _SPACE, {"tau": 1e-110}, 2,
         "tau: in dimension 3 the dual radius 1/tau must not exceed 4.4e+101, got 1e-110"),
        (["q", "--method", "esseen"], _SPACE, {"tau": 1e300}, 2,
         "tau: in dimension 3 tau must not exceed 5.6e+102, got 1e+300"),
        # sums past the float range are refused by the array rule, not warned about
        (["q", "--method", "mc", "--budget", "2000"], [[1e308], [1e308]], {"tau": 0.5}, 2,
         "samples: expected finite numbers, got inf"),
        (["q"], [[1e308], [1e308]], {"tau": 0.5}, 2, "atoms: expected finite numbers, got -inf"),
        (["q"], [[1e308, 1.0], [1e308, 2.0]], {"tau": 0.5}, 2,
         "atoms: expected finite numbers, got -inf"),
        # the spectral measure halves before it subtracts: the smoothing samples overflow
        (["bounds", "--budget", "2000"], [[1e308], [1.0]], {"tau": 0.5, "kappa": 1.0,
         "delta": 0.5}, 2, "samples: expected finite numbers, got -inf"),
        (["q", "--budget", "5000"], _GENERIC_40, {"tau": 1.0}, 3,
         "convolution support would exceed budget 5000"),
        (["lcd"], [[1.0]], {"tau": 1.0}, 2, "missing required parameter 'gamma'"),
        (["gapfit"], [[1.0]], {"kappa": 1.0}, 2, "needs parameter delta (or tau)"),
    ],
    ids=["q-exact", "q-mc", "bounds", "gapfit-2d", "q-esseen-tiny-tau", "q-esseen-1d-limit",
         "q-esseen-2d-limit", "q-esseen-3d-limit", "q-esseen-3d-wide-tau", "q-mc-huge-samples",
         "q-huge-atoms", "q-huge-atoms-2d", "bounds-huge-samples", "q-capacity", "lcd-missing",
         "gapfit-no-window"],
)
def test_error_while_computing_names_the_instance_under_every_command(
    capsys, tmp_path, argv, weights, params, code, message
):
    # the file loaded, the error met while the one instance is computed names it
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "id": "z", "distribution": "rademacher", "weights": weights, "parameters": params,
    }))
    got, out, err = run([argv[0], str(inst), *argv[1:]], capsys)
    assert (got, out) == (code, "")
    head = "capacity exceeded" if code == 3 else "error"
    assert err.startswith(f"{head}: instance 'z': {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["q", "lcd", "gapfit", "bounds", "verify"])
@pytest.mark.parametrize(
    "key, value", [("tau", -1), ("kappa", -2), ("delta", -0.5), ("smoothing_power", -1)]
)
def test_negative_scale_setting_fails_at_load_naming_it(capsys, tmp_path, command, key, value):
    # every command refuses it, whether or not it reads the setting;
    # bounds and verify load a directory beside a good file
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "01-ones-04.json").write_text((CORPUS / "01-ones-04.json").read_text())
    obj = json.loads(ONES10.read_text())
    obj["parameters"][key] = value
    bad = corpus / ONES10.name
    bad.write_text(json.dumps(obj))
    target = corpus if command in ("bounds", "verify") else bad
    code, out, err = run([command, str(target)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        f"error: {bad}: instance '02-ones-10': "
        f"parameters.{key}: expected a nonnegative number, got {float(value)}\n"
    )


@pytest.mark.parametrize("command", ["q", "lcd", "gapfit", "bounds", "verify"])
@pytest.mark.parametrize(
    "law, message",
    [
        ({"atoms": [-1, 1], "weights": [0.2, 0.2], "normalized": False},
         "summand must be a probability distribution"),
        ({"atoms": [[0, 1], [1, 0]], "weights": [0.5, 0.5]},
         "summand distribution must live on the line"),
    ],
    ids=["light", "planar"],
)
def test_step_law_that_is_not_a_probability_on_the_line_fails_at_load(
    capsys, tmp_path, command, law, message
):
    # lcd and gapfit never read the step law, and still refuse it
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    bad = corpus / "bad.json"
    bad.write_text(json.dumps({
        "id": "bad", "distribution": law, "weights": [1.0, 2.0],
        "parameters": {"tau": 1.0, "delta": 0.5, "gamma": 0.5, "alpha": 4.0},
    }))
    target = corpus if command == "verify" else bad
    code, out, err = run([command, str(target)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: instance 'bad': distribution: {message}\n"


@pytest.mark.parametrize(
    "exc",
    [DomainError("d"), InputError("i"), CapacityError("c"), NumericsError("n"),
     ChainViolationError("chain", 0.5, 2.0, 1.0)],
    ids=lambda exc: type(exc).__name__,
)
def test_naming_an_instance_keeps_the_error_and_its_fields(exc):
    # the class picks the exit code, so the named error must keep it
    text = str(exc)
    with pytest.raises(type(exc)) as info:
        with naming_instance("x"):
            raise exc
    assert info.value is exc and str(exc) == f"instance 'x': {text}"
    if isinstance(exc, ChainViolationError):
        assert (exc.label, exc.t, exc.lhs, exc.rhs) == ("chain", 0.5, 2.0, 1.0)


def test_d2_inside_the_ball_range_runs(capsys, tmp_path):
    inst = tmp_path / "wide.json"
    inst.write_text(json.dumps({
        "id": "wide", "distribution": "rademacher", "weights": _PLANE,
        "parameters": {"tau": 1e149},
    }))
    code, out, _ = run(["q", str(inst)], capsys)
    assert code == 0
    assert json.loads(out)["value"] == 1.0


def test_lcd_command(capsys):
    code, out, _ = run(["lcd", str(CORPUS / "12-lcd-ones-09-g5a10.json")], capsys)
    assert code == 0
    obj = json.loads(out)
    lcd = obj["lcd"]
    assert lcd["certified"] and lcd["converged"]
    assert lcd["d_lower"] <= 2.0 / 3.0 <= lcd["d_upper"] + 1e-6


def test_bounds_json_and_csv(capsys, tmp_path):
    out_json = tmp_path / "rep.json"
    code = main(["bounds", str(ONES10), "--budget", "5000", "--out", str(out_json)])
    assert code == 0
    obj = json.loads(out_json.read_text())
    assert obj["spec_version"] == SCHEMA_VERSION
    assert len(obj["reports"]) == 1
    rep = obj["reports"][0]
    assert rep["instance"] == "02-ones-10"
    assert "transfer_plain" in rep["bounds"]

    out_csv = tmp_path / "rep.csv"
    code = main([
        "bounds", str(ONES10), "--budget", "5000",
        "--format", "csv", "--out", str(out_csv),
    ])
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0].startswith("instance,tag,value,vacuous,target")
    assert all(line.split(",")[0] == "02-ones-10" for line in lines[1:])


def test_bounds_grid_is_sorted_and_repeatable(tmp_path):
    out1 = tmp_path / "grid1.csv"
    out2 = tmp_path / "grid2.csv"
    args = ["bounds", str(CORPUS), "--budget", "3000", "--format", "csv"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    names = [line.split(",")[0] for line in out1.read_text().strip().split("\n")[1:]]
    assert names == sorted(names)


@pytest.mark.parametrize(
    "argv",
    [["q", str(ONES10), "--budget", "0"], ["bounds", str(ONES10), "--budget", "-1"],
     ["verify", "--budget", "0"]],
)
def test_budget_below_one_is_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--budget: expected an integer of at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text",
    [
        ("q", "exact enumeration cap for exact; Monte Carlo sample count for mc"),
        ("bounds", "Monte Carlo sample count of every estimate (100,000 when omitted)"),
    ],
)
def test_budget_help_says_what_each_command_counts(capsys, command, text):
    # bounds takes its exact references at the default budget: its --budget
    # counts only Monte Carlo samples
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"--budget BUDGET {text}" in help_text
    if command == "bounds":
        assert "enumeration" not in help_text
    # the help states the Monte Carlo minimum that the estimator enforces
    assert "at least 1,000" in help_text
    mc = ["--method", "mc"] if command == "q" else []
    code, out, err = run([command, str(ONES10), *mc, "--budget", "999"], capsys)
    assert code == 2 and out == ""
    assert "Monte Carlo needs at least 1000 samples" in err


def test_gapfit_command(capsys):
    code, out, _ = run(["gapfit", str(ONES10)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["beta"]["value"] == 0.0
    assert obj["beta"]["uncovered_count"] == 0.0
    assert obj["window"] == 0.5
    assert "witness" in obj["gamma_fit"]


def test_gapfit_rank_zero_witnesses_load_back_and_replay(capsys, tmp_path):
    from anticonc.distributions import half_empirical_measure
    from anticonc.progressions import Cgap, Gap, GapImageProgression, uncovered_mass

    inst = tmp_path / "rank-zero.json"
    rows = [0.3, 1.0, 2.0]
    inst.write_text(json.dumps({
        "id": "rank-zero",
        "distribution": "rademacher",
        "weights": rows,
        "parameters": {"delta": 0.5, "r": 0},
    }))
    code, out, _ = run(["gapfit", str(inst)], capsys)
    assert code == 0
    obj = json.loads(out)
    beta, gamma = obj["beta"]["witness"], obj["gamma_fit"]["witness"]
    assert gamma == {"gap": {"L": [], "g": [], "dim": 1}, "h": [1.0]}
    w = half_empirical_measure([[v] for v in rows])
    for name, wit in (
        ("beta", Cgap.from_json_obj(beta)),
        ("gamma_fit", GapImageProgression(Gap.from_json_obj(gamma["gap"]), tuple(gamma["h"]))),
    ):
        assert wit.rank == 0 and obj[name]["exact"]
        assert obj[name]["value"] == 2 / 6
        assert uncovered_mass(w, wit.points(), obj["window"]) == obj[name]["value"]


@pytest.mark.parametrize("method", ["exact", "mc", "esseen"])
def test_every_q_method_refuses_a_step_law_that_is_not_a_probability(capsys, tmp_path, method):
    inst = tmp_path / "light.json"
    inst.write_text(json.dumps({
        "id": "light",
        "distribution": {"atoms": [-1, 1], "weights": [0.2, 0.2], "normalized": False},
        "weights": [1.0, 2.0],
        "parameters": {"tau": 1.0},
    }))
    code, out, err = run(["q", str(inst), "--method", method], capsys)
    assert code == 2 and out == ""
    assert "summand must be a probability distribution" in err


def test_verify_text_and_exit_codes(capsys, tmp_path):
    code, out, _ = run(["verify"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "instances: 25"
    assert out.splitlines()[-1] == "result: PASS"

    import shutil
    bad_dir = tmp_path / "corpus"
    shutil.copytree(CORPUS, bad_dir)
    target = bad_dir / "01-ones-04.json"
    obj = json.loads(target.read_text())
    obj["expected"]["p"]["value"] = 0.77
    target.write_text(json.dumps(obj))
    code, out, _ = run(["verify", str(bad_dir)], capsys)
    assert code == 1
    assert "first counterexample:" in out
    assert "result: FAIL" in out


def test_verify_malformed_expected_entry_is_a_counterexample(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    obj = json.loads(ONES10.read_text())
    obj["expected"] = {"q": {"tau": 1.0}}
    (corpus / ONES10.name).write_text(json.dumps(obj))
    code, out, _ = run(["verify", str(corpus)], capsys)
    assert code == 1
    assert "first counterexample:" in out
    assert "missing field 'value'" in out


def test_verify_seed_determinism(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["verify", "--seed", "5", "--out", str(a)]) == 0
    assert main(["verify", "--seed", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_json_format(capsys):
    code, out, _ = run(["verify", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["spec_version"] == SCHEMA_VERSION
    assert obj["n_instances"] == 25


def test_constants_file_applies(capsys, tmp_path):
    consts = tmp_path / "c.json"
    consts.write_text(json.dumps({"c_d": 2.0}))
    code, out, _ = run(
        ["bounds", str(ONES10), "--budget", "3000", "--constants", str(consts)],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["constants"]["c_d"] == 2.0

    consts.write_text(json.dumps({"nope": 1.0}))
    code, _, err = run(
        ["bounds", str(ONES10), "--budget", "3000", "--constants", str(consts)],
        capsys,
    )
    assert code == 2
    assert "nope" in err


def test_constants_file_is_read_once_per_bounds_run(capsys, tmp_path, monkeypatch):
    consts = tmp_path / "c.json"
    consts.write_text(json.dumps({"c_d": 2.0}))
    spy = mock.Mock(wraps=cli.read_json)
    monkeypatch.setattr(cli, "read_json", spy)
    code, out, _ = run(
        ["bounds", str(CORPUS), "--budget", "1000", "--constants", str(consts)], capsys
    )
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 25 and spy.call_count == 1
    assert {rep["constants"]["c_d"] for rep in reports} == {2.0}


def test_bad_shared_constants_file_names_no_instance(capsys, tmp_path):
    # the file is at fault, not an instance that would have read it: the
    # first of a bounds grid or the one instance of q
    consts = tmp_path / "c.json"
    consts.write_text(json.dumps({"c2": -1}))
    for argv in (["bounds", str(CORPUS)], ["q", str(ONES10), "--method", "esseen"]):
        code, out, err = run(argv + ["--constants", str(consts)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {consts}: constants.c2: ")
        assert "instance" not in err


def test_importing_the_cli_loads_no_scipy():
    # scipy is imported where a kd-tree is first needed: 1-D commands never
    # need one, and the corpus's multi-d pair and ball tables are small
    src = Path(__file__).resolve().parents[1] / "src"
    lcd = CORPUS / "11-lcd-ones-04-g9a10.json"
    commands = [
        ["q", str(ONES10)],
        ["q", str(ONES10), "--method", "mc", "--budget", "2000"],
        ["q", str(ONES10), "--method", "esseen"],
        ["lcd", str(lcd)],
        ["gapfit", str(ONES10)],
        ["bounds", str(CORPUS), "--budget", "2000"],
        ["verify"],
        ["q", str(CORPUS / "17-grid2-unit.json")],
        ["q", str(CORPUS / "21-grid3-unit.json")],
        ["q", str(CORPUS / "19-ones2d-06.json"), "--method", "mc", "--budget", "2000"],
    ]
    code = (
        "import contextlib, io, json, sys, anticonc.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [anticonc.cli.main(args) for args in json.loads(sys.argv[1])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == f"{[0] * len(commands)} []"


@pytest.mark.parametrize(
    "command, flag",
    [("q", "--format")]
    + [
        (command, flag)
        for command in ("lcd", "gapfit")
        for flag in ("--seed", "--constants", "--format", "--budget")
    ],
)
def test_unread_flags_are_rejected(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, str(ONES10), flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_capless_instance_uses_the_default_caps_in_every_command(capsys):
    # 03-steps-08 sets none of r, m, s: bounds and gapfit both search at
    # r = 1, m = s = 3 (verify's witness key is tested in test_verify)
    steps = str(CORPUS / "03-steps-08.json")
    code, out, _ = run(["bounds", steps, "--budget", "2000"], capsys)
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert {k: rep["parameters"][k] for k in "rms"} == {"r": 1, "m": 3, "s": 3}
    assert rep["guards"]["beta_star_delta"] == 0.75
    code, out, _ = run(["gapfit", steps], capsys)
    assert code == 0
    assert json.loads(out)["beta"]["witness"]["m"] == 3


@pytest.mark.parametrize("command", ["q", "lcd", "bounds", "gapfit", "verify"])
@pytest.mark.parametrize(
    "params", [{"gamma": 0.5}, {"theta_max": 4.0}], ids=["gamma-only", "theta_max-only"]
)
def test_half_given_lcd_parameters_exit_two(capsys, tmp_path, command, params):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    obj = json.loads(ONES10.read_text())
    for key in ("gamma", "alpha"):
        del obj["parameters"][key]
    obj["parameters"].update(params)
    inst = corpus / ONES10.name
    inst.write_text(json.dumps(obj))
    code, out, err = run([command, str(corpus if command == "verify" else inst)], capsys)
    assert code == 2
    assert out == ""
    assert "gamma and alpha come together" in err


def test_lcd_without_parameters_names_the_missing_one(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text((CORPUS / "04-dyadic-06.json").read_text())
    code, out, err = run(["lcd", str(inst)], capsys)
    assert code == 2
    assert out == ""
    assert "missing required parameter 'gamma'" in err


@pytest.mark.parametrize("text", ["[1, 2]", '"ab"', '[["c2", 2.0]]'])
@pytest.mark.parametrize(
    "argv", [["q", str(ONES10), "--method", "esseen"], ["bounds", str(ONES10), "--budget", "2000"]]
)
def test_constants_file_must_hold_an_object(capsys, tmp_path, argv, text):
    consts = tmp_path / "c.json"
    consts.write_text(text)
    code, out, err = run(argv + ["--constants", str(consts)], capsys)
    assert code == 2
    assert out == ""
    assert "constants: expected an object, got " in err


@pytest.mark.parametrize("command", ["q", "lcd", "gapfit", "bounds", "verify"])
@pytest.mark.parametrize(
    "setting",
    [{"gamma": 1.5}, {"alpha": 0}, {"theta_max": -1}, {"constants": {"c2": -1}},
     {"constants": {"zz": 1}}, {"r": -1}, {"m": 0}, {"s": 0}],
    ids=["gamma", "alpha", "theta_max", "constant-value", "constant-name", "r", "m", "s"],
)
def test_bad_setting_fails_at_load_naming_its_file(capsys, tmp_path, command, setting):
    # every setting is checked when its instance is loaded, whatever the
    # command reads; bounds and verify load a directory beside a good file
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "01-ones-04.json").write_text((CORPUS / "01-ones-04.json").read_text())
    obj = json.loads(ONES10.read_text())
    obj["parameters"].update(setting)
    bad = corpus / ONES10.name
    bad.write_text(json.dumps(obj))
    target = corpus if command in ("bounds", "verify") else bad
    code, out, err = run([command, str(target)], capsys)
    assert code == 2
    assert out == ""
    assert str(bad) in err


@pytest.mark.parametrize(
    "field",
    [{"weights": [[1, 2], [3]]}, {"weights": "abc"}, {"weights": {"a": 1}},
     {"distribution": {"atoms": [1, [2]], "weights": [0.5, 0.5]}},
     {"distribution": "uniform{}"}],
    ids=["ragged-weights", "string-weights", "object-weights", "ragged-atoms", "bad-shorthand"],
)
def test_malformed_input_is_exit_two_naming_file_and_instance(capsys, tmp_path, field):
    obj = json.loads(ONES10.read_text())
    obj.update(field)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(["q", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert str(bad) in err
    assert f"instance {obj['id']!r}: " in err


# Every JSON value that is not a number, or is one past the float range.
_NOT_NUMBERS = {
    "string": "2",
    "bool": True,
    "null": None,
    "huge-int": 10**400,
    "bool-list": [True, False],
    "object": {"a": 1},
}
# Where a number is read, and the text that names the field in the error.
_NUMBER_PLACES = {
    "tau": "parameters.tau",
    "r": "parameters.r",
    "weights": "weights",
    "atoms": "distribution",
    "law-weights": "distribution",
    "normalized": "distribution: normalized",
    "constants": "constants.c2",
    "constants-file": "constants.c2",
}


def _with_value(tmp_path, place, value):
    """A copy of 02-ones-10 with ``value`` at ``place``: the instance path, the
    path the error must name and the extra argv."""
    obj = json.loads(ONES10.read_text())
    law = {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5], "normalized": True}
    named, argv = tmp_path / "bad.json", []
    if place in ("tau", "r"):
        obj["parameters"][place] = value
    elif place == "weights":
        obj["weights"] = value
    elif place in ("atoms", "law-weights", "normalized"):
        law[place.removeprefix("law-")] = value
        obj["distribution"] = law
    elif place == "constants":
        obj["parameters"]["constants"] = {"c2": value}
    else:
        named = tmp_path / "c.json"
        named.write_text(json.dumps({"c2": value}))
        argv = ["--constants", str(named)]
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    return tmp_path / "bad.json", named, argv


@pytest.mark.parametrize(
    "place, value",
    [
        pytest.param(place, value, id=f"{place}-{name}")
        for place in _NUMBER_PLACES
        for name, value in _NOT_NUMBERS.items()
        if not (place == "normalized" and value is True)  # its one valid value
    ],
)
def test_every_number_place_refuses_what_is_not_a_number(capsys, tmp_path, place, value):
    path, named, argv = _with_value(tmp_path, place, value)
    code, out, err = run(["q", str(path)] + argv, capsys)
    assert code == 2
    assert out == ""
    # a --constants file is at fault, not the instance that reads it
    instance = "" if place == "constants-file" else "instance '02-ones-10': "
    assert err.startswith(f"error: {named}: {instance}")
    assert ("instance" in err) == bool(instance)
    assert _NUMBER_PLACES[place] in err


# Each JSON object the package reads, with what the error must say after the
# file (and, in an instance file, the instance) when it holds the key 'zz'.
_UNKNOWN_KEY_PLACES = {
    "instance": "instance: unknown field 'zz'",
    "parameters": "parameters: unknown field 'zz'",
    "constants": "parameters: constants: unknown field 'zz'",
    "distribution": "distribution: unknown field 'zz'",
    "expected": "expected: unknown field 'zz'",
    "constants-file": "constants: unknown field 'zz'",
    "constants-file-bounds": "constants: unknown field 'zz'",
    "gap": "gap: unknown field 'zz'",
    "cgap": "cgap: unknown field 'zz'",
    "V": "cgap: V: unknown field 'zz'",
    "expected-entry": "unknown field 'zz'",
}


@pytest.mark.parametrize("place", _UNKNOWN_KEY_PLACES)
def test_every_object_refuses_an_unknown_key(capsys, tmp_path, place):
    message = _UNKNOWN_KEY_PLACES[place]
    if place in ("gap", "cgap", "V"):
        loader, obj = {
            "gap": (Gap.from_json_obj, {"L": [1.0], "g": [[1.0]], "dim": 1, "zz": 1}),
            "cgap": (Cgap.from_json_obj, {"h": [2.0], "V": {"box": [1.5]}, "m": 3, "zz": 1}),
            "V": (Cgap.from_json_obj, {"h": [2.0], "V": {"box": [1.5], "zz": [9]}, "m": 3}),
        }[place]
        with pytest.raises(InputError) as exc:
            loader(obj)
        assert str(exc.value) == message
        return
    obj = json.loads(ONES10.read_text())
    obj["distribution"] = {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]}
    obj["parameters"]["constants"] = {"c2": 2.0}
    target = {
        "instance": obj,
        "parameters": obj["parameters"],
        "constants": obj["parameters"]["constants"],
        "distribution": obj["distribution"],
        "expected": obj["expected"],
        "expected-entry": obj["expected"]["q"][0],
    }.get(place)
    if target is not None:
        target["zz"] = 1
    (tmp_path / "corpus").mkdir()
    bad = tmp_path / "corpus" / "bad.json"
    bad.write_text(json.dumps(obj))
    consts = tmp_path / "c.json"
    consts.write_text(json.dumps({"c2": 2.0, "zz": 1}))
    if place == "expected-entry":
        # an entry is read only by verify: the key fails that one expected check
        code, out, _ = run(["verify", str(bad.parent), "--format", "json"], capsys)
        assert code == 1
        failures = [r for r in json.loads(out)["results"] if not r["passed"]]
        assert failures == [{"instance": "02-ones-10", "check": "expected", "passed": False,
                             "detail": {"field": "q", "reason": message}}]
    elif place == "constants-file-bounds":
        # a shared --constants file is at fault, not an instance that reads it
        code, out, err = run(["bounds", str(bad.parent), "--constants", str(consts)], capsys)
        assert (code, out, err) == (2, "", f"error: {consts}: {message}\n")
    else:
        argv = ["q", str(bad)] + (["--constants", str(consts)] if place == "constants-file" else [])
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        named = consts if place == "constants-file" else bad
        instance = "" if place in ("instance", "constants-file") else "instance '02-ones-10': "
        assert err == f"error: {named}: {instance}{message}\n"


def test_integer_literal_past_the_digit_limit_is_malformed_json(capsys, tmp_path):
    # Python's json refuses integers of over 4,300 digits with a plain ValueError
    path, _, _ = _with_value(tmp_path, "tau", 1)
    path.write_text(path.read_text().replace('"tau": 1', '"tau": 1' + "0" * 5000))
    code, out, err = run(["q", str(path)], capsys)
    assert (code, out) == (2, "")
    assert f"{path}: malformed JSON" in err
    consts = tmp_path / "c.json"
    consts.write_text('{"c2": 1' + "0" * 5000 + "}")
    code, out, err = run(["q", str(ONES10), "--constants", str(consts)], capsys)
    assert (code, out) == (2, "")
    assert f"{consts}: malformed JSON" in err


def test_bound_forms_past_the_float_range_report_vacuous(capsys, tmp_path):
    # (c6 r + 1)^(3 r^2 / 2) passes 1e308 from r = 14 on
    obj = json.loads(ONES10.read_text())
    obj["parameters"]["r"] = 14
    inst = tmp_path / "r14.json"
    inst.write_text(json.dumps(obj))
    code, out, _ = run(["bounds", str(inst), "--budget", "2000"], capsys)
    assert code == 0
    bounds = json.loads(out)["reports"][0]["bounds"]
    for tag in ("cp_gap", "ws_gap_lambda"):
        assert bounds[tag]["value"] is None
        assert bounds[tag]["vacuous"] is True


def test_lcd_form_past_the_float_range_reports_vacuous(capsys, tmp_path):
    # (1 / (gamma D sqrt b))^2 passes 1e308 at smoothing power 1e-310
    inst = tmp_path / "tiny-power.json"
    inst.write_text(json.dumps({
        "id": "tiny-power",
        "distribution": "rademacher",
        "weights": [[1.0, 0.0], [0.0, 1.0]],
        "parameters": {"tau": 1.0, "kappa": 1.0, "delta": 0.5, "gamma": 0.9,
                       "alpha": 0.02, "smoothing_power": 1e-310},
    }))
    code, out, _ = run(["bounds", str(inst), "--budget", "2000"], capsys)
    assert code == 0
    assert json.loads(out)["reports"][0]["bounds"]["lcd_cp"] == {
        "value": None, "vacuous": True, "target": "q_h_b_invd"
    }


_NESTED = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("where", ["instance", "constants"])
@pytest.mark.parametrize(
    "content", [b'{"id": "\xff"}', _NESTED.encode()], ids=["not-utf8", "nested-100000"]
)
def test_unparsable_file_is_exit_two_naming_it(capsys, tmp_path, where, content):
    # a UnicodeDecodeError or a RecursionError once escaped with a traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = ["q", str(bad)] if where == "instance" else ["q", str(ONES10), "--constants", str(bad)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert f"error: {bad}: malformed JSON: " in err


@pytest.mark.parametrize("where", ["instance", "constants"])
def test_unreadable_file_is_exit_two_naming_it(capsys, tmp_path, where):
    missing = tmp_path / "missing.json"
    argv = ["q", str(missing)] if where == "instance" else ["q", str(ONES10), "--constants", str(missing)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert f"error: cannot read {where} file {missing}: " in err


@pytest.mark.parametrize("command", ["q", "lcd", "gapfit", "bounds", "verify"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_is_exit_two(capsys, tmp_path, command, target):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / ONES10.name).write_text(ONES10.read_text())
    lcd_file = CORPUS / "11-lcd-ones-04-g9a10.json"
    argv = {
        "q": ["q", str(ONES10)],
        "lcd": ["lcd", str(lcd_file)],
        "gapfit": ["gapfit", str(ONES10)],
        "bounds": ["bounds", str(ONES10), "--budget", "2000"],
        "verify": ["verify", str(corpus)],
    }[command]
    out_path = tmp_path / "missing" / "x.json" if target == "missing-dir" else corpus
    code, out, err = run(argv + ["--out", str(out_path)], capsys)
    assert (code, out) == (2, "")
    assert f"error: cannot write output file {out_path}: " in err
