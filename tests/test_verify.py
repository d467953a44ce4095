import inspect
import json
import shutil
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from anticonc import concentration, progressions, verify
from anticonc.concentration import WeightVector
from anticonc.errors import DomainError, InputError
from anticonc.cli import main
from anticonc.instances import load_corpus, load_instances
from anticonc.lcd import LcdParams, violation_condition
from anticonc.verify import CHECK_NAMES, run_verification

CORPUS = Path(__file__).resolve().parents[1] / "src" / "anticonc" / "data" / "corpus"


def test_bundled_corpus_passes():
    report = run_verification()
    assert report.passed
    assert report.n_instances == 25
    counts = report.counts()
    for name in CHECK_NAMES:
        ok, bad = counts[name]
        assert bad == 0
        assert ok > 0, name


def test_summary_lines_shape():
    report = run_verification()
    lines = report.summary_lines()
    assert lines[0] == "instances: 25"
    assert lines[-1] == "result: PASS"
    assert all(line.startswith("PASS ") for line in lines[1:-1])


def test_budget_skips_are_counted_and_reported():
    assert run_verification().skipped == {}
    report = run_verification(exact_budget=50)
    assert report.passed
    # laws of more than 50 atoms, or sweeps of more than 50 near pairs and
    # clique candidates
    assert report.skipped == {"expected": 10, "regularity": 14}
    lines = report.summary_lines()
    assert "SKIP expected: 10 skipped (budget)" in lines
    assert "SKIP regularity: 14 skipped (budget)" in lines
    assert not any(line.startswith("SKIP projection") for line in lines)
    assert lines[-1] == "result: PASS"
    skipped = report.to_json_obj()["skipped"]
    assert set(skipped) == set(CHECK_NAMES)
    assert skipped["projection"] == 0 and skipped["chain"] == 0


def test_verdict_is_seed_independent():
    a = run_verification(seed=0)
    b = run_verification(seed=123456)
    assert a.passed == b.passed
    assert a.counts() == b.counts()


@pytest.mark.parametrize("seed", [1.5, True, "1", None])
def test_seed_that_is_not_an_integer_is_refused(seed):
    # int(seed) read 1.5 and True as seed 1, and the report said seed 1
    with pytest.raises(DomainError, match="^seed: expected an integer, got "):
        run_verification(seed=seed)


def test_any_integer_seed_runs_masked_to_64_bits(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(CORPUS / "02-ones-10.json", corpus)
    a = run_verification(corpus, seed=-3).to_json_obj()
    b = run_verification(corpus, seed=np.int64(-3)).to_json_obj()
    c = run_verification(corpus, seed=2**64 - 3).to_json_obj()
    assert json.dumps(a) == json.dumps(b)
    assert a["seed"] == -3 and c["seed"] == 2**64 - 3
    assert json.dumps(a["results"]) == json.dumps(c["results"])


def test_corrupted_expected_value_is_caught(tmp_path):
    bad_dir = tmp_path / "corpus"
    shutil.copytree(CORPUS, bad_dir)
    target = bad_dir / "04-dyadic-06.json"
    obj = json.loads(target.read_text())
    obj["expected"]["q"][0]["value"] = 0.5
    target.write_text(json.dumps(obj))
    report = run_verification(bad_dir)
    assert not report.passed
    fails = report.failures
    assert len(fails) == 1
    assert fails[0].instance == "04-dyadic-06"
    assert fails[0].check == "expected"
    assert fails[0].detail["want"] == 0.5
    assert fails[0].detail["got"] == 0.015625


def test_corrupted_lcd_expectation_is_caught(tmp_path):
    bad_dir = tmp_path / "corpus"
    shutil.copytree(CORPUS, bad_dir)
    target = bad_dir / "12-lcd-ones-09-g5a10.json"
    obj = json.loads(target.read_text())
    obj["expected"]["lcd"]["value"] = 0.9
    target.write_text(json.dumps(obj))
    report = run_verification(bad_dir)
    assert not report.passed
    assert any(
        f.check == "expected" and f.detail.get("field") == "lcd"
        for f in report.failures
    )


@pytest.mark.parametrize(
    "key, entry, reason",
    [
        ("q", {"tau": 1.0}, "missing field 'value'"),
        ("p", {"ratio": "wide", "value": 0.5}, "field 'ratio': expected a number, got 'wide'"),
        ("lcd", {"gamma": 0.5, "alpha": 10.0, "value": 0.7, "theta_max": "x"},
         "field 'theta_max': expected a number, got 'x'"),
        ("lcd", {"gamma": 2.0, "alpha": 10.0, "value": 0.7},
         "gamma must lie strictly between 0 and 1"),
        ("beta", {"tau": 0.5, "r": 1.5, "m": 1, "value": 1.0},
         "field 'r': expected an integer, got 1.5"),
        ("q", [3], "expected an object, got 3"),
        # Python's json reads Infinity and NaN: an infinite tol would pass any value
        ("q", {"tau": 1.5, "value": 0.999, "tol": float("inf")},
         "field 'tol': expected a finite number, got inf"),
        ("q", {"tau": 1.0, "value": float("nan")},
         "field 'value': expected a finite number, got nan"),
    ],
    ids=["missing", "non-numeric", "lcd-non-numeric", "out-of-domain", "non-integer",
         "list-item", "tol-inf", "value-nan"],
)
def test_malformed_expected_entry_fails_with_reason(tmp_path, key, entry, reason):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    obj = json.loads((CORPUS / "01-ones-04.json").read_text())
    obj["expected"] = {key: entry}
    (corpus / "01-ones-04.json").write_text(json.dumps(obj))
    report = run_verification(corpus)
    assert [f.to_json_obj() for f in report.failures] == [
        {"instance": "01-ones-04", "check": "expected", "passed": False,
         "detail": {"field": key, "reason": reason}}
    ]


def test_tau_zero_instance_skips_only_the_regularity_pairs(tmp_path):
    # q accepts tau = 0 (two of the eight sums of +-1 +-2 +-3 are 0), but the
    # regularity pairs scale tau and need positive radii
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    obj = {
        "id": "tau-zero",
        "distribution": "rademacher",
        "weights": [1, 2, 3],
        "parameters": {"tau": 0},
        "expected": {"q": [{"tau": 0, "value": 0.25}]},
    }
    (corpus / "tau-zero.json").write_text(json.dumps(obj))
    report = run_verification(corpus)
    assert report.passed
    counts = report.counts()
    assert counts["regularity"] == [0, 0]
    for name in ("expected", "chain", "lambda_ge_p", "m2_ge_p", "witness"):
        assert counts[name][0] > 0, name
    assert report.skipped == {}


def test_lcd_entry_with_the_instance_parameters_reuses_its_bracket(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    obj = json.loads((CORPUS / "11-lcd-ones-04-g9a10.json").read_text())
    same = obj["expected"]["lcd"]  # gamma 0.9, alpha 10: the instance's parameters
    other = {"gamma": 0.5, "alpha": 10.0, "tol": 1e-5, "value": 2.0 / 3.0}
    obj["expected"] = {"lcd": [same, other, dict(other, value=same["value"])]}
    (corpus / "11.json").write_text(json.dumps(obj))
    with mock.patch.object(verify, "compute_lcd", wraps=verify.compute_lcd) as spy:
        report = run_verification(corpus)
    # one bracket for the instance (and the entry sharing its parameters), one
    # for each gamma = 0.5 entry, each judged against its own bracket
    gammas = [call.args[1].gamma for call in spy.call_args_list]
    assert gammas == [0.9, 0.5, 0.5]
    lcd = [r for r in report.results if r.detail.get("field") == "lcd"]
    assert [r.passed for r in lcd] == [True, True, False]
    assert lcd[2].detail["d_lower"] == pytest.approx(2.0 / 3.0, abs=1e-5)


def test_bundled_verify_brackets_each_lcd_parameter_set_once():
    with mock.patch.object(verify, "compute_lcd", wraps=verify.compute_lcd) as spy:
        run_verification()
    assert spy.call_count == 10


def test_search_entry_with_a_witness_search_key_reuses_its_result(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    obj = json.loads((CORPUS / "02-ones-10.json").read_text())
    # delta 0.5 and the default r = 1, m = 3: the witness searches are
    # (0.5, 1, 3) and the rank-zero (0.5, 0, 1)
    fit = {"r": 1, "s": 3, "tau": 0.5, "value": 0.0}
    obj["expected"] = {
        "beta": [{"m": 1, "r": 0, "tau": 0.5, "value": 1.0},
                 {"m": 5, "r": 1, "tau": 0.5, "value": 0.0}],
        "gamma_fit": [fit, dict(fit, value=0.5)],
    }
    (corpus / "02.json").write_text(json.dumps(obj))
    search = progressions._coverage_search
    with mock.patch.object(progressions, "_coverage_search", wraps=search) as spy:
        report = run_verification(corpus)
    assert [call.args[1:4] for call in spy.call_args_list] == [
        (0.5, 1, 3), (0.5, 0, 1), (0.5, 1, 5)
    ]
    entries = [r for r in report.results if r.check == "expected"]
    assert [r.passed for r in entries] == [True, True, True, False]
    assert entries[3].detail["got"] == 0.0


def test_bundled_verify_runs_each_witness_search_once():
    search = progressions._coverage_search
    with mock.patch.object(progressions, "_coverage_search", wraps=search) as spy:
        run_verification()
    assert spy.call_count == 43


def test_bundled_verify_convolves_each_law_once_at_the_verify_budget():
    conv = mock.Mock(wraps=concentration.weighted_sum_distribution)
    sweep = mock.Mock(wraps=concentration.exact_q_of_distribution)
    with mock.patch.object(concentration, "weighted_sum_distribution", conv), \
         mock.patch.object(verify, "weighted_sum_distribution", conv), \
         mock.patch.object(concentration, "exact_q_of_distribution", sweep), \
         mock.patch.object(verify, "exact_q_of_distribution", sweep, create=True):
        run_verification()
    # one law per instance, plus one per coordinate of a multi-d instance
    # for the projection check: 25 + 11
    specs = load_corpus()
    laws = [(s.x, s.a) for s in specs]
    laws += [(s.x, s.a.coordinate(j)) for s in specs if s.a.dim > 1 for j in range(s.a.dim)]
    key = lambda x, a: (x.atoms.tobytes(), x.weights.tobytes(), a.rows.tobytes(), a.dim)
    convolved = Counter(key(*call.args[:2]) for call in conv.call_args_list)
    assert convolved == Counter(key(x, a) for x, a in laws)
    assert conv.call_count == 36
    budget = inspect.signature(run_verification).parameters["exact_budget"].default
    signature = inspect.signature(concentration.exact_q_of_distribution)
    budgets = {
        signature.bind(*call.args, **call.kwargs).arguments.get("budget")
        for call in sweep.call_args_list
    }
    assert sweep.call_count > 0 and budgets == {budget}


def test_duplicate_ids_rejected(tmp_path):
    bad_dir = tmp_path / "corpus"
    bad_dir.mkdir()
    src = json.loads((CORPUS / "01-ones-04.json").read_text())
    (bad_dir / "a.json").write_text(json.dumps(src))
    (bad_dir / "b.json").write_text(json.dumps(src))
    with pytest.raises(InputError, match="duplicate"):
        run_verification(bad_dir)


def test_duplicate_ids_rejected_by_bounds(tmp_path, capsys):
    bad_dir = tmp_path / "corpus"
    bad_dir.mkdir()
    src = json.loads((CORPUS / "01-ones-04.json").read_text())
    (bad_dir / "a.json").write_text(json.dumps(src))
    (bad_dir / "b.json").write_text(json.dumps(src))
    assert main(["bounds", str(bad_dir), "--budget", "2000"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "duplicate instance ids ['01-ones-04']" in out.err


def test_witness_search_reads_the_instance_caps():
    # 03-steps-08 sets no caps: r = 1 and m = 3 by default, window delta = 0.5
    (spec,) = load_instances(CORPUS / "03-steps-08.json")
    assert list(verify._witness_searches(spec)) == [(0.5, 1, 3), (0.5, 0, 1)]


def test_lcd_scan_past_its_grid_budget_is_skipped(tmp_path):
    # weight 1e-5 puts the denominator near 66,667: the 1e-4 scan grid would
    # hold 6.7e8 points (4.97 GiB), so the scan counts as skipped for budget
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    obj = {
        "id": "tiny-weight",
        "distribution": "rademacher",
        "weights": [1e-5],
        "parameters": {"tau": 1, "gamma": 0.5, "alpha": 10},
    }
    (corpus / "tiny-weight.json").write_text(json.dumps(obj))
    with mock.patch.object(verify, "_scan_first_violation", side_effect=AssertionError):
        report = run_verification(corpus)
    assert report.passed
    assert report.skipped == {"lcd_agreement": 1}
    assert "SKIP lcd_agreement: 1 skipped (budget)" in report.summary_lines()
    kinds = [r.detail["kind"] for r in report.results if r.check == "lcd_agreement"]
    assert kinds == ["witness"]


def test_instance_without_a_window_runs_no_witness_search(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    obj = {"id": "no-window", "distribution": "rademacher", "weights": [1, 2, 3]}
    (corpus / "no-window.json").write_text(json.dumps(obj))
    with mock.patch.object(verify, "beta_rm", wraps=progressions.beta_rm) as spy:
        report = run_verification(corpus)
    assert report.passed
    assert spy.call_count == 0
    assert report.counts()["witness"] == [0, 0]


def test_corpus_covers_check_surface():
    specs = load_corpus()
    with_lcd = [s for s in specs if s.lcd is not None]
    assert len(with_lcd) >= 8
    assert any(s.a.dim == 3 for s in specs)
    assert any(s.x.n_atoms == 3 for s in specs)


def _scan_point_by_point(a, params, theta, step):
    """Reference LCD scan: the scalar check at every grid point, then bisection."""
    hit = next(
        (
            float(t)
            for t in np.arange(step, theta + step, step)
            if violation_condition(np.array([t]), a, params)
        ),
        None,
    )
    if hit is None:
        return None
    lo, hi = max(hit - step, 0.0), hit
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if violation_condition(np.array([mid]), a, params):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("chunk", [7, verify._SCAN_CHUNK])
def test_chunked_lcd_scan_matches_point_by_point(chunk):
    rng = np.random.default_rng(4)
    for trial in range(12):
        n = int(rng.integers(1, 17))
        w = (
            np.ones(n),
            rng.integers(1, 6, size=n).astype(float),
            rng.uniform(0.2, 3.0, size=n),
        )[trial % 3]
        a = WeightVector(w[:, None])
        params = LcdParams(
            gamma=float(rng.choice([0.1, 0.5, 0.9])),
            alpha=float(rng.choice([0.02, 0.5, 10.0])),
        )
        theta = float(rng.uniform(0.5, 1.5))
        with mock.patch.object(verify, "_SCAN_CHUNK", chunk):
            got = verify._scan_first_violation(a, params, theta, 1e-4)
        assert got == _scan_point_by_point(a, params, theta, 1e-4), (w.tolist(), params, theta)
