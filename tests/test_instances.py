import json

import pytest

from anticonc.errors import InputError
from anticonc.instances import InstanceSpec, load_corpus, load_instances
from anticonc.lcd import LcdParams
from anticonc.progressions import DEFAULT_CAPS

GOOD = {
    "id": "demo",
    "distribution": "rademacher",
    "weights": [[1.0], [2.0]],
    "parameters": {"tau": 1.0, "r": 2},
    "expected": {"q": {"tau": 0.0, "value": 0.5}},
}


def test_from_json_obj_round_trip():
    spec = InstanceSpec.from_json_obj(GOOD)
    assert spec.id == "demo"
    assert spec.a.n == 2 and spec.x.n_atoms == 2
    assert spec.parameters["tau"] == 1.0
    assert "missing" not in spec.parameters
    assert spec.require("tau", "r") == [1.0, 2]


def test_require_names_the_missing_field():
    spec = InstanceSpec.from_json_obj(GOOD)
    with pytest.raises(InputError, match="kappa"):
        spec.require("kappa")


def test_unknown_top_level_key_rejected():
    bad = dict(GOOD, extra=1)
    with pytest.raises(InputError, match="extra"):
        InstanceSpec.from_json_obj(bad)


def test_unknown_parameter_rejected():
    bad = dict(GOOD, parameters={"tau": 1.0, "bogus": 2.0})
    with pytest.raises(InputError, match="bogus"):
        InstanceSpec.from_json_obj(bad)


def test_parameter_type_enforced():
    bad = dict(GOOD, parameters={"tau": "wide"})
    with pytest.raises(InputError, match="tau"):
        InstanceSpec.from_json_obj(bad)
    bad_int = dict(GOOD, parameters={"r": 1.5})
    with pytest.raises(InputError, match="r"):
        InstanceSpec.from_json_obj(bad_int)


@pytest.mark.parametrize(
    "key, value",
    [("seed", 1), ("mc_samples", 5000), ("n_prime", 3), ("rank", 1),
     ("a_exp", 1.0), ("b_exp", 0.0), ("b_n", 2.0)],
)
def test_unread_parameter_rejected(key, value):
    bad = dict(GOOD, parameters={"tau": 1.0, key: value})
    with pytest.raises(InputError, match=f"unknown field '{key}'"):
        InstanceSpec.from_json_obj(bad)


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), float("-inf"), 10**400],
    ids=["nan", "inf", "-inf", "int-past-float-range"],
)
def test_non_finite_parameter_rejected(value):
    bad = dict(GOOD, parameters={"tau": value})
    with pytest.raises(InputError, match="tau"):
        InstanceSpec.from_json_obj(bad)


def test_load_instances_file_and_dir(tmp_path):
    p = tmp_path / "a.json"
    p.write_text(json.dumps(GOOD))
    q = tmp_path / "b.json"
    q.write_text(json.dumps(dict(GOOD, id="demo2")))
    assert [s.id for s in load_instances(p)] == ["demo"]
    assert [s.id for s in load_instances(tmp_path)] == ["demo", "demo2"]


def test_load_instances_malformed_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"id": "x"')
    with pytest.raises(InputError, match="broken.json"):
        load_instances(p)


def test_load_errors_name_the_file_once(tmp_path):
    p = tmp_path / "bad-dist.json"
    p.write_text(json.dumps(dict(GOOD, distribution="uniform{}")))
    with pytest.raises(InputError) as exc:
        load_instances(p)
    assert str(exc.value).startswith(f"{p}: ") and "uniform{}" in str(exc.value)
    broken = tmp_path / "broken.json"
    broken.write_text('{"id": "x"')
    with pytest.raises(InputError) as exc:
        load_instances(broken)
    assert str(exc.value).count(str(broken)) == 1


def test_load_instances_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_instances(tmp_path / "absent.json")


def test_bundled_corpus_loads():
    specs = load_corpus()
    assert len(specs) == 25
    ids = [s.id for s in specs]
    assert ids == sorted(ids)
    assert len(set(ids)) == 25
    dims = {s.a.dim for s in specs}
    assert {1, 2, 3} <= dims
    for s in specs:
        assert {"tau", "kappa", "delta"} <= s.parameters.keys()


def test_settings_defaults_are_resolved_once():
    # no caps, no delta, no LCD parameters: every default applies
    spec = InstanceSpec.from_json_obj(dict(GOOD, parameters={"tau": 1.0}))
    assert spec.caps == tuple(DEFAULT_CAPS.values()) == (1, 3, 3)
    assert spec.window == 1.0
    assert spec.lcd is None
    assert spec.smoothing_power == 1.0
    spec = InstanceSpec.from_json_obj(dict(GOOD, parameters={
        "tau": 1.0, "delta": 0.25, "m": 5, "gamma": 0.5, "alpha": 2.0, "theta_max": 4.0,
    }))
    assert spec.caps == (1, 5, 3)
    assert spec.window == 0.25
    assert spec.lcd == LcdParams(gamma=0.5, alpha=2.0, theta_max=4.0)
    assert spec.lcd is spec.lcd
    assert InstanceSpec.from_json_obj(dict(GOOD, parameters={})).window is None


@pytest.mark.parametrize(
    "params",
    [{"gamma": 0.5}, {"alpha": 2.0}, {"theta_max": 4.0}, {"gamma": 0.5, "theta_max": 4.0}],
    ids=["gamma-only", "alpha-only", "theta_max-only", "gamma-theta_max"],
)
def test_half_given_lcd_parameters_rejected(params):
    # gamma and alpha come together, and theta_max only beside them
    bad = dict(GOOD, parameters={"tau": 1.0, **params})
    with pytest.raises(InputError, match="gamma and alpha come together"):
        InstanceSpec.from_json_obj(bad)
