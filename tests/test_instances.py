import json

import pytest

from anticonc.errors import InputError
from anticonc.instances import InstanceSpec, load_corpus, load_instances

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
    assert spec.param("tau") == 1.0
    assert spec.param("missing", 7) == 7
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
        assert s.param("tau") is not None
        assert s.param("kappa") is not None
        assert s.param("delta") is not None
