"""Instance files: a step law, a weight vector, named parameters, and
optional frozen expected values used by the verification suite."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from ._common import check_scale, json_number, json_object, read_json
from .bounds import ConstantsConfig
from .concentration import WeightVector, _check_summand
from .distributions import DiscreteDistribution
from .errors import InputError, naming_field, naming_instance
from .lcd import LcdParams
from .progressions import DEFAULT_CAPS, check_caps

# The number rule of each parameter: a finite float, or an integer.
_PARAM_KINDS = {
    "tau": float, "kappa": float, "delta": float, "gamma": float, "alpha": float,
    "theta_max": float, "smoothing_power": float, "r": int, "m": int, "s": int,
}
# Held to the scale rule (>= 0) at load; a reader that needs > 0 checks it itself.
_SCALES = ("tau", "kappa", "delta", "smoothing_power")
# The fields of each kind of ``expected`` entry, required and optional; the
# entries are read only by ``verify``, which applies the object rule to each.
EXPECTED_FIELDS = {
    "q": (("tau", "value"), ("tol",)),
    "p": (("ratio", "value"), ("tol",)),
    "lambda1": (("ratio", "value"), ("tol",)),
    "m2": (("ratio", "value"), ("tol",)),
    "lcd": (("gamma", "alpha", "value"), ("theta_max", "tol")),
    "beta": (("tau", "r", "m", "value"), ("tol",)),
    "gamma_fit": (("tau", "r", "s", "value"), ("tol",)),
}


def _check_parameters(params) -> dict:
    with naming_field("parameters"):
        out = dict(json_object(params, optional=(*_PARAM_KINDS, "constants")))
    for key, kind in _PARAM_KINDS.items():  # the constants are ConstantsConfig's to check
        if key in out:
            out[key] = json_number(out[key], f"parameters.{key}", kind)
            if key in _SCALES:
                check_scale(out[key], f"parameters.{key}")
    return out


def _lcd_params(params: dict) -> LcdParams | None:
    """The LCD parameters, or None when the instance sets none of them."""
    given = {"gamma", "alpha", "theta_max"} & params.keys()
    if not given:
        return None
    if not {"gamma", "alpha"} <= given:
        raise InputError("gamma and alpha come together, theta_max beside them")
    return LcdParams(params["gamma"], params["alpha"], params.get("theta_max"))


@dataclass(frozen=True)
class InstanceSpec:
    """One parsed problem instance; every command reads its settings from here.

    Building one checks each setting with the code that owns its rule, so a
    bad setting fails at load for every command: the step law passes the
    summand rule (a probability distribution on the line), the LCD parameters
    become ``lcd`` (an ``LcdParams``, or None), the caps pass ``check_caps``,
    the constants table passes ``ConstantsConfig.from_json_obj`` and the
    ``expected`` map holds only the entry kinds of ``EXPECTED_FIELDS``.  The
    windows and the smoothing power pass the scale rule in ``from_json_obj``.
    """

    id: str
    x: DiscreteDistribution
    a: WeightVector
    parameters: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    lcd: LcdParams | None = field(init=False)

    def __post_init__(self):
        p = self.parameters
        with naming_field("distribution"):
            _check_summand(self.x)
        with naming_field("parameters"):
            object.__setattr__(self, "lcd", _lcd_params(p))
            r, m, s = self.caps
            check_caps(r, m=m, s=s)
            ConstantsConfig.from_json_obj(p.get("constants", {}))
        with naming_field("expected"):
            json_object(self.expected, optional=EXPECTED_FIELDS)

    @property
    def caps(self) -> tuple:
        """The rank r and the point caps m and s of the coverage searches."""
        return tuple(self.parameters.get(k, v) for k, v in DEFAULT_CAPS.items())

    @property
    def window(self) -> float | None:
        """The coverage window: delta, else tau, else None."""
        return self.parameters.get("delta", self.parameters.get("tau"))

    @property
    def smoothing_power(self) -> float:
        """The power b of the bound report's compound Poisson smoothing law."""
        return self.parameters.get("smoothing_power", 1.0)

    def require(self, *names):
        """Return the named parameters, failing loudly on the first missing one."""
        values = []
        for name in names:
            if name not in self.parameters:
                raise InputError(f"missing required parameter {name!r}")
            values.append(self.parameters[name])
        return values[0] if len(values) == 1 else values

    @classmethod
    def from_json_obj(cls, obj) -> "InstanceSpec":
        with naming_field("instance"):
            obj = json_object(obj, required=("id", "distribution", "weights"),
                              optional=("parameters", "expected"))
            if not isinstance(obj["id"], str) or not obj["id"]:
                raise InputError(f"id: expected a non-empty string, got {obj['id']!r:.60}")
        with naming_instance(obj["id"]):  # each loader's message starts with its field
            x = DiscreteDistribution.from_spec(obj["distribution"])
            a = WeightVector.from_json_obj(obj["weights"])
            params = _check_parameters(obj.get("parameters", {}))
            return cls(id=obj["id"], x=x, a=a, parameters=params, expected=obj.get("expected", {}))

    @classmethod
    def from_path(cls, path) -> "InstanceSpec":
        obj = read_json(path, "instance")
        with naming_field(str(Path(path))):
            return cls.from_json_obj(obj)


def load_instances(path) -> list:
    """Load one instance file or every .json file in a directory, sorted by name."""
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix == ".json")
        if not files:
            raise InputError(f"no .json instance files in {path}")
        specs = [InstanceSpec.from_path(p) for p in files]
        twice = sorted(i for i, k in Counter(s.id for s in specs).items() if k > 1)
        if twice:
            raise InputError(f"{path}: duplicate instance ids {twice}")
        return specs
    return [InstanceSpec.from_path(path)]


def load_corpus(corpus_dir=None) -> list:
    """Load the named corpus directory, or the bundled one when None."""
    if corpus_dir is not None:
        return load_instances(corpus_dir)
    with resources.as_file(resources.files("anticonc") / "data" / "corpus") as root:
        return load_instances(root)


__all__ = ["InstanceSpec", "load_corpus", "load_instances"]
