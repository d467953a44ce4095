"""The four benchmark workloads: their inputs, their operations and the check
each operation's output must pass.

An operation is one call of ``anticonc.cli.main`` with a command line, the
same path the ``anticonc`` console script takes.  Synthetic inputs are
ordinary instance JSON files generated from the benchmark seed alone.

Nothing from ``anticonc`` (or numpy) is imported at module level: importing
the package is part of the set-up time that ``timed_setup`` measures.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
FROZEN_PATH = BENCH_DIR / "frozen.json"

# Synthetic inputs come in VARIANTS variants, each drawn from an integer
# key; the seed picks one.  frozen.json holds the synthetic-q keys with the
# exact (and Monte Carlo) values the package computed for them when the
# benchmark was defined.  Those keys are the first ones whose 1-D weights
# are generic: all 2^22 signed sums lie more than the merge tolerance apart.
# Most draws (27 of keys 0-42) have a near-coincident pair; the convolution's
# merge path then peaks ~100 MB higher, which would make peak_rss_mb bimodal
# across seeds (see freeze.py).
VARIANTS = 16
EXACT_TOL = 1e-12

CORPUS_BUDGET = 20_000
WARMUP_BUDGET = 1_000  # smallest sample count mc_q accepts

# synthetic-q: (label, dim, n, tau, method, budget)
Q_CASES = (
    ("exact-1d", 1, 22, 1.0, "exact", None),
    ("exact-2d", 2, 10, 1.0, "exact", None),
    ("exact-3d", 3, 6, 1.0, "exact", None),
    ("mc-2d", 2, 40, 4.0, "mc", 100_000),
    ("mc-3d", 3, 40, 4.0, "mc", 100_000),
)
Q_WARMUP_CASES = (
    ("exact-1d", 1, 8, 1.0, "exact", None),
    ("exact-2d", 2, 4, 1.0, "exact", None),
    ("exact-3d", 3, 3, 1.0, "exact", None),
    ("mc-2d", 2, 10, 4.0, "mc", WARMUP_BUDGET),
    ("mc-3d", 3, 10, 4.0, "mc", WARMUP_BUDGET),
)
GAPFIT_PARAMS = {"delta": 0.01, "r": 3, "m": 63, "s": 63}
GAPFIT_N = 300
GAPFIT_WARMUP_N = 30


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


@dataclass
class Op:
    """One ``anticonc`` command line and the check its output must pass.

    ``check(text)`` receives the captured standard output of a call that
    returned 0 and raises CheckFailed when the output is wrong.
    """

    label: str
    argv: list
    check: object


@dataclass
class Workload:
    ops: list
    warmup: list
    notes: dict = field(default_factory=dict)


def import_package(root: Path):
    """Import ``anticonc`` from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "anticonc" / "__init__.py").is_file():
        raise FileNotFoundError(f"no anticonc sources under {src}")
    sys.path.insert(0, str(src))
    import anticonc.cli

    if not Path(anticonc.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"anticonc was imported from {anticonc.cli.__file__}")


def generic_instance(iid: str, key: int, salt: str, dim: int, n: int, params: dict) -> dict:
    """Generic weights uniform(0.3, 2) with Rademacher steps, drawn from ``key``."""
    import numpy as np

    stream = int.from_bytes(hashlib.sha256(f"{salt}:{key}".encode()).digest()[:8], "big")
    rng = np.random.Generator(np.random.PCG64(stream))
    weights = rng.uniform(0.3, 2.0, size=(n, dim))
    return {
        "id": iid,
        "distribution": "rademacher",
        "weights": weights.tolist(),
        "parameters": dict(params),
    }


def q_instances(key: int, cases=Q_CASES) -> list:
    """(label, instance object, method, budget) for each synthetic-q case."""
    out = []
    for label, dim, n, tau, method, budget in cases:
        obj = generic_instance(
            f"syn-q-{label}-n{n}-k{key}", key, f"q-{label}-n{n}", dim, n, {"tau": tau}
        )
        out.append((label, obj, method, budget))
    return out


def gapfit_instance(key: int, n: int = GAPFIT_N) -> dict:
    return generic_instance(f"syn-gapfit-n{n}-k{key}", key, f"gapfit-n{n}", 1, n, GAPFIT_PARAMS)


def _write(workdir: Path, obj: dict) -> str:
    path = workdir / f"{obj['id']}.json"
    path.write_text(json.dumps(obj))
    return str(path)


# ---------------------------------------------------------------- checks


def _parse(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc


def check_bounds(expected_ids: list):
    def check(text: str):
        reports = _parse(text).get("reports")
        if not isinstance(reports, list):
            raise CheckFailed("no report list")
        ids = [rep.get("instance") for rep in reports]
        if ids != expected_ids:
            raise CheckFailed(f"{len(ids)} reports, expected one per instance ({len(expected_ids)})")
        for rep in reports:
            values = [rep["q"]["value"]] + [ref["value"] for ref in rep["references"].values()]
            for v in values:
                if not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0):
                    raise CheckFailed(f"{rep['instance']}: reference value {v!r} outside [0, 1]")

    return check


def check_verify(n_instances: int):
    def check(text: str):
        obj = _parse(text)
        if obj.get("n_instances") != n_instances:
            raise CheckFailed(f"verified {obj.get('n_instances')} instances, expected {n_instances}")
        if obj.get("passed") is not True:
            failed = [r for r in obj.get("results", []) if not r.get("passed")]
            raise CheckFailed(f"verify FAIL: {failed[:1]}")

    return check


def check_exact_q(frozen: float | None):
    def check(text: str):
        obj = _parse(text)
        if obj.get("method") != "exact":
            raise CheckFailed(f"method {obj.get('method')!r}, expected exact")
        value = obj.get("value")
        if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            raise CheckFailed(f"exact value {value!r} outside [0, 1]")
        if frozen is not None and abs(value - frozen) > EXACT_TOL:
            raise CheckFailed(f"exact value {value!r} differs from frozen {frozen!r}")

    return check


def check_mc_q(frozen: float | None):
    def check(text: str):
        obj = _parse(text)
        value = obj.get("value")
        if obj.get("method") != "monte_carlo":
            raise CheckFailed(f"method {obj.get('method')!r}, expected monte_carlo")
        if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            raise CheckFailed(f"Monte Carlo value {value!r} outside [0, 1]")
        if frozen is not None and value < frozen:
            raise CheckFailed(f"Monte Carlo value {value!r} below frozen {frozen!r}")

    return check


def check_gapfit(rows, window: float):
    """Replay ``uncovered_mass`` on both reported witnesses, bit for bit."""
    from anticonc.distributions import half_empirical_measure
    from anticonc.progressions import Cgap, Gap, GapImageProgression, uncovered_mass

    w = half_empirical_measure(rows)

    def check(text: str):
        obj = _parse(text)
        if obj.get("window") != window:
            raise CheckFailed(f"window {obj.get('window')!r}, expected {window!r}")
        witnesses = {
            "beta": lambda wit: Cgap.from_json_obj(wit),
            "gamma_fit": lambda wit: GapImageProgression(
                Gap.from_json_obj(wit["gap"]), tuple(wit["h"])
            ),
        }
        for key, build in witnesses.items():
            entry = obj.get(key) or {}
            value = entry.get("value")
            replayed = uncovered_mass(w, build(entry["witness"]).points(), window)
            if replayed != value:
                raise CheckFailed(f"{key}: witness replays to {replayed!r}, reported {value!r}")

    return check


# ------------------------------------------------------------- workloads


def _corpus(root: Path):
    from anticonc.instances import load_instances

    corpus = root / "src" / "anticonc" / "data" / "corpus"
    specs = sorted(load_instances(corpus), key=lambda s: s.id)
    return str(corpus), [s.id for s in specs]


def _corpus_bounds(root, seed, workdir):
    corpus, ids = _corpus(root)
    argv = ["bounds", corpus, "--seed", str(seed)]
    return Workload(
        ops=[Op("bounds", argv + ["--budget", str(CORPUS_BUDGET)], check_bounds(ids))],
        warmup=[Op("bounds-warmup", argv + ["--budget", str(WARMUP_BUDGET)], check_bounds(ids))],
        notes={"instances": len(ids)},
    )


def _corpus_verify(root, seed, workdir):
    corpus, ids = _corpus(root)
    op = Op("verify", ["verify", "--seed", str(seed), "--format", "json"], check_verify(len(ids)))
    return Workload(ops=[op], warmup=[op], notes={"instances": len(ids)})


def q_ops(key, workdir, cases, frozen):
    from anticonc.instances import load_instances

    ops = []
    for label, obj, method, budget in q_instances(key, cases):
        path = _write(workdir, obj)
        load_instances(path)
        argv = ["q", path, "--method", method, "--seed", str(key)]
        if budget is not None:
            argv += ["--budget", str(budget)]
        want = None if frozen is None else frozen[label]
        check = check_exact_q(want) if method == "exact" else check_mc_q(want)
        ops.append(Op(label, argv, check))
    return ops


def _synthetic_q(root, seed, workdir):
    frozen = json.loads(FROZEN_PATH.read_text())["synthetic-q"]
    keys = sorted(frozen, key=int)
    key = int(keys[seed % len(keys)])
    frozen = frozen[str(key)]
    return Workload(
        ops=q_ops(key, workdir, Q_CASES, frozen),
        warmup=q_ops(key, workdir, Q_WARMUP_CASES, None),
        notes={"key": key},
    )


def gapfit_op(key, workdir, n):
    from anticonc.instances import load_instances

    obj = gapfit_instance(key, n)
    path = _write(workdir, obj)
    spec = load_instances(path)[0]
    return Op(f"gapfit-n{n}", ["gapfit", path], check_gapfit(spec.a.rows, GAPFIT_PARAMS["delta"]))


def _synthetic_gapfit(root, seed, workdir):
    key = seed % VARIANTS
    return Workload(
        ops=[gapfit_op(key, workdir, GAPFIT_N)],
        warmup=[gapfit_op(key, workdir, GAPFIT_WARMUP_N)],
        notes={"key": key},
    )


_BUILDERS = {
    "corpus-bounds": _corpus_bounds,
    "corpus-verify": _corpus_verify,
    "synthetic-q": _synthetic_q,
    "synthetic-gapfit": _synthetic_gapfit,
}
NAMES = tuple(_BUILDERS)


def timed_setup(name: str, seed: int, root, workdir) -> tuple:
    """Import the package and build the workload; return (seconds, workload)."""
    root = Path(root)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    import_package(root)
    workload = _BUILDERS[name](root, seed, workdir)
    return time.perf_counter() - t0, workload
