"""Batch front end: load instance files, dispatch computations, emit reports.

Exit codes: 0 success, 1 verification failure or non-converged numerics
(NumericsError), 2 malformed input or domain error, 3 enumeration budget
exceeded.  All randomness flows from --seed;
equal invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from ._common import derive_seed, read_json
from .bounds import DEFAULT_MC_SAMPLES, ConstantsConfig, bound_report_csv, build_bound_report
from .concentration import (
    WeightedSum,
    esseen_upper_q,
    exact_q,
    mc_q,
    weighted_sum_char_fn,
)
from .distributions import half_empirical_measure
from .errors import (
    AnticoncError,
    CapacityError,
    DomainError,
    InputError,
    naming_field,
    naming_instance,
)
from .instances import load_instances
from .lcd import compute_lcd
from .progressions import beta_rm, gamma_rs
from .verify import run_verification

SCHEMA_VERSION = "1"


def _budget(text: str) -> int:
    """argparse type of --budget: an integer of at least 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write output file {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _render_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _constants_file(args) -> dict:
    """The fields of the --constants file, read and checked once ({} without
    the flag).  An error names the file alone: no instance is at fault."""
    if not args.constants:
        return {}
    obj = read_json(args.constants, "constants")
    with naming_field(str(Path(args.constants))):
        return ConstantsConfig.from_json_obj(obj).to_json_obj()


def _constants_for(table, spec) -> ConstantsConfig:
    """The --constants fields ``table`` under the instance's own constants."""
    return ConstantsConfig.from_json_obj({**table, **spec.parameters.get("constants", {})})


@contextmanager
def _single_instance(path):
    """The one instance of the file at ``path``, loaded (its errors name the
    file); an error raised in the body names the instance."""
    specs = load_instances(path)
    if len(specs) != 1:
        raise InputError("this command expects a single instance file")
    with naming_instance(specs[0].id):
        yield specs[0]


def cmd_q(args) -> int:
    table = _constants_file(args)
    with _single_instance(args.instance) as spec:
        tau = spec.require("tau")
        constants = _constants_for(table, spec)
        if args.method == "exact":
            budget = {} if args.budget is None else {"budget": args.budget}
            est = exact_q(spec.x, spec.a, tau, **budget)
        elif args.method == "mc":
            samples = 200_000 if args.budget is None else args.budget
            est = mc_q(WeightedSum(spec.x, spec.a), tau, samples, derive_seed(args.seed, 0))
        else:
            f_hat = weighted_sum_char_fn(spec.x, spec.a)
            est = esseen_upper_q(f_hat, tau, spec.a.dim, constants.c_esseen)
        obj = {"spec_version": SCHEMA_VERSION, "instance": spec.id}
        obj.update(est.to_json_obj())
    _emit(_render_json(obj), args.out)
    return 0


def cmd_lcd(args) -> int:
    with _single_instance(args.instance) as spec:
        spec.require("gamma", "alpha")  # spec.lcd is None only without both
        res = compute_lcd(spec.a, spec.lcd)
        obj = {
            "spec_version": SCHEMA_VERSION,
            "instance": spec.id,
            "lcd": res.to_json_obj(),
        }
    _emit(_render_json(obj), args.out)
    return 0


def cmd_bounds(args) -> int:
    specs = sorted(load_instances(args.instance), key=lambda s: s.id)
    table = _constants_file(args)  # shared by every instance: read once
    reports = []
    for idx, spec in enumerate(specs):
        with naming_instance(spec.id):
            tau, kappa, delta = spec.require("tau", "kappa", "delta")
            reports.append(build_bound_report(
                spec.x,
                spec.a,
                tau,
                kappa,
                delta,
                *spec.caps,
                lcd=spec.lcd,
                smoothing_power=spec.smoothing_power,
                constants=_constants_for(table, spec),
                instance=spec.id,
                seed=derive_seed(args.seed, idx),
                mc_samples=DEFAULT_MC_SAMPLES if args.budget is None else args.budget,
            ))
    if args.format == "csv":
        _emit(bound_report_csv(reports), args.out)
    else:
        obj = {
            "spec_version": SCHEMA_VERSION,
            "reports": [rep.to_json_obj() for rep in reports],
        }
        _emit(_render_json(obj), args.out)
    return 0


def cmd_gapfit(args) -> int:
    with _single_instance(args.instance) as spec:
        if spec.a.dim != 1:
            raise DomainError("gapfit operates on one-dimensional weight vectors")
        window = spec.window
        if window is None:
            raise InputError("needs parameter delta (or tau)")
        r, m, s = spec.caps
        w = half_empirical_measure(spec.a.rows)
        obj = {"spec_version": SCHEMA_VERSION, "instance": spec.id, "window": window}
        fits = (("beta", beta_rm(w, window, r, m)), ("gamma_fit", gamma_rs(w, window, r, s)))
        for name, res in fits:
            obj[name] = {
                "value": res.value,
                "uncovered_count": res.value * 2.0 * spec.a.n,
                "exact": res.exact,
                "witness": res.witness.to_json_obj(),
            }
    _emit(_render_json(obj), args.out)
    return 0


def cmd_verify(args) -> int:
    budget = {} if args.budget is None else {"exact_budget": args.budget}
    report = run_verification(args.corpus, seed=args.seed, **budget)
    if args.format == "json":
        text = _render_json(
            {"spec_version": SCHEMA_VERSION, **report.to_json_obj()}
        )
    else:
        lines = report.summary_lines()
        if not report.passed:
            first = report.failures[0]
            lines.append("first counterexample:")
            lines.append(json.dumps(first.to_json_obj(), sort_keys=True))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anticonc",
        description="Concentration functions, progression coverage, "
        "least common denominators, and bound reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("instance", help="instance file (or directory of files)")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.set_defaults(fn=fn)
        return p

    def estimate_flags(p, budget_help):
        """Flags of the commands that estimate Q: q and bounds."""
        p.add_argument("--seed", type=int, default=0, help="master random seed")
        p.add_argument("--constants", help="JSON file overriding bound constants")
        p.add_argument("--budget", type=_budget, help=budget_help)

    p_q = command("q", cmd_q, "concentration value of one instance")
    p_q.add_argument(
        "--method", choices=("exact", "mc", "esseen"), default="exact"
    )
    estimate_flags(
        p_q,
        "exact enumeration cap for exact; Monte Carlo sample count for mc, "
        "at least 1,000 (200,000 when omitted)",
    )

    command("lcd", cmd_lcd, "least common denominator bracket")

    p_b = command("bounds", cmd_bounds, "bound report for an instance or grid")
    estimate_flags(
        p_b,
        f"Monte Carlo sample count of every estimate ({DEFAULT_MC_SAMPLES:,} when omitted), "
        "at least 1,000",
    )
    p_b.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )

    command("gapfit", cmd_gapfit, "fit a covering progression to the weights")

    p_v = sub.add_parser("verify", help="run the self-verification suite")
    p_v.add_argument(
        "corpus",
        nargs="?",
        default=None,
        help="corpus directory (bundled corpus when omitted)",
    )
    p_v.add_argument("--seed", type=int, default=0, help="master random seed")
    p_v.add_argument("--out", help="write output to this path instead of stdout")
    p_v.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p_v.add_argument(
        "--budget", type=_budget, help="exact enumeration budget"
    )
    p_v.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return 3
    except AnticoncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
