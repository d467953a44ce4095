"""Self-verification suite: exact, constant-free facts checked over a corpus.

Each check either holds to stated tolerance on every applicable instance or
the report carries a serialized counterexample.  Monte Carlo enters nowhere;
all quantities here are exact enumerations, so the verdict cannot depend on
the seed (the seed only varies the sampling of chain grid points, and the
chain facts hold at every point).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from ._common import check_count, derive_seed, json_number, json_object, make_rng
from .bounds import verify_pointwise_chain
from .concentration import (
    exact_q,
    exact_q_of_distribution,
    regularity_check,
    weighted_sum_distribution,
)
from .distributions import (
    lambda_d,
    spectral_measure,
    symmetrize,
    tail_mass,
    truncated_second_moment,
)
from .errors import CapacityError, ChainViolationError, DomainError, InputError, naming_instance
from .instances import EXPECTED_FIELDS, load_corpus
from .lcd import LcdParams, compute_lcd, violation_condition
from .progressions import beta_rm, gamma_rs, uncovered_mass

CHECK_NAMES = (
    "expected",
    "regularity",
    "chain",
    "lambda_ge_p",
    "m2_ge_p",
    "projection",
    "witness",
    "lcd_agreement",
)

_SLACK = 1e-12
# (mu, lambda) window multiples of tau probed by the regularity check.
_REGULARITY_PAIRS = ((2.0, 1.0), (3.7, 1.45))


@dataclass(frozen=True)
class CheckResult:
    instance: str
    check: str
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "instance": self.instance,
            "check": self.check,
            "passed": self.passed,
            "detail": dict(sorted(self.detail.items())),
        }


@dataclass
class VerificationReport:
    """Check results over a corpus; ``skipped`` counts, per check name, the
    checks dropped because an exact enumeration or the LCD scan grid
    exceeded its budget."""

    results: list
    n_instances: int
    seed: int
    skipped: dict = field(default_factory=dict)

    @property
    def failures(self) -> list:
        return [r for r in self.results if not r.passed]

    @property
    def passed(self) -> bool:
        return not self.failures

    def counts(self) -> dict:
        out = {name: [0, 0] for name in CHECK_NAMES}
        for r in self.results:
            bucket = out.setdefault(r.check, [0, 0])
            bucket[0 if r.passed else 1] += 1
        return out

    def summary_lines(self) -> list:
        lines = [f"instances: {self.n_instances}"]
        counts = self.counts()
        for name in sorted(counts.keys() | self.skipped.keys()):
            ok, bad = counts.get(name, (0, 0))
            if ok or bad:
                verdict = "PASS" if bad == 0 else "FAIL"
                lines.append(f"{verdict} {name}: {ok} ok, {bad} failed")
            if self.skipped.get(name):
                lines.append(f"SKIP {name}: {self.skipped[name]} skipped (budget)")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return lines

    def to_json_obj(self) -> dict:
        return {
            "n_instances": self.n_instances,
            "seed": self.seed,
            "passed": self.passed,
            "results": [r.to_json_obj() for r in self.results],
            "skipped": {name: self.skipped.get(name, 0) for name in CHECK_NAMES},
        }


def _fail(instance, check, **detail) -> CheckResult:
    return CheckResult(instance, check, False, detail)


def _ok(instance, check, **detail) -> CheckResult:
    return CheckResult(instance, check, True, detail)


def _functional_ratios(g) -> list:
    """Deterministic probe ratios spanning the support scale of ``g``."""
    mags = np.abs(g.atoms).max(axis=1)
    mags = np.unique(mags[mags > 0])
    if mags.size == 0:
        return [1.0]
    lo, hi = float(mags[0]), float(mags[-1])
    probes = {0.5 * lo, lo, 0.5 * (lo + hi), hi, 2.0 * hi}
    return sorted(p for p in probes if p > 0)


def _check_expected(spec, law, budget, skipped, bracket, searches) -> list:
    results = []
    g = symmetrize(spec.x)
    for key, entries in sorted(spec.expected.items()):
        if isinstance(entries, dict):
            entries = [entries]
        if not isinstance(entries, list):
            results.append(_fail(spec.id, "expected", field=key, reason="not an object or list"))
            continue
        for entry in entries:
            try:
                results.append(
                    _check_expected_entry(
                        spec, g, key, entry, law, budget, bracket, searches
                    )
                )
            except CapacityError:
                skipped["expected"] += 1
            except (InputError, DomainError) as exc:
                results.append(_fail(spec.id, "expected", field=key, reason=str(exc)))
    return results


def _entry_field(entry, name, kind=float, default=None):
    """The entry's ``name`` field by the JSON number rule (a finite float, or an
    int), or ``default`` when the entry leaves out that optional field."""
    if name not in entry:
        return default
    return json_number(entry[name], f"field {name!r}", kind)


def _check_expected_entry(
    spec, g, key, entry, law, budget, bracket, searches
) -> CheckResult:
    json_object(entry, *EXPECTED_FIELDS[key])
    num = partial(_entry_field, entry)
    if key == "q":
        tau = num("tau")
        got = exact_q_of_distribution(law(), tau, budget)
    elif key == "p":
        got = tail_mass(g, num("ratio"))
    elif key == "lambda1":
        got = lambda_d(g, num("ratio"), 1)
    elif key == "m2":
        got = truncated_second_moment(g, num("ratio"))
    elif key == "lcd":
        params = LcdParams(
            gamma=num("gamma"),
            alpha=num("alpha"),
            theta_max=num("theta_max"),
        )
        value = num("value")
        tol = num("tol", default=1e-5)
        # an entry with the instance's parameters reads the instance's bracket
        res = bracket if params == spec.lcd else compute_lcd(spec.a, params)
        inside = res.d_lower - tol <= value and (
            math.isinf(res.d_upper) or value <= res.d_upper + tol
        )
        if inside and res.converged:
            return _ok(spec.id, "expected", field="lcd", value=value)
        return _fail(
            spec.id,
            "expected",
            field="lcd",
            value=value,
            d_lower=res.d_lower,
            d_upper=res.d_upper,
            converged=res.converged,
        )
    else:  # beta or gamma_fit
        search = (num("tau"), num("r", int), num("m" if key == "beta" else "s", int))
        # both classes share one search: an entry with the window, rank and
        # cap of one of the instance's witness searches reads its value
        if search in searches:
            got = searches[search].value
        else:
            got = (beta_rm if key == "beta" else gamma_rs)(
                spectral_measure(spec.a.rows), *search
            ).value
    want = num("value")
    tol = num("tol", default=1e-12 if key in ("beta", "gamma_fit") else 1e-9)
    if abs(got - want) <= tol:
        return _ok(spec.id, "expected", field=key, value=want)
    return _fail(spec.id, "expected", field=key, want=want, got=got, tol=tol)


def _check_regularity(spec, law, budget, skipped) -> list:
    tau = spec.parameters.get("tau")
    # the pairs scale tau, and both radii of a regularity check must be positive
    if tau is None or tau <= 0:
        return []
    try:
        checks = [
            regularity_check(law(), mu_f * tau, lam_f * tau, budget)
            for mu_f, lam_f in _REGULARITY_PAIRS
        ]
    except CapacityError:
        skipped["regularity"] += len(_REGULARITY_PAIRS)
        return []
    results = []
    for (mu_f, lam_f), rc in zip(_REGULARITY_PAIRS, checks):
        if rc.holds:
            results.append(_ok(spec.id, "regularity", mu=mu_f * tau, lam=lam_f * tau))
        else:
            results.append(
                _fail(
                    spec.id,
                    "regularity",
                    mu=mu_f * tau,
                    lam=lam_f * tau,
                    q_mu=rc.q_mu,
                    q_lambda=rc.q_lambda,
                    factor=rc.factor,
                )
            )
    return results


def _chain_grid(spec, rng, lcd_radius) -> np.ndarray:
    d = spec.a.dim
    scale = float(np.abs(spec.a.rows).max())
    span = max(8.0, 4.0 * math.pi / max(scale, 1e-9))
    if lcd_radius is not None:
        span = max(span, 2.2 * math.pi * lcd_radius)
    if d == 1:
        base = np.linspace(-span, span, 401)
        extra = rng.uniform(-span, span, size=1600)
        return np.concatenate([base, extra])[:, None]
    base = np.zeros((8 * d + 1, d))
    for j in range(d):
        vals = np.linspace(-span, span, 9)[1:]
        base[1 + 8 * j : 1 + 8 * (j + 1), j] = vals
    extra = rng.uniform(-span, span, size=(1200, d))
    return np.vstack([base, extra])


def _check_chain(spec, seed, bracket) -> list:
    rng = make_rng(derive_seed(seed, 17))
    grid = _chain_grid(spec, rng, None if bracket is None else bracket.d_lower)
    try:
        if bracket is not None and bracket.d_lower > 0:
            rep = verify_pointwise_chain(spec.a, grid, spec.lcd, bracket.d_lower)
            if bracket.certified and rep.premise_failures:
                return [
                    _fail(
                        spec.id,
                        "chain",
                        reason="denominator premise failed below certified level",
                        premise_failures=rep.premise_failures,
                        d_lower=bracket.d_lower,
                    )
                ]
        else:
            rep = verify_pointwise_chain(spec.a, grid)
    except ChainViolationError as exc:
        return [
            _fail(
                spec.id,
                "chain",
                label=exc.label,
                t=np.asarray(exc.t).tolist(),
                lhs=exc.lhs,
                rhs=exc.rhs,
            )
        ]
    return [_ok(spec.id, "chain", n_points=rep.n_points, lcd_checks=rep.lcd_checks)]


def _check_functionals(spec) -> list:
    g = symmetrize(spec.x)
    results = []
    for ratio in _functional_ratios(g):
        p = tail_mass(g, ratio)
        lam1 = lambda_d(g, ratio, 1)
        lam_d = lambda_d(g, ratio, spec.a.dim)
        m2 = truncated_second_moment(g, ratio)
        if lam1 >= p - _SLACK and lam_d >= p - _SLACK:
            results.append(_ok(spec.id, "lambda_ge_p", ratio=ratio))
        else:
            results.append(
                _fail(spec.id, "lambda_ge_p", ratio=ratio, p=p, lambda1=lam1, lambda_d=lam_d)
            )
        if m2 >= p - _SLACK:
            results.append(_ok(spec.id, "m2_ge_p", ratio=ratio))
        else:
            results.append(_fail(spec.id, "m2_ge_p", ratio=ratio, p=p, m2=m2))
    return results


def _check_projection(spec, law, budget, skipped) -> list:
    tau = spec.parameters.get("tau")
    if spec.a.dim < 2 or tau is None:
        return []
    try:
        full = exact_q_of_distribution(law(), tau, budget)
        coords = [
            exact_q(spec.x, spec.a.coordinate(j), tau, budget=budget).value
            for j in range(spec.a.dim)
        ]
    except CapacityError:
        skipped["projection"] += 1
        return []
    bound = min(coords)
    if full <= bound + _SLACK:
        return [_ok(spec.id, "projection", q=full, coordinate_min=bound)]
    return [_fail(spec.id, "projection", q=full, coordinate_min=bound)]


def _witness_searches(spec) -> dict:
    """The instance's ``beta_rm`` results keyed by (window, rank, cap): first
    its witness search, then the rank-zero search at cap 1; none off the line
    or without a window."""
    window = spec.window
    if spec.a.dim != 1 or window is None:
        return {}
    w = spectral_measure(spec.a.rows)
    searches = ((window, *spec.caps[:2]), (window, 0, 1))
    return {search: beta_rm(w, *search) for search in dict.fromkeys(searches)}


def _check_witness(spec, searches) -> list:
    if not searches:
        return []
    w = spectral_measure(spec.a.rows)
    (window, _, _), res = next(iter(searches.items()))  # the witness search
    results = []

    again = uncovered_mass(w, res.witness.points(), window)
    if again == res.value:
        results.append(_ok(spec.id, "witness", kind="replay", value=res.value))
    else:
        results.append(
            _fail(spec.id, "witness", kind="replay", value=res.value, replayed=again)
        )

    base = searches[window, 0, 1]
    tail = tail_mass(w, window)
    if base.value == tail and base.exact:
        results.append(_ok(spec.id, "witness", kind="rank_zero", value=tail))
    else:
        results.append(
            _fail(spec.id, "witness", kind="rank_zero", value=base.value, tail=tail)
        )
    return results


# Grid points whose margins the LCD scan computes at once.
_SCAN_CHUNK = 8192
# Step of the LCD scan grid, and the grid points past which the scan is
# skipped for budget (corpus scans hold at most about 10^4; 10^7 take 80 MB).
_SCAN_STEP = 1e-4
_SCAN_POINTS = 10_000_000
# Vectorised margins below this go to the scalar ``violation_condition``; their
# roundoff is far smaller, so no violating grid point is passed over.
_SCAN_SLACK = 1e-12


def _near_violations(ts, w, params):
    """The grid points ``ts``, in order, whose vectorised margin for the
    one-dimensional weights ``w`` is below ``_SCAN_SLACK``."""
    for i in range(0, len(ts), _SCAN_CHUNK):
        chunk = ts[i : i + _SCAN_CHUNK]
        v = np.multiply.outer(chunk, w)
        dist = np.sqrt(((v - np.rint(v)) ** 2).sum(axis=1))
        bar = np.minimum(params.gamma * np.sqrt((v**2).sum(axis=1)), params.alpha)
        yield from chunk[dist - bar < _SCAN_SLACK]


def _scan_first_violation(a, params, theta, step) -> float | None:
    """Coarse one-dimensional scan for a violating scalar t, refined by bisection.

    The grid is screened a chunk at a time and the near points are confirmed
    in order by the scalar check, so the first hit is the one a point-by-point
    scan finds.
    """
    ts = np.arange(step, theta + step, step)
    hit = next(
        (
            float(t)
            for t in _near_violations(ts, a.rows[:, 0], params)
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


def _check_lcd_agreement(spec, res, skipped) -> list:
    results = []
    if res.witness_t is not None:
        if violation_condition(res.witness_t, spec.a, spec.lcd):
            results.append(_ok(spec.id, "lcd_agreement", kind="witness"))
        else:
            results.append(
                _fail(spec.id, "lcd_agreement", kind="witness",
                      reason="witness does not violate",
                      t=np.asarray(res.witness_t).tolist())
            )
    if spec.a.dim == 1 and res.certified:
        theta = res.d_upper if math.isfinite(res.d_upper) else res.d_lower
        theta = theta * 1.001 + 1e-9
        if theta / _SCAN_STEP > _SCAN_POINTS:
            skipped["lcd_agreement"] += 1
            return results
        scan = _scan_first_violation(spec.a, spec.lcd, theta, _SCAN_STEP)
        if scan is not None and scan < res.d_lower - 1e-6:
            results.append(
                _fail(spec.id, "lcd_agreement", kind="scan",
                      reason="scan found violation below certified floor",
                      scan=scan, d_lower=res.d_lower)
            )
        else:
            results.append(_ok(spec.id, "lcd_agreement", kind="scan", scan=scan))
    return results


def run_verification(
    corpus_dir=None, seed: int = 0, exact_budget: int = 2_000_000
) -> VerificationReport:
    """Run every check over the corpus; the verdict is seed-independent.  The
    seed is any integer (masked to 64 bits where child seeds are derived)."""
    seed = check_count(seed, "seed", minimum=None)
    specs = load_corpus(corpus_dir)
    results = []
    skipped = Counter()
    for idx, spec in enumerate(sorted(specs, key=lambda s: s.id)):
        with naming_instance(spec.id):
            inst_seed = derive_seed(seed, idx)
            bracket = None if spec.lcd is None else compute_lcd(spec.a, spec.lcd)
            searches = _witness_searches(spec)
            # the instance's exact law, convolved at its first use: every exact Q
            # of the instance sweeps it, and a law past the budget raises
            # CapacityError at each use, so each check counts its own skips
            law = cache(partial(weighted_sum_distribution, spec.x, spec.a, exact_budget))
            results.extend(
                _check_expected(spec, law, exact_budget, skipped, bracket, searches)
            )
            results.extend(_check_regularity(spec, law, exact_budget, skipped))
            results.extend(_check_chain(spec, inst_seed, bracket))
            results.extend(_check_functionals(spec))
            results.extend(_check_projection(spec, law, exact_budget, skipped))
            results.extend(_check_witness(spec, searches))
            if bracket is not None:
                results.extend(_check_lcd_agreement(spec, bracket, skipped))
    return VerificationReport(
        results=results, n_instances=len(specs), seed=seed, skipped=dict(skipped)
    )


__all__ = [
    "CHECK_NAMES",
    "CheckResult",
    "VerificationReport",
    "run_verification",
]
