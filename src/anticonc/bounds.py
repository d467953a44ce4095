"""Plug-in evaluators for the concentration upper bounds.

Every evaluator computes the literal value of one right-hand side from the
mass functionals produced elsewhere (tail mass, window-count sums, coverage
deficits, least-denominator brackets).  The unknown absolute constants are
exposed in :class:`ConstantsConfig` and default to 1.0; nothing in this
module asserts that the defaults make any inequality true.  Values are
audited empirically by the report layer: a bound whose mass functional
vanishes comes back as ``inf``, and anything above 1 is flagged vacuous
since a concentration value never exceeds 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._common import check_seed, derive_seed, json_number
from .concentration import (
    ConcentrationEstimate,
    WeightVector,
    WeightedSum,
    _check_summand,
    esseen_upper_q,
    exact_q,
    mc_q,
)
from .distributions import (
    CompoundPoisson,
    DiscreteDistribution,
    lambda_d,
    spectral_measure,
    symmetrize,
    tail_mass,
    truncated_second_moment,
)
from .errors import (
    CapacityError,
    ChainViolationError,
    DomainError,
    InputError,
    NumericsError,
)
from .lcd import LcdParams, compute_lcd
from .progressions import DEFAULT_CAPS, beta_rm, check_caps

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ConstantsConfig:
    """Positive tuning constants shared by all bound evaluators.

    The inequalities only assert that admissible values exist, so the
    defaults are a reporting convention, not a claim.  Fields:

    c2          compound-Poisson bound over capped convex-body progressions
    c3          weighted-sum bound, tail-mass form, same progression class
    c4          weighted-sum bound, tail-free form (guarded)
    c5, c6      compound-Poisson bound over capped symmetric progressions
    c7, c8      weighted-sum bound over capped symmetric progressions (guarded)
    c_esseen    smoothing-integral upper bound
    c_d         dimension-dependent factor of the transfer inequalities and
                of every budget whose constant is implicit
    c_exp_m2    exponent coefficient in the second-moment denominator bound;
                the default 4.0 matches the tail-mass form so the dominance
                comparison between the two is meaningful
    """

    c2: float = 1.0
    c3: float = 1.0
    c4: float = 1.0
    c5: float = 1.0
    c6: float = 1.0
    c7: float = 1.0
    c8: float = 1.0
    c_esseen: float = 1.0
    c_d: float = 1.0
    c_exp_m2: float = 4.0

    def __post_init__(self):
        for f in fields(self):
            v = json_number(getattr(self, f.name), f"constants.{f.name}")
            if v <= 0.0:
                raise DomainError(f"constants.{f.name}: expected a positive number, got {v!r}")
            object.__setattr__(self, f.name, v)

    def to_json_obj(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json_obj(cls, obj) -> "ConstantsConfig":
        if not isinstance(obj, dict):
            raise InputError("constants: expected a JSON object")
        known = {f.name for f in fields(cls)}
        for key in obj:
            if key not in known:
                raise InputError(f"constants: unknown field {key!r}")
        return cls(**obj)


DEFAULT_CONSTANTS = ConstantsConfig()


def _check_unit_mass(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0 + 1e-12:
        raise DomainError(f"{name} must lie in [0, 1]")
    return min(value, 1.0)


def _inf_past_float_range(form):
    """Make a bound form inf (vacuous) when a term of it leaves the float
    range: an overflow, or a denominator that underflows to zero."""

    def guarded(*args):
        try:
            return form(*args)
        except (OverflowError, ZeroDivisionError):
            return math.inf

    return guarded


@_inf_past_float_range
def _two_term(c: float, count: int, mass: float, r: int, inflate: float | None = None) -> float:
    """c^(r+1) * (I / (count * sqrt(mass)) + (r+1)^(5r/2) / mass^((r+1)/2)), with
    the inflation I = (inflate * r + 1)^(3r^2/2) of the symmetric class, or 1."""
    if mass <= 0.0:
        return math.inf
    first_num = 1.0 if inflate is None else (inflate * r + 1.0) ** (1.5 * r * r)
    first = first_num / (count * math.sqrt(mass))
    second = (r + 1) ** (2.5 * r) / mass ** (0.5 * (r + 1))
    return c ** (r + 1) * (first + second)


@_inf_past_float_range
def _window(kappa: float, delta: float, d: int = 1) -> float:
    """The window count (1 + floor(kappa/delta))^d, for positive kappa and delta."""
    if not (kappa > 0 and delta > 0):
        raise DomainError("kappa and delta must be positive")
    return float((1 + math.floor(kappa / delta)) ** d)


def compound_poisson_bound_cgap(
    alpha: float, beta: float, r: int, m: int, constants: ConstantsConfig = DEFAULT_CONSTANTS
) -> float:
    """Concentration bound for a compound Poisson law with intensity ``alpha``.

    ``beta`` is the least mass of the driving measure left uncovered by a
    convex-body progression of rank <= r holding at most m points.  Zero
    ``beta`` means the driving measure is essentially supported on such a
    progression and the bound degenerates to ``inf``.
    """
    if not alpha > 0:
        raise DomainError("intensity alpha must be positive")
    check_caps(r, m=m)
    beta = _check_unit_mass(beta, "beta")
    return _two_term(constants.c2, m, alpha * beta, r)


def weighted_sum_bound_cgap(
    kappa: float,
    delta: float,
    n: int,
    p_val: float,
    beta_star: float,
    r: int,
    m: int,
    constants: ConstantsConfig = DEFAULT_CONSTANTS,
) -> float:
    """Weighted-sum bound routed through the symmetrized tail mass.

    The mass slot is n * p_val * beta_star where p_val is the symmetrized
    step tail at ratio tau/kappa and beta_star the coverage deficit of the
    spectral weight measure at window delta.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    check_caps(r, m=m)
    p_val = _check_unit_mass(p_val, "p_val")
    beta_star = _check_unit_mass(beta_star, "beta_star")
    return _window(kappa, delta) * _two_term(constants.c3, m, n * p_val * beta_star, r)


def weighted_sum_bound_cgap_tail_free(
    kappa: float,
    delta: float,
    n: int,
    beta_star: float,
    r: int,
    m: int,
    constants: ConstantsConfig = DEFAULT_CONSTANTS,
) -> float:
    """Tail-free variant of :func:`weighted_sum_bound_cgap`.

    Valid only when the window-count sum at ratio tau/kappa is large; the
    caller records that guard.  The tail factor is dropped from the mass
    slot, which is why no p argument appears.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    check_caps(r, m=m)
    beta_star = _check_unit_mass(beta_star, "beta_star")
    return _window(kappa, delta) * _two_term(constants.c4, m, n * beta_star, r)


def compound_poisson_bound_gap(
    alpha: float, gamma_val: float, r: int, s: int, constants: ConstantsConfig = DEFAULT_CONSTANTS
) -> float:
    """Compound-Poisson bound over capped symmetric progression images.

    Same two-term shape as the convex-body variant but the class is richer,
    which costs the (c6 r + 1)^(3 r^2 / 2) inflation in the first term.
    """
    if not alpha > 0:
        raise DomainError("intensity alpha must be positive")
    check_caps(r, s=s)
    gamma_val = _check_unit_mass(gamma_val, "gamma_val")
    return _two_term(constants.c5, s, alpha * gamma_val, r, constants.c6)


def weighted_sum_bound_gap_tail_free(
    kappa: float,
    delta: float,
    n: int,
    gamma_star: float,
    r: int,
    s: int,
    constants: ConstantsConfig = DEFAULT_CONSTANTS,
) -> float:
    """Tail-free weighted-sum bound over capped symmetric progression images."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    check_caps(r, s=s)
    gamma_star = _check_unit_mass(gamma_star, "gamma_star")
    return _window(kappa, delta) * _two_term(constants.c7, s, n * gamma_star, r, constants.c8)


def transfer_bound_plain(
    q_smoothed: float, constants: ConstantsConfig = DEFAULT_CONSTANTS
) -> float:
    """Transfer from the smoothing law at the coarse window: c_d * Q(H^p, kappa)."""
    if q_smoothed < 0:
        raise DomainError("q_smoothed must be nonnegative")
    return constants.c_d * q_smoothed


def transfer_bound_window(
    q_smoothed: float,
    kappa: float,
    delta: float,
    d: int,
    constants: ConstantsConfig = DEFAULT_CONSTANTS,
) -> float:
    """Window-refined transfer: c_d * (1 + floor(kappa/delta))^d * Q(H^p, delta)."""
    if d < 1:
        raise DomainError("dimension must be a positive integer")
    if q_smoothed < 0:
        raise DomainError("q_smoothed must be nonnegative")
    window = _window(kappa, delta, d)  # inf past the float range, even at q_smoothed 0
    return window if math.isinf(window) else constants.c_d * window * q_smoothed


def transfer_bound_refined(
    q_smoothed: float, lam: float, constants: ConstantsConfig = DEFAULT_CONSTANTS
) -> float:
    """Window-count transfer: c_d * Q(H^lambda, kappa) / lambda.

    Sharper than the plain transfer once lambda is large, because raising
    the smoothing power can only spread the law out.
    """
    if q_smoothed < 0:
        raise DomainError("q_smoothed must be nonnegative")
    if lam < 0:
        raise DomainError("lambda must be nonnegative")
    if lam == 0.0:
        return math.inf
    return constants.c_d * q_smoothed / lam


def _lcd_core(
    b: float,
    lcd: LcdParams,
    big_d: float,
    det_gram: float,
    d: int,
    c_d: float,
    exp_coeff: float,
) -> float:
    if b <= 0.0:
        return math.inf
    if det_gram <= 0.0:
        return math.inf
    first = (1.0 / (lcd.gamma * big_d * math.sqrt(b))) ** d / math.sqrt(det_gram)
    return c_d * (first + math.exp(-exp_coeff * b * lcd.alpha * lcd.alpha))


def _check_lcd_args(big_d: float, d: int):
    if not big_d > 0:
        raise DomainError("denominator bracket D must be positive")
    if d < 1:
        raise DomainError("dimension must be a positive integer")


def lcd_compound_poisson_bound(
    b: float,
    lcd: LcdParams,
    big_d: float,
    det_gram: float,
    d: int,
    constants: ConstantsConfig = DEFAULT_CONSTANTS,
) -> float:
    """Bound for Q(H^b, 1/D) under the least-denominator condition at level D.

    c_d * ((1/(gamma D sqrt(b)))^d / sqrt(det A) + exp(-4 b alpha^2)) where
    gamma and alpha are those of ``lcd`` and A is the Gram matrix of the
    weight rows.
    """
    _check_lcd_args(big_d, d)
    return _lcd_core(b, lcd, big_d, det_gram, d, constants.c_d, 4.0)


def lcd_weighted_sum_bounds(
    lambda_val: float,
    p_val: float,
    m2_val: float,
    lcd: LcdParams,
    big_d: float,
    det_gram: float,
    d: int,
    constants: ConstantsConfig = DEFAULT_CONSTANTS,
) -> tuple[float, float, float]:
    """The three least-denominator bounds on Q(F_a, tau).

    Returned in order: window-count form (extra 1/lambda prefactor),
    tail-mass form, truncated-second-moment form.  All three share the
    smoothing power slot, filled with lambda_d(tau D), p(tau D) and
    M(tau D) respectively; the last uses the configurable exponent
    coefficient because its admissible value is not pinned down.
    """
    _check_lcd_args(big_d, d)
    c_d = constants.c_d
    if lambda_val == 0.0:
        via_lambda = math.inf
    else:
        via_lambda = _lcd_core(lambda_val, lcd, big_d, det_gram, d, c_d, 4.0) / lambda_val
    via_p = _lcd_core(p_val, lcd, big_d, det_gram, d, c_d, 4.0)
    via_m2 = _lcd_core(m2_val, lcd, big_d, det_gram, d, c_d, constants.c_exp_m2)
    return via_lambda, via_p, via_m2


def h_char_fn(a: WeightVector):
    """Characteristic function of the spectral smoothing law of ``a``.

    hat H(t) = exp(-(1/2) sum_k (1 - cos<t, a_k>)), real with values in
    (0, 1].  The returned callable is vectorized over a grid read by
    ``WeightVector.phases``.
    """

    def f_hat(ts):
        _, ph = a.phases(ts)
        return np.exp(-0.5 * np.sum(1.0 - np.cos(ph), axis=-1))

    return f_hat


def smoothing_law(a: WeightVector, power: float = 1.0) -> CompoundPoisson:
    """Compound Poisson law whose characteristic function is h_char_fn(a)**power."""
    if not power >= 0:
        raise DomainError("smoothing power must be nonnegative")
    return CompoundPoisson(0.5 * a.n * float(power), spectral_measure(a.rows))


@dataclass(frozen=True)
class PointwiseChainReport:
    """Outcome of the constant-free characteristic-function chain check.

    All checks either passed (this object) or raised ChainViolationError.
    ``premise_failures`` counts grid points inside the stated radius where
    the denominator condition itself failed; those points are excluded from
    the final comparison because the envelope is only claimed under the
    condition.  A nonzero count means the supplied D exceeds the true
    denominator bracket.
    """

    n_points: int
    cosine_checks: int
    envelope_checks: int
    lcd_checks: int
    premise_failures: int
    slack: float


def _first_violation(mask: np.ndarray):
    idx = np.flatnonzero(mask)
    return int(idx[0]) if idx.size else None


def verify_pointwise_chain(
    a: WeightVector,
    t_grid,
    lcd: LcdParams | None = None,
    big_d: float | None = None,
    slack: float = 1e-12,
) -> PointwiseChainReport:
    """Check the exact pointwise inequalities behind the smoothing bounds.

    For every grid point t:

    1. 1 - cos x >= 2 x^2 / pi^2 at each phase x = <t, a_k> reduced to
       [-pi, pi];
    2. hat H(t) <= exp(-4 dist(t/2pi . a, Z^n)^2);
    3. with ``lcd`` and ``big_d`` given and ||t|| <= 2 pi big_d, whenever
       the denominator condition of ``lcd`` holds at t/2pi:
       hat H(t) <= exp(-4 min(gamma ||t/2pi . a||, alpha)^2).

    These are constant-free facts; any failure beyond ``slack`` raises
    ChainViolationError carrying the offending t.
    """
    if slack < 0:
        raise DomainError("slack must be nonnegative")
    if (lcd is None) != (big_d is None):
        raise InputError("lcd and big_d come together or not at all")
    check_lcd = lcd is not None
    if check_lcd:
        _check_lcd_args(big_d, a.dim)

    ts, ph = a.phases(t_grid)  # (m, d) points, (m, n) phases <t, a_k>
    # one reduction feeds both sides of every check: the bounds are tight at ±pi
    frac = ph / _TWO_PI - np.rint(ph / _TWO_PI)
    reduced = _TWO_PI * frac
    lhs_cos = 1.0 - np.cos(reduced)
    rhs_cos = 2.0 * reduced * reduced / (math.pi * math.pi)
    bad = lhs_cos < rhs_cos - slack
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise ChainViolationError(
            "cosine_quadratic", ts[i], lhs_cos[i, k], rhs_cos[i, k]
        )

    h_vals = np.exp(-0.5 * np.sum(lhs_cos, axis=1))
    dist_sq = np.sum(frac * frac, axis=1)
    envelope = np.exp(-4.0 * dist_sq)
    bad = h_vals > envelope + slack
    i = _first_violation(bad)
    if i is not None:
        raise ChainViolationError("lattice_envelope", ts[i], h_vals[i], envelope[i])

    lcd_checks = 0
    premise_failures = 0
    if check_lcd:
        radius_ok = np.linalg.norm(ts, axis=1) <= _TWO_PI * big_d * (1.0 + 1e-12)
        scaled_norm = np.linalg.norm(ph, axis=1) / _TWO_PI  # ||t/2pi . a||
        threshold = np.minimum(lcd.gamma * scaled_norm, lcd.alpha)
        premise = np.sqrt(dist_sq) >= threshold - slack
        premise_failures = int(np.count_nonzero(radius_ok & ~premise))
        active = radius_ok & premise
        lcd_checks = int(np.count_nonzero(active))
        lcd_envelope = np.exp(-4.0 * threshold * threshold)
        bad = active & (h_vals > lcd_envelope + slack)
        i = _first_violation(bad)
        if i is not None:
            raise ChainViolationError(
                "denominator_envelope", ts[i], h_vals[i], lcd_envelope[i]
            )

    return PointwiseChainReport(
        n_points=ts.shape[0],
        cosine_checks=int(ph.size),
        envelope_checks=ts.shape[0],
        lcd_checks=lcd_checks,
        premise_failures=premise_failures,
        slack=slack,
    )


# Which estimate each tag is an upper bound for, in CSV row order.
_TAG_TARGET = {
    "cp_cgap": "q_h_p_kappa",
    "cp_gap": "q_h_p_kappa",
    "ws_cgap_p": "q",
    "ws_cgap_lambda": "q",
    "ws_gap_lambda": "q",
    "transfer_plain": "q",
    "transfer_window": "q",
    "transfer_refined": "q",
    "lcd_cp": "q_h_b_invd",
    "lcd_lambda": "q",
    "lcd_p": "q",
    "lcd_m2": "q",
}
_TAG_ORDER = tuple(_TAG_TARGET)

_CSV_COLUMNS = (
    "instance",
    "tag",
    "value",
    "vacuous",
    "target",
    "target_value",
    "target_method",
    "target_stderr",
)


def _json_bound_value(v: float) -> dict:
    if math.isinf(v):
        return {"value": None, "vacuous": True}
    return {"value": v, "vacuous": bool(v > 1.0)}


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bounds for one instance, next to their reference estimates.

    ``bounds`` maps tag -> value (``inf`` when the mass functional wiped
    out); ``references`` holds the exact or Monte Carlo estimates the tags
    are compared against, keyed by the names in ``_TAG_TARGET``.  Guards
    carry the validity flags (window-count size, denominator bracket) that
    the inequalities attach.
    """

    instance: str
    q_estimate: ConcentrationEstimate
    bounds: dict
    references: dict
    guards: dict
    parameters: dict
    constants: ConstantsConfig

    def vacuous(self, tag: str) -> bool:
        return _json_bound_value(self.bounds[tag])["vacuous"]

    def to_json_obj(self) -> dict:
        out_bounds = {}
        for tag in sorted(self.bounds):
            entry = _json_bound_value(self.bounds[tag])
            entry["target"] = _TAG_TARGET[tag]
            out_bounds[tag] = entry
        return {
            "instance": self.instance,
            "q": self.q_estimate.to_json_obj(),
            "bounds": out_bounds,
            "references": {k: dict(v) for k, v in sorted(self.references.items())},
            "guards": dict(sorted(self.guards.items())),
            "parameters": dict(sorted(self.parameters.items())),
            "constants": self.constants.to_json_obj(),
        }

    def csv_rows(self) -> list:
        rows = []
        for tag in _TAG_ORDER:
            if tag not in self.bounds:
                continue
            entry = _json_bound_value(self.bounds[tag])
            target = _TAG_TARGET[tag]
            ref = self.references.get(target, {})
            rows.append(
                {
                    "instance": self.instance,
                    "tag": tag,
                    "value": "" if entry["value"] is None else repr(float(entry["value"])),
                    "vacuous": str(entry["vacuous"]).lower(),
                    "target": target,
                    "target_value": repr(float(ref["value"])) if "value" in ref else "",
                    "target_method": ref.get("method", ""),
                    "target_stderr": repr(float(ref["stderr"]))
                    if "stderr" in ref
                    else "",
                }
            )
        return rows


def bound_report_csv(reports) -> str:
    """Render reports as one flat CSV string, rows sorted by (instance, tag)."""
    all_rows = []
    for rep in reports:
        all_rows.extend(rep.csv_rows())
    all_rows.sort(key=lambda row: (row["instance"], _TAG_ORDER.index(row["tag"])))
    lines = [",".join(_CSV_COLUMNS)]
    for row in all_rows:
        lines.append(",".join(row[col] for col in _CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _estimate_q(
    x: DiscreteDistribution, a: WeightVector, tau: float, mc_samples: int, seed: int
) -> ConcentrationEstimate:
    """Exact Q when the enumeration fits its budget, Monte Carlo otherwise."""
    try:
        return exact_q(x, a, tau)
    except CapacityError:
        return mc_q(WeightedSum(x, a), tau, mc_samples, seed)


def _reference_entry(est: ConcentrationEstimate) -> dict:
    return {"value": est.value, "method": est.method, "stderr": est.stderr}


def _smoothed_reference(
    a: WeightVector,
    power: float,
    window: float,
    mc_samples: int,
    seed: int,
    constants: ConstantsConfig,
) -> dict:
    """Monte Carlo estimate of Q(H^power, window) with a smoothing-integral cross-check."""
    law = smoothing_law(a, power)
    est = mc_q(law, window, mc_samples, seed)
    f_hat = h_char_fn(a)
    entry = _reference_entry(est)
    try:
        cross = esseen_upper_q(
            lambda ts: f_hat(ts) ** power, window, a.dim, constants.c_esseen
        )
        entry["esseen_upper"] = cross.value
    except DomainError as exc:
        # no quadrature for this dimension: the skip is recorded, not dropped
        entry["esseen_upper"] = None
        entry["esseen_skipped"] = str(exc)
    except NumericsError as exc:
        # a diagnostic only: its failure is recorded, never fatal to the report
        entry["esseen_upper"] = None
        entry["esseen_error"] = str(exc)
    return entry


def build_bound_report(
    x: DiscreteDistribution,
    a: WeightVector,
    tau: float,
    kappa: float,
    delta: float,
    r: int = DEFAULT_CAPS["r"],
    m: int = DEFAULT_CAPS["m"],
    s: int = DEFAULT_CAPS["s"],
    lcd: LcdParams | None = None,
    smoothing_power: float = 1.0,
    constants: ConstantsConfig = DEFAULT_CONSTANTS,
    instance: str = "instance",
    seed=0,
    mc_samples: int = 500_000,
) -> BoundReport:
    """Evaluate every applicable bound for one instance.

    The progression-class tags (cp_*, ws_*) are one-dimensional statements
    and are emitted only when the weights live on the line; the transfer
    tags work in any dimension, and the lcd_* tags additionally need the
    LCD parameters ``lcd``.  Randomness is derived from ``seed`` per
    reference estimate, so equal seeds give identical reports.
    """
    _check_summand(x)
    if not (tau > 0 and kappa > 0 and delta > 0):
        raise DomainError("tau, kappa and delta must be positive")
    seed_int = check_seed(seed)
    d = a.dim
    n = a.n

    g = symmetrize(x)
    ratio = tau / kappa
    p_val = tail_mass(g, ratio)
    lam_transfer = lambda_d(g, ratio, d)
    lam_guard = lambda_d(g, ratio, 1)

    bounds = {}
    references = {}
    guards = {
        "p_tau_over_kappa": p_val,
        "lambda_tau_over_kappa": lam_transfer,
        "lambda_guard_value": lam_guard,
        "lambda_guard_ok": bool(lam_guard >= 1.0),
    }
    parameters = {
        "tau": tau,
        "kappa": kappa,
        "delta": delta,
        "r": int(r),
        "m": int(m),
        "s": int(s),
        "n": n,
        "d": d,
        "b": float(smoothing_power),
        "seed": seed_int,
        "mc_samples": int(mc_samples),
    }

    q_est = _estimate_q(x, a, tau, mc_samples, derive_seed(seed_int, 1))
    references["q"] = _reference_entry(q_est)

    # Smoothed references.  The kappa-window pair for the plain and refined
    # transfers shares one derived seed so their comparison is coupled; with
    # equal powers the two entries are the same computation, made once.
    q_h_p_kappa = _smoothed_reference(
        a, p_val, kappa, mc_samples, derive_seed(seed_int, 2), constants
    )
    if lam_transfer == p_val:
        q_h_lambda_kappa = dict(q_h_p_kappa)
    else:
        q_h_lambda_kappa = _smoothed_reference(
            a, lam_transfer, kappa, mc_samples, derive_seed(seed_int, 2), constants
        )
    q_h_p_delta = _smoothed_reference(
        a, p_val, delta, mc_samples, derive_seed(seed_int, 3), constants
    )
    references["q_h_p_kappa"] = q_h_p_kappa
    references["q_h_lambda_kappa"] = q_h_lambda_kappa
    references["q_h_p_delta"] = q_h_p_delta

    bounds["transfer_plain"] = transfer_bound_plain(q_h_p_kappa["value"], constants)
    bounds["transfer_window"] = transfer_bound_window(
        q_h_p_delta["value"], kappa, delta, d, constants
    )
    bounds["transfer_refined"] = transfer_bound_refined(
        q_h_lambda_kappa["value"], lam_transfer, constants
    )

    if d == 1:
        m_star = spectral_measure(a.rows)
        # gamma_rs searches beta_rm's family, so gamma* at cap s is the beta search at cap s
        star = {
            (t, k): beta_rm(m_star, t, r, k).value
            for t, k in {(t, k) for t in (delta, kappa) for k in (m, s)}
        }
        beta_delta, gamma_delta = star[delta, m], star[delta, s]
        beta_kappa, gamma_kappa = star[kappa, m], star[kappa, s]
        guards.update(beta_star_delta=beta_delta, gamma_star_delta=gamma_delta,
                      beta_star_kappa=beta_kappa, gamma_star_kappa=gamma_kappa)

        cp_intensity = 0.5 * n * p_val
        if cp_intensity > 0:
            bounds["cp_cgap"] = compound_poisson_bound_cgap(
                cp_intensity, beta_kappa, r, m, constants
            )
            bounds["cp_gap"] = compound_poisson_bound_gap(
                cp_intensity, gamma_kappa, r, s, constants
            )
        else:
            bounds["cp_cgap"] = math.inf
            bounds["cp_gap"] = math.inf
        bounds["ws_cgap_p"] = weighted_sum_bound_cgap(
            kappa, delta, n, p_val, beta_delta, r, m, constants
        )
        bounds["ws_cgap_lambda"] = weighted_sum_bound_cgap_tail_free(
            kappa, delta, n, beta_delta, r, m, constants
        )
        bounds["ws_gap_lambda"] = weighted_sum_bound_gap_tail_free(
            kappa, delta, n, gamma_delta, r, s, constants
        )

    if lcd is not None:
        bracket = compute_lcd(a, lcd)
        big_d = bracket.d_lower
        guards["lcd_d_lower"] = big_d
        guards["lcd_certified"] = bool(bracket.certified)
        guards["lcd_converged"] = bool(bracket.converged)
        parameters["gamma"] = lcd.gamma
        parameters["alpha"] = lcd.alpha
        parameters["D"] = big_d
        if big_d > 0:
            _, det_gram = a.gram()
            p_td = tail_mass(g, tau * big_d)
            lam_td = lambda_d(g, tau * big_d, d)
            m2_td = truncated_second_moment(g, tau * big_d)
            guards["p_tau_d"] = p_td
            guards["lambda_tau_d"] = lam_td
            guards["m2_tau_d"] = m2_td
            via_lambda, via_p, via_m2 = lcd_weighted_sum_bounds(
                lam_td, p_td, m2_td, lcd, big_d, det_gram, d, constants
            )
            bounds["lcd_lambda"] = via_lambda
            bounds["lcd_p"] = via_p
            bounds["lcd_m2"] = via_m2
            bounds["lcd_cp"] = lcd_compound_poisson_bound(
                smoothing_power, lcd, big_d, det_gram, d, constants
            )
            references["q_h_b_invd"] = _smoothed_reference(
                a,
                smoothing_power,
                1.0 / big_d,
                mc_samples,
                derive_seed(seed_int, 5),
                constants,
            )
        else:
            for tag in ("lcd_cp", "lcd_lambda", "lcd_p", "lcd_m2"):
                bounds[tag] = math.inf

    return BoundReport(
        instance=instance,
        q_estimate=q_est,
        bounds=bounds,
        references=references,
        guards=guards,
        parameters=parameters,
        constants=constants,
    )


__all__ = [
    "ConstantsConfig",
    "DEFAULT_CONSTANTS",
    "BoundReport",
    "PointwiseChainReport",
    "bound_report_csv",
    "build_bound_report",
    "compound_poisson_bound_cgap",
    "compound_poisson_bound_gap",
    "h_char_fn",
    "lcd_compound_poisson_bound",
    "lcd_weighted_sum_bounds",
    "smoothing_law",
    "transfer_bound_plain",
    "transfer_bound_refined",
    "transfer_bound_window",
    "verify_pointwise_chain",
    "weighted_sum_bound_cgap",
    "weighted_sum_bound_cgap_tail_free",
    "weighted_sum_bound_gap_tail_free",
]
