"""Plug-in values of the concentration upper bounds, one report per instance.

``build_bound_report`` computes the literal value of each right-hand side
from the mass functionals produced elsewhere (tail mass, window-count sums,
coverage deficits, least-denominator brackets) through three forms: the
progression two-term form, the window count and the least-denominator form.
The unknown absolute constants are exposed in :class:`ConstantsConfig` and
default to 1.0; nothing in this module asserts that the defaults make any
inequality true.  Values are audited empirically by the report layer: a
bound whose mass functional vanishes comes back as ``inf``, and anything
above 1 is flagged vacuous since a concentration value never exceeds 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._common import check_seed, derive_seed, json_number, json_object
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
    naming_field,
)
from .lcd import LcdParams, compute_lcd
from .progressions import DEFAULT_CAPS, beta_rm

_TWO_PI = 2.0 * math.pi
# Monte Carlo sample count of every estimate of a bound report.
DEFAULT_MC_SAMPLES = 100_000
# Tolerance of every comparison of the pointwise chain check.
_CHAIN_SLACK = 1e-12


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
        with naming_field("constants"):  # each value's error names constants.<field>
            obj = json_object(obj, optional=[f.name for f in fields(cls)])
        return cls(**obj)


DEFAULT_CONSTANTS = ConstantsConfig()


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
def _window(kappa: float, delta: float, d: int) -> float:
    """The window count (1 + floor(kappa/delta))^d."""
    return float((1 + math.floor(kappa / delta)) ** d)


@_inf_past_float_range
def _lcd_core(
    b: float,
    lcd: LcdParams,
    big_d: float,
    det_gram: float,
    d: int,
    c_d: float,
    exp_coeff: float,
) -> float:
    """c_d * ((1/(gamma D sqrt(b)))^d / sqrt(det A) + exp(-exp_coeff b alpha^2)),
    gamma and alpha those of ``lcd``; inf at a zero mass b or a singular A."""
    if b <= 0.0 or det_gram <= 0.0:
        return math.inf
    first = (1.0 / (lcd.gamma * big_d * math.sqrt(b))) ** d / math.sqrt(det_gram)
    return c_d * (first + math.exp(-exp_coeff * b * lcd.alpha * lcd.alpha))


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
    lcd_checks: int
    premise_failures: int


def _first_violation(mask: np.ndarray):
    idx = np.flatnonzero(mask)
    return int(idx[0]) if idx.size else None


def verify_pointwise_chain(
    a: WeightVector,
    t_grid,
    lcd: LcdParams | None = None,
    big_d: float | None = None,
) -> PointwiseChainReport:
    """Check the exact pointwise inequalities behind the smoothing bounds.

    For every grid point t:

    1. 1 - cos x >= 2 x^2 / pi^2 at each phase x = <t, a_k> reduced to
       [-pi, pi];
    2. hat H(t) <= exp(-4 dist(t/2pi . a, Z^n)^2);
    3. with ``lcd`` and ``big_d`` given and ||t|| <= 2 pi big_d, whenever
       the denominator condition of ``lcd`` holds at t/2pi:
       hat H(t) <= exp(-4 min(gamma ||t/2pi . a||, alpha)^2).

    These are constant-free facts; any failure beyond ``_CHAIN_SLACK``
    raises ChainViolationError carrying the offending t.
    """
    if (lcd is None) != (big_d is None):
        raise InputError("lcd and big_d come together or not at all")
    check_lcd = lcd is not None
    if check_lcd and not big_d > 0:
        raise DomainError("denominator bracket D must be positive")

    ts, ph = a.phases(t_grid)  # (m, d) points, (m, n) phases <t, a_k>
    # one reduction feeds both sides of every check: the bounds are tight at ±pi
    frac = ph / _TWO_PI - np.rint(ph / _TWO_PI)
    reduced = _TWO_PI * frac
    lhs_cos = 1.0 - np.cos(reduced)
    rhs_cos = 2.0 * reduced * reduced / (math.pi * math.pi)
    bad = lhs_cos < rhs_cos - _CHAIN_SLACK
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise ChainViolationError(
            "cosine_quadratic", ts[i], lhs_cos[i, k], rhs_cos[i, k]
        )

    h_vals = np.exp(-0.5 * np.sum(lhs_cos, axis=1))
    dist_sq = np.sum(frac * frac, axis=1)
    envelope = np.exp(-4.0 * dist_sq)
    bad = h_vals > envelope + _CHAIN_SLACK
    i = _first_violation(bad)
    if i is not None:
        raise ChainViolationError("lattice_envelope", ts[i], h_vals[i], envelope[i])

    lcd_checks = 0
    premise_failures = 0
    if check_lcd:
        radius_ok = np.linalg.norm(ts, axis=1) <= _TWO_PI * big_d * (1.0 + 1e-12)
        scaled_norm = np.linalg.norm(ph, axis=1) / _TWO_PI  # ||t/2pi . a||
        threshold = np.minimum(lcd.gamma * scaled_norm, lcd.alpha)
        premise = np.sqrt(dist_sq) >= threshold - _CHAIN_SLACK
        premise_failures = int(np.count_nonzero(radius_ok & ~premise))
        active = radius_ok & premise
        lcd_checks = int(np.count_nonzero(active))
        lcd_envelope = np.exp(-4.0 * threshold * threshold)
        bad = active & (h_vals > lcd_envelope + _CHAIN_SLACK)
        i = _first_violation(bad)
        if i is not None:
            raise ChainViolationError(
                "denominator_envelope", ts[i], h_vals[i], lcd_envelope[i]
            )

    return PointwiseChainReport(
        n_points=ts.shape[0],
        lcd_checks=lcd_checks,
        premise_failures=premise_failures,
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


def _csv_number(v) -> str:
    return "" if v is None else repr(float(v))


def bound_report_csv(reports) -> str:
    """Render reports as one flat CSV string, rows sorted by (instance, tag),
    each row read from its report's JSON record."""
    rows = []
    for obj in (rep.to_json_obj() for rep in reports):
        for tag, entry in obj["bounds"].items():
            ref = obj["references"].get(entry["target"], {})
            rows.append((
                obj["instance"], tag, _csv_number(entry["value"]), str(entry["vacuous"]).lower(),
                entry["target"], _csv_number(ref.get("value")), ref.get("method", ""),
                _csv_number(ref.get("stderr")),
            ))
    rows.sort(key=lambda row: (row[0], _TAG_ORDER.index(row[1])))
    return "\n".join(",".join(row) for row in [_CSV_COLUMNS, *rows]) + "\n"


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
    mc_samples: int = DEFAULT_MC_SAMPLES,
) -> BoundReport:
    """Evaluate every applicable bound for one instance.

    The progression-class tags (cp_*, ws_*) are one-dimensional statements
    and are emitted only when the weights live on the line; the transfer
    tags work in any dimension, and the lcd_* tags additionally need the
    LCD parameters ``lcd``.  Randomness is derived from ``seed`` per
    reference estimate, so equal seeds give identical reports.

    With T(c, cap, mass) the two-term form ``_two_term``, W the window count
    (1 + floor(kappa/delta))^d, L(b, e) the least-denominator form
    ``_lcd_core`` at the bracket level D, p = p(tau/kappa), lambda =
    lambda_d(tau/kappa) and beta*, gamma* the coverage deficits at caps m, s:

    cp_cgap             T(c2, m, (n p / 2) beta*(kappa))
    cp_gap              T(c5, s, (n p / 2) gamma*(kappa)), inflated by c6
    ws_cgap_p           W T(c3, m, n p beta*(delta))
    ws_cgap_lambda      W T(c4, m, n beta*(delta)), tail-free (guarded)
    ws_gap_lambda       W T(c7, s, n gamma*(delta)), inflated by c8
    transfer_plain      c_d Q(H^p, kappa)
    transfer_window     c_d W Q(H^p, delta)
    transfer_refined    c_d Q(H^lambda, kappa) / lambda
    lcd_cp              L(b, 4), b the smoothing power
    lcd_lambda          L(lambda_d(tau D), 4) / lambda_d(tau D)
    lcd_p, lcd_m2       L(p(tau D), 4), L(M(tau D), c_exp_m2), M the truncated
                        second moment
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

    # Smoothed references Q(H^power, window), each made once per (power,
    # window, seed stream) and handed out as its own entry.  The kappa-window
    # pair for the plain and refined transfers shares seed stream 2 so their
    # comparison is coupled; with equal powers they are one computation.
    memo = {}

    def smoothed(power, window, stream):
        if (power, window, stream) not in memo:
            memo[power, window, stream] = _smoothed_reference(
                a, power, window, mc_samples, derive_seed(seed_int, stream), constants
            )
        return dict(memo[power, window, stream])

    references["q_h_p_kappa"] = q_h_p_kappa = smoothed(p_val, kappa, 2)
    references["q_h_lambda_kappa"] = q_h_lambda_kappa = smoothed(lam_transfer, kappa, 2)
    references["q_h_p_delta"] = q_h_p_delta = smoothed(p_val, delta, 3)

    c_d = constants.c_d
    window = _window(kappa, delta, d)  # inf past the float range, even at a zero mass
    bounds["transfer_plain"] = c_d * q_h_p_kappa["value"]
    bounds["transfer_window"] = (
        window if math.isinf(window) else c_d * window * q_h_p_delta["value"]
    )
    bounds["transfer_refined"] = (
        c_d * q_h_lambda_kappa["value"] / lam_transfer if lam_transfer > 0 else math.inf
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

        # the coverage deficits and p are masses: a rounding excess over 1 is clamped
        cp_intensity = 0.5 * n * p_val
        c = constants
        bounds["cp_cgap"] = _two_term(c.c2, m, cp_intensity * min(beta_kappa, 1.0), r)
        bounds["cp_gap"] = _two_term(c.c5, s, cp_intensity * min(gamma_kappa, 1.0), r, c.c6)
        ws_mass = n * min(p_val, 1.0) * min(beta_delta, 1.0)
        bounds["ws_cgap_p"] = window * _two_term(c.c3, m, ws_mass, r)
        bounds["ws_cgap_lambda"] = window * _two_term(c.c4, m, n * min(beta_delta, 1.0), r)
        bounds["ws_gap_lambda"] = window * _two_term(
            c.c7, s, n * min(gamma_delta, 1.0), r, c.c8
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
        # with no denominator bracket every mass slot is 0, so every lcd tag is inf
        b = lam_td = p_td = m2_td = 0.0
        if big_d > 0:
            b = smoothing_power
            lam_td = lambda_d(g, tau * big_d, d)
            p_td = tail_mass(g, tau * big_d)
            m2_td = truncated_second_moment(g, tau * big_d)
            guards["p_tau_d"] = p_td
            guards["lambda_tau_d"] = lam_td
            guards["m2_tau_d"] = m2_td
            references["q_h_b_invd"] = smoothed(smoothing_power, 1.0 / big_d, 5)
        _, det_gram = a.gram()

        def lcd_form(mass, exp_coeff=4.0):
            return _lcd_core(mass, lcd, big_d, det_gram, d, c_d, exp_coeff)

        bounds["lcd_cp"] = lcd_form(b)
        bounds["lcd_lambda"] = lcd_form(lam_td) / lam_td if lam_td > 0 else math.inf
        bounds["lcd_p"] = lcd_form(p_td)
        bounds["lcd_m2"] = lcd_form(m2_td, constants.c_exp_m2)

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
    "DEFAULT_MC_SAMPLES",
    "BoundReport",
    "PointwiseChainReport",
    "bound_report_csv",
    "build_bound_report",
    "h_char_fn",
    "smoothing_law",
    "verify_pointwise_chain",
]
