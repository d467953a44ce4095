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
from functools import cache

import numpy as np

from ._common import (
    _MASK64,
    WINDOW_TOL,
    check_count,
    check_scale,
    derive_seed,
    json_number,
    json_object,
)
from .concentration import (
    ConcentrationEstimate,
    WeightVector,
    WeightedSum,
    _check_mc_samples,
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
# Unit roundoff of a double.
_U = 2.0**-53
# Largest grid, in points per period, of a lattice smoothed reference; a
# larger one is estimated by Monte Carlo.
_LATTICE_GRID = 1 << 20
# Poisson tail past the jump count a lattice reference's grid holds.
_LATTICE_TAIL = 1e-15
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
            what = f"constants.{f.name}"
            v = check_scale(json_number(getattr(self, f.name), what), what, positive=True)
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


@dataclass(frozen=True, eq=False)
class _SmoothingCharFn:
    """hat H of ``smoothing_law(a)``, callable on a grid; it keeps ``a``,
    whose rows the lattice route of a smoothed reference reads."""

    a: WeightVector

    def __call__(self, ts):
        _, ph = self.a.phases(ts)
        return np.exp(-0.5 * np.sum(1.0 - np.cos(ph), axis=-1))


def h_char_fn(a: WeightVector):
    """Characteristic function of the spectral smoothing law of ``a``.

    hat H(t) = exp(-(1/2) sum_k (1 - cos<t, a_k>)), real with values in
    (0, 1].  The returned callable is vectorized over a grid read by
    ``WeightVector.phases``.
    """
    return _SmoothingCharFn(a)


def smoothing_law(a: WeightVector, power: float = 1.0) -> CompoundPoisson:
    """Compound Poisson law whose characteristic function is h_char_fn(a)**power."""
    power = check_scale(power, "power", finite=True)
    return CompoundPoisson(0.5 * a.n * power, spectral_measure(a.rows))


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
    if check_lcd:
        check_scale(big_d, "big_d", positive=True)

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


def _lattice_steps(a: WeightVector):
    """The largest power of two h = 2^e that divides every weight of ``a``
    on the line (every finite double is dyadic), and the distinct nonzero
    |a_k| / h with their counts, as pairs of Python integers."""
    vals, counts = np.unique(np.abs(a.rows[:, 0]), return_counts=True)
    ratios = [(v.as_integer_ratio(), c) for v, c in zip(vals.tolist(), counts.tolist()) if v]
    # num / den, den = 2^b, is divided by 2^(v2(num) - b) and no higher power
    e = min((num & -num).bit_length() - den.bit_length() for (num, den), _ in ratios)
    steps = []
    for (num, den), c in ratios:
        shift = e + den.bit_length() - 1
        steps.append((num >> shift if shift >= 0 else num << -shift, c))
    return math.ldexp(1.0, e), steps


def _poisson_cut(lam: float, most: int):
    """The first jump count J >= ceil(lam) - 1 whose bound on P(N > J), N
    Poisson(lam), is at most ``_LATTICE_TAIL``, and that bound; None past
    ``most``.  Past lam the pmf falls at least geometrically, so P(N > J) <=
    pmf(J + 1) (J + 2) / (J + 2 - lam)."""
    if lam == 0.0:
        return 0, 0.0
    if lam > most + 1:
        return None
    j = max(0, math.ceil(lam) - 1)
    pmf = math.exp((j + 1) * math.log(lam) - lam - math.lgamma(j + 2))
    while (tail := pmf * (j + 2) / (j + 2 - lam)) > _LATTICE_TAIL:
        j += 1
        if j > most:
            return None
        pmf *= lam / (j + 1)
    return j, tail


def _lattice_fft_q(a: WeightVector, power: float, window: float):
    """Bracket (lower, upper) of Q(H^power, window), H = ``smoothing_law(a)``
    for weights on the line, from the law on a grid of N points of their
    lattice h Z; None when N would pass ``_LATTICE_GRID``.

    H^power is compound Poisson with intensity n power / 2 and jumps +-a_k,
    so its mass lies in [-J M h, J M h] up to the Poisson tail past J
    jumps, M h the largest |a_k|.  A window holds at most L lattice points:
    L counts the length with ``_max_window_mass_1d``'s slack at the widest
    anchor |z| = J M h, and a margin for the sweep's own rounding (a window
    anchored further out holds at most the tail, far below the largest
    one, which is at least 1/N less E).  N is the
    first power of two at least 2 J M + L.  hat H^power is real and even,
    so ``irfft`` of its values on the grid, with every phase 2 pi (l m mod
    N) / N taken from exact integers m = |a_k| / h, gives the law wrapped
    onto Z/N.  Wrapping only adds mass to a window, so the largest circular
    L-point window sum, plus a rounding bound E, is an upper end; a
    circular window meets [-J M, J M] in one run of at most L points, so
    less E and the tail it is a lower end.  E sums a priori bounds: each
    grid value of hat H^power is off by at most err_char (phases, cosines,
    the grouped sum and exp), the FFT adds 17 (log2 N + 2) units in the
    2-norm (the inverse map has norm 1/sqrt(N)), and the cumulative sums
    their own; it is at least 4 (N + L) units, far above the rounding of
    the tail bound (relative, under 1e-8).  ``numpy.fft`` is imported on
    first use.
    """
    h, steps = _lattice_steps(a)
    top = max(m for m, _ in steps)
    cut = _poisson_cut(0.5 * a.n * power, (_LATTICE_GRID - 1) // (2 * top))
    if cut is None:
        return None
    jumps, tail = cut
    if jumps == 0:
        return 1.0 - tail, 1.0  # the atom at 0 holds P(N = 0) >= 1 - tail
    z_max = jumps * top * h
    reach = window + WINDOW_TOL * max(1.0, z_max)
    points = (reach + 4 * _U * (z_max + reach)) / h
    if not points < _LATTICE_GRID:
        return None
    width = math.floor(points) + 1
    size = 1 << (2 * jumps * top + width - 1).bit_length()
    if size > _LATTICE_GRID:
        return None
    freq = np.arange(size // 2 + 1)
    # 1 - cos(2 pi r / N) for r in [0, N/2]: cos is even, so every phase reads it
    one_minus_cos = 1.0 - np.cos(freq * (_TWO_PI / size))
    total = np.zeros(len(freq))
    for m, c in steps:
        r = (freq * m) & (size - 1)  # mod N, a power of two
        total += c * one_minus_cos[np.minimum(r, size - r, out=r)]
    law = np.fft.irfft(np.exp(-0.5 * power * total), size)
    cum = np.concatenate([[0.0], np.cumsum(np.concatenate([law, law[: width - 1]]))])
    best = float(np.max(cum[width:] - cum[:size]))
    err_char = _U * (power * a.n * (16 + 2 * len(steps)) + 16)
    err_point = err_char + 17 * _U * (size.bit_length() + 1)
    err = width * err_point + 4 * _U * (size + width + 2) * (1.0 + size * err_point)
    return max(0.0, best - err - tail), min(1.0, best + err)


def _smoothed_reference(
    h: CompoundPoisson,
    h_hat,
    power: float,
    window: float,
    mc_samples: int,
    seed: int,
    constants: ConstantsConfig,
) -> dict:
    """Q(H^power, window) with a smoothing-integral cross-check, H =
    ``smoothing_law(a)`` and ``h_hat = h_char_fn(a)``.  On the line it is the
    ``lattice_fft`` bracket of ``_lattice_fft_q`` where that has one: the
    upper end is the entry's ``value`` and the lower end its ``lower``.
    Otherwise it is a Monte Carlo estimate from H with its intensity scaled
    by ``power``, which is ``smoothing_law(a, power)`` bit for bit."""
    power = check_scale(power, "power", finite=True)
    bracket = _lattice_fft_q(h_hat.a, power, window) if h.dim == 1 else None
    if bracket is None:
        est = mc_q(CompoundPoisson(h.intensity * power, h.base), window, mc_samples, seed)
        entry = _reference_entry(est)
    else:
        lower, upper = bracket
        entry = _reference_entry(ConcentrationEstimate(upper, "lattice_fft", 0.0, window))
        entry["lower"] = lower
    try:
        cross = esseen_upper_q(
            lambda ts: h_hat(ts) ** power, window, h.dim, constants.c_esseen
        )
        entry["esseen_upper"] = cross.value
    except DomainError as exc:
        # no quadrature for this dimension or window: the skip is recorded, not dropped
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
    for what, window in (("tau", tau), ("kappa", kappa), ("delta", delta)):
        check_scale(window, what, positive=True)
    seed_int = check_count(seed, "seed", maximum=_MASK64)
    # checked even where every reference takes an exact or lattice route
    _check_mc_samples(mc_samples)
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

    # Smoothed references Q(H^power, window) of one smoothing law H, each made
    # once per (power, window, seed stream) and handed out as its own entry.
    # The kappa-window pair for the plain and refined transfers shares seed
    # stream 2 so their comparison is coupled; with equal powers they are one.
    h, h_hat = smoothing_law(a), h_char_fn(a)

    @cache
    def smoothed(power, window, stream):
        seed = derive_seed(seed_int, stream)
        return _smoothed_reference(h, h_hat, power, window, mc_samples, seed, constants)

    references["q_h_p_kappa"] = q_h_p_kappa = dict(smoothed(p_val, kappa, 2))
    references["q_h_lambda_kappa"] = q_h_lambda_kappa = dict(smoothed(lam_transfer, kappa, 2))
    references["q_h_p_delta"] = q_h_p_delta = dict(smoothed(p_val, delta, 3))

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
        # one search per (window, cap) on H's base, the spectral measure; gamma_rs
        # searches beta_rm's family, so gamma* at cap s is the beta search at cap s
        star = cache(lambda t, k: beta_rm(h.base, t, r, k).value)
        beta_delta, gamma_delta = star(delta, m), star(delta, s)
        beta_kappa, gamma_kappa = star(kappa, m), star(kappa, s)
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
            references["q_h_b_invd"] = dict(smoothed(smoothing_power, 1.0 / big_d, 5))
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
