"""Distance to the integer lattice and the essential least common denominator.

For a weight vector a with rows a_k in R^d, the map t -> t.a = (<t, a_k>)_k
sends R^d into R^n.  The least common denominator is the infimum norm of a t
whose image comes closer to Z^n than min(gamma * |t.a|, alpha), with the
strict inequality.  In dimension up to three the infimum is bracketed by a
certified branch-and-bound: the objective is Lipschitz with constant
(1 + gamma) * sigma_max(a), so boxes whose center clears that margin hold no
violating point.  Above dimension three no search runs and no bracket is
given: the result is the trivial, uncertified [0, inf).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ._common import as_vector, check_scale
from .concentration import WeightVector
from .errors import DomainError

_MAX_NODES = 2_000_000
_TOL = 1e-6  # requested bracket width
_REL_TOL = 2.0**-40  # its floor relative to the bracket, where _TOL is below one ulp


@dataclass(frozen=True)
class LcdParams:
    """Parameters of the denominator search.

    ``theta_max`` is the search ceiling (derived from the weight scale when
    omitted).
    """

    gamma: float
    alpha: float
    theta_max: float | None = None

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise DomainError("gamma must lie strictly between 0 and 1")
        check_scale(self.alpha, "alpha", positive=True, finite=True)
        if self.theta_max is not None:
            check_scale(self.theta_max, "theta_max", positive=True, finite=True)


@dataclass(frozen=True)
class LcdResult:
    """Bracket [d_lower, d_upper] for the least common denominator.

    In dimension up to three the bracket is certified: no violating t with
    norm below ``d_lower`` exists (up to floating-point evaluation of the
    objective), and ``witness_t`` is a violating point with norm exactly
    ``d_upper``.  ``ceiling_hit`` marks searches that exhausted the ceiling
    without a witness, in which case ``d_upper`` is infinite.  Above
    dimension three there is no bracket: ``d_lower`` is 0, ``d_upper`` is
    infinite, ``certified`` and ``converged`` are False and no witness is given.
    """

    d_lower: float
    d_upper: float
    witness_t: np.ndarray | None
    certified: bool
    ceiling_hit: bool
    converged: bool
    iterations: int

    def __post_init__(self):
        if self.d_lower > self.d_upper + 1e-12:
            raise DomainError("bracket is inverted")

    def to_json_obj(self) -> dict:
        return {
            "d_lower": self.d_lower,
            "d_upper": self.d_upper if math.isfinite(self.d_upper) else None,
            "witness_t": None
            if self.witness_t is None
            else np.asarray(self.witness_t).tolist(),
            "certified": self.certified,
            "ceiling_hit": self.ceiling_hit,
            "converged": self.converged,
            "iterations": self.iterations,
        }


def default_theta_max(a: WeightVector) -> float:
    """Search ceiling 10 * (1 + 1/s) with s the smallest nonzero entry scale."""
    entries = np.abs(a.rows[a.rows != 0.0])
    smallest = float(entries.min())
    return 10.0 * (1.0 + 1.0 / smallest)


def _violation_margin(t: np.ndarray, rows: np.ndarray, gamma: float, alpha: float) -> float:
    """dist(t.a, Z^n) - min(gamma |t.a|, alpha); negative means violation.

    A phase past the float range counts as an integer.  Where the squares of
    finite phases overflow, |t.a| is the scaled norm s |t.a / s|, s = max |t.a|.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        v = rows @ t
        frac = v - np.rint(v)
        norm = math.sqrt(v.dot(v))
    if norm == math.inf:
        finite = np.isfinite(v)
        frac = frac[finite]
        if finite.all():
            s = float(np.abs(v).max())
            norm = s * float(np.linalg.norm(v / s))
    return math.sqrt(frac.dot(frac)) - min(gamma * norm, alpha)


def violation_condition(t, a: WeightVector, params: LcdParams) -> bool:
    """Strict check dist(t.a, Z^n) < min(gamma |t.a|, alpha)."""
    return _violation_margin(as_vector(t, a.dim), a.rows, params.gamma, params.alpha) < 0.0


def compute_lcd(a: WeightVector, params: LcdParams) -> LcdResult:
    """Bracket the least common denominator of ``a``.

    Dimensions up to three run the certified branch-and-bound; higher
    dimensions return the uncertified [0, inf) at once, without a search.
    """
    if a.dim > 3:
        return LcdResult(
            d_lower=0.0,
            d_upper=math.inf,
            witness_t=None,
            certified=False,
            ceiling_hit=True,
            converged=False,
            iterations=0,
        )
    theta = params.theta_max if params.theta_max is not None else default_theta_max(a)
    return _lcd_branch_and_bound(a, params, theta)


def _box_min_norm(lo: np.ndarray, hi: np.ndarray) -> float:
    nearest = np.clip(0.0, lo, hi)
    return float(np.linalg.norm(nearest))


def _box_max_norm(lo: np.ndarray, hi: np.ndarray) -> float:
    return float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))


def _lcd_branch_and_bound(a: WeightVector, params: LcdParams, theta: float) -> LcdResult:
    rows = a.rows
    d = a.dim
    gamma, alpha = params.gamma, params.alpha
    sigma = a.spectral_norm()
    lip = (1.0 + gamma) * sigma
    # inside |t.a| <= 1/2 the lattice distance equals |t.a| itself, which
    # gamma * |t.a| can never strictly exceed
    safe_norm = 0.5 / sigma
    min_width = _TOL / 8.0

    lo0 = np.full(d, -theta)
    hi0 = np.full(d, theta)
    lo0[0] = 0.0  # the margin is even in t; keep the t_1 >= 0 half
    heap = [(0.0, 0, lo0, hi0)]
    counter = 1
    best_up = math.inf
    witness = None
    residual_lower = math.inf
    frontier_min = math.inf  # least min-norm left unexpanded; inf once the heap empties
    nodes = 0
    while heap:
        min_norm, _, lo, hi = heapq.heappop(heap)
        frontier = min(min_norm, residual_lower, best_up, theta)
        if best_up - frontier <= max(_TOL, _REL_TOL * frontier) or min_norm >= min(best_up, theta):
            # bracket is tight enough, or everything left lies beyond it
            frontier_min = min_norm  # the popped node is the heap minimum
            break
        nodes += 1
        if nodes > _MAX_NODES:
            frontier_min = min_norm
            break
        center = (lo + hi) / 2.0
        margin = _violation_margin(center, rows, gamma, alpha)
        if margin < 0.0:
            norm_c = float(np.linalg.norm(center))
            if norm_c < best_up:
                best_up = norm_c
                witness = center.copy()
        else:
            half_diag = 0.5 * float(np.linalg.norm(hi - lo))
            if margin >= lip * half_diag:
                continue
            if _box_max_norm(lo, hi) <= safe_norm:
                continue
        widths = hi - lo
        if float(widths.max()) < min_width:
            residual_lower = min(residual_lower, min_norm)
            continue
        axis = int(np.argmax(widths))
        mid = (lo[axis] + hi[axis]) / 2.0
        left_hi = hi.copy()
        left_hi[axis] = mid
        right_lo = lo.copy()
        right_lo[axis] = mid
        for nlo, nhi in ((lo, left_hi), (right_lo, hi)):
            heapq.heappush(heap, (_box_min_norm(nlo, nhi), counter, nlo, nhi))
            counter += 1

    d_lower = min(frontier_min, residual_lower, best_up, theta)
    if witness is None:
        d_upper = math.inf
        converged = d_lower >= theta
        ceiling = True
    else:
        d_upper = best_up
        converged = (d_upper - d_lower) <= max(_TOL, _REL_TOL * d_lower)
        ceiling = False
    return LcdResult(
        d_lower=float(d_lower),
        d_upper=float(d_upper),
        witness_t=witness,
        certified=True,
        ceiling_hit=ceiling,
        converged=bool(converged),
        iterations=nodes,
    )


__all__ = [
    "LcdParams",
    "LcdResult",
    "compute_lcd",
    "default_theta_max",
    "violation_condition",
]
