"""Symmetric progressions, convex-body lattice images, and coverage search.

A Gap is a symmetric generalized arithmetic progression: image
{sum_j m_j g_j : m_j integer, |m_j| <= L_j}.  A Cgap is its convex-body
counterpart: {<nu, h> : nu in Z^r intersect V} for a symmetric axis box V whose
lattice-point count is capped.  The two approximation functionals search for a
small progression whose tau-neighborhood covers as much of a given measure on
the line as possible; values are certified upper bounds with an explicit
witness, exact only at rank zero where the class collapses to {0}.

Both functionals run one search over axis boxes of integer radii and a
padded step vector h, scoring no box that another box within the cap
contains; ``beta_rm`` states the winner as a box Cgap, ``gamma_rs`` as the
identity-generator Gap of the same box under h.  The search draws its step
candidates from one vectorised continued-fraction pass over all atom pairs,
memoised per measure, and builds the coefficient lattice of each box
allocation once per block of step sets.  It scores the block: one
``coeffs @ h`` per candidate, rows sorted, and one binary search of all
points into the sorted atoms gives every atom's two neighbouring points in
every row.  A float sum of the uncovered weights screens candidates; the
exact ``math.fsum`` runs only where that sum, less a rigorous rounding
slack, does not exceed the best value so far.  Witness points come from the
same helper (``coeffs @ h``, sorted), so re-evaluating ``uncovered_mass``
on a reported witness reproduces its value bit for bit.  Coverage is
defined on the line only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._common import (
    CONVOLUTION_MERGE_TOL,
    as_points,
    check_count,
    check_scale,
    dedupe_points,
    float_array,
    json_number,
    json_object,
)
from .distributions import DiscreteDistribution
from .errors import CapacityError, ClassCapError, DomainError, naming_field

GAP_ENUM_BUDGET = 10_000_000
DEFAULT_SEARCH_BUDGET = 20_000
# Rank r and point caps m (beta) and s (gamma) of a search an instance leaves unset.
DEFAULT_CAPS = {"r": 1, "m": 3, "s": 3}


def check_caps(r, **caps) -> None:
    """The one rank and cap rule: r a nonnegative integer, each named cap (m, s)
    a positive one, by the count rule.  Searches, evaluators and instance
    loading all apply it."""
    check_count(r, "rank r")
    for name, cap in caps.items():
        check_count(cap, f"cap {name}", minimum=1)

# Runtime guard on the point count of any single searched progression.
_MAX_SEARCH_POINTS = 20_000
# Points plus atom-mask entries one scoring block of step sets may hold.
_BLOCK_ELEMENTS = 1 << 20
# The longest float row numpy can shape: a rank-zero Gap's generator array.
_MAX_AMBIENT_DIM = np.iinfo(np.intp).max // 8


class Gap:
    """Symmetric progression with real box radii ``dims`` and generators ``gens``.

    ``dims`` is a tuple of positive floats (the L_j), ``gens`` a (rank, d)
    array.  Rank zero is allowed; pass ``ambient_dim`` to fix d in that case.
    """

    __slots__ = ("_dims", "_gens")

    def __init__(self, dims, gens, ambient_dim: int | None = None):
        dims = tuple(float(v) for v in float_array(dims).reshape(-1))
        if any(v <= 0 for v in dims):
            raise DomainError("progression radii must be positive")
        if ambient_dim is not None:
            check_count(ambient_dim, "ambient dimension", 1, _MAX_AMBIENT_DIM)
        if len(dims) == 0:
            gens_arr = np.zeros((0, 1 if ambient_dim is None else ambient_dim))
        else:
            gens_arr = as_points(gens)
            if ambient_dim is not None and gens_arr.shape[1] != ambient_dim:
                raise DomainError("generator dimension mismatch")
        if gens_arr.shape[0] != len(dims):
            raise DomainError(
                f"{len(dims)} radii but {gens_arr.shape[0]} generators"
            )
        gens_arr.flags.writeable = False
        self._dims = dims
        self._gens = gens_arr

    @property
    def rank(self) -> int:
        return len(self._dims)

    @property
    def ambient_dim(self) -> int:
        return self._gens.shape[1]

    @property
    def dims(self) -> tuple:
        return self._dims

    @property
    def gens(self) -> np.ndarray:
        return self._gens

    def box_total(self) -> int:
        return math.prod(2 * int(math.floor(L)) + 1 for L in self._dims)

    def image(self) -> np.ndarray:
        """All distinct progression points, lexicographically sorted.

        Generator relations within 1e-9 count as collisions.  Raises
        CapacityError when the coefficient box exceeds ``GAP_ENUM_BUDGET``.
        """
        if self.box_total() > GAP_ENUM_BUDGET:
            raise CapacityError(
                f"coefficient box {self.box_total()} exceeds budget {GAP_ENUM_BUDGET}"
            )
        pts = _integer_box(self._dims).astype(float) @ self._gens
        pts, _ = dedupe_points(pts, np.ones(len(pts)), CONVOLUTION_MERGE_TOL)
        return pts

    def size(self) -> int:
        return int(self.image().shape[0])

    def is_proper(self) -> bool:
        """Whether all coefficient boxes map to distinct points."""
        return self.size() == self.box_total()

    def to_json_obj(self) -> dict:
        return {
            "L": list(self._dims),
            "g": self._gens.tolist(),
            "dim": self.ambient_dim,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Gap":
        with naming_field("gap"):
            obj = json_object(obj, required=("L", "g"), optional=("dim",))
            dim = json_number(obj["dim"], "dim", int) if "dim" in obj else None
            return cls(obj["L"], obj["g"], dim)

    def __repr__(self):
        return f"Gap(rank={self.rank}, dims={self._dims}, ambient_dim={self.ambient_dim})"


def _integer_box(bounds) -> np.ndarray:
    """Integer points with |nu_j| <= floor(b_j), one int64 row each.

    Rows are in lexicographic order (meshgrid ``ij`` order); no bounds give
    the single empty point.
    """
    radii = np.floor(np.asarray(bounds, dtype=float)).astype(np.int64)
    counts = 2 * radii + 1
    grid = np.indices(counts).reshape(radii.size, math.prod(counts.tolist()))
    return grid.T - radii


class Cgap:
    """Convex-body progression: K = {<nu, h> : nu in Z^r intersect V}.

    The body V is the origin-symmetric axis box {|nu_j| <= box_j}.  ``cap``
    bounds the admissible lattice-point count; enumeration raises
    ClassCapError beyond it.  Rank zero degenerates to K = {0}.
    """

    __slots__ = ("_h", "_box", "_cap")

    def __init__(self, h, box, cap: int):
        with naming_field("V", DomainError):  # the box is the body V of the JSON form
            b = float_array(box).reshape(-1)
            if np.any(b < 0):
                raise DomainError("box bounds must be nonnegative")
        hv = float_array(h).reshape(-1)
        if b.size != hv.size:
            raise DomainError(
                f"step vector has {hv.size} entries but the box lives in R^{b.size}"
            )
        check_caps(hv.size, m=cap)
        hv.flags.writeable = False
        b.flags.writeable = False
        self._h = hv
        self._box = b
        self._cap = int(cap)

    @property
    def h(self) -> np.ndarray:
        return self._h

    @property
    def box(self) -> np.ndarray:
        return self._box

    @property
    def cap(self) -> int:
        return self._cap

    @property
    def rank(self) -> int:
        return self._h.size

    def lattice_points(self) -> np.ndarray:
        """Integer points of Z^r inside the closed box, with 1e-12 of slack."""
        bbox = self._box + 1e-12
        total = math.prod(2 * int(math.floor(b)) + 1 for b in bbox)
        if total > GAP_ENUM_BUDGET:
            raise CapacityError(
                f"bounding-box lattice enumeration {total} exceeds budget {GAP_ENUM_BUDGET}"
            )
        pts = _integer_box(bbox)
        if pts.shape[0] > self._cap:
            raise ClassCapError(
                f"body holds {pts.shape[0]} lattice points, cap is {self._cap}"
            )
        return pts

    def points(self) -> np.ndarray:
        """Progression values as a sorted (s, 1) array, one per lattice point:
        a value two lattice points share is listed twice."""
        return _line_points(self.lattice_points().astype(float), self._h)

    def to_json_obj(self) -> dict:
        return {
            "h": self._h.tolist(),
            "V": {"box": self._box.tolist()},
            "m": self._cap,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Cgap":
        with naming_field("cgap"):
            obj = json_object(obj, required=("h", "V", "m"))
            m = json_number(obj["m"], "m", int)
            with naming_field("V"):
                body = json_object(obj["V"], required=("box",))
            return cls(obj["h"], body["box"], m)

    def __repr__(self):
        return f"Cgap(rank={self.rank}, cap={self._cap}, box={self._box.tolist()})"


@dataclass(frozen=True)
class GapImageProgression:
    """Member of the GAP-image class: K = {<nu, h> : nu in Image(P)}, P integral."""

    gap: Gap
    h: tuple

    def __post_init__(self):
        hv = tuple(float(v) for v in float_array(self.h).reshape(-1))
        if len(hv) != self.gap.ambient_dim:
            raise DomainError("step vector must match the progression's ambient dim")
        object.__setattr__(self, "h", hv)

    @property
    def rank(self) -> int:
        return self.gap.rank

    def size(self) -> int:
        return self.gap.size()

    def points(self) -> np.ndarray:
        """Progression values as a sorted (s, 1) array, one per point of the
        gap's image: a value two image points share is listed twice."""
        return _line_points(self.gap.image(), np.asarray(self.h))

    def to_json_obj(self) -> dict:
        return {"gap": self.gap.to_json_obj(), "h": list(self.h)}


def _line_points(coeffs: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The values of ``coeffs @ h``, one per row, as a sorted (s, 1) array.

    Equal values are not merged: coverage reads only the distance to the
    nearest point.  The searches and the witness classes both go through
    here, so a witness replays to its search value.
    """
    return np.sort(coeffs @ h).reshape(-1, 1)


def _line_values(points, what: str) -> np.ndarray:
    pts = as_points(points)
    if pts.shape[1] != 1:
        raise DomainError(f"coverage is defined on the line; {what} lie in R^{pts.shape[1]}")
    return pts[:, 0]


def uncovered_mass(w: DiscreteDistribution, k_points, tau: float) -> float:
    """Mass of ``w`` strictly outside the closed tau-neighborhood of K.

    ``w`` and K lie on the line.  The searches find the same distances and
    take the same fsum, so witness values reproduce exactly.
    """
    check_scale(tau, "tau")
    x = _line_values(w.atoms, "atoms")
    ks = np.sort(_line_values(k_points, "progression points"))
    # fsum keeps the value correctly rounded, so subset relations between
    # masses survive in floating point (matching tail_mass).
    return math.fsum(w.weights[_far_atoms(ks[None, :], x, tau)[0]].tolist())


@dataclass(frozen=True)
class ApproxResult:
    """Outcome of a coverage search: a certified upper bound with its witness.

    ``exact`` is True only at rank zero, where the class has a single member.
    """

    value: float
    witness: object
    exact: bool
    evaluations: int


def _candidate_steps(w: DiscreteDistribution, cap: int = 96) -> np.ndarray:
    """Deterministic pool of step candidates built from the atom values alone.

    Uses |atoms|, pairwise differences, and the continued-fraction
    convergents p/q (depth 12, numerators and denominators up to 1e6) of
    pairwise ratios zj/zi, contributing zj/p and zi/q, so near-commensurable
    atoms suggest a common step.  All pairs advance through the expansion
    together.  The pool depends only on the distinct nonzero |atoms|, never
    on (tau, rank, cap): searches over different parameters therefore range
    over nested candidate families.  It is memoised on those values, so the
    searches on one weight vector's measures (a report's four, a
    ``gapfit``'s two) build it once.
    """
    zn = np.max(np.abs(w.atoms), axis=1)
    return _pool_of(np.unique(zn[zn > 0]).tobytes(), cap)


@functools.lru_cache(maxsize=8)
def _pool_of(z_bytes: bytes, cap: int) -> np.ndarray:
    zs = np.frombuffer(z_bytes)
    ii, jj = np.triu_indices(len(zs), 1)
    zi, zj = zs[ii], zs[jj]
    diff = zj - zi
    parts = [zs, diff[diff > 1e-12]]
    # Convergents p/q of zj/zi; a pair's expansion stops at the first p or q
    # past 1e6.  A remainder below 1e-12 (zero included) would make the next
    # partial quotient, and so q, exceed 1e12, so the cap also ends every
    # expansion whose remainder has vanished.
    x = zj / zi
    a = np.floor(x)
    h0, k0, h1, k1 = np.ones_like(x), np.zeros_like(x), a, np.ones_like(x)
    frac = x - a
    steps = [zj / h1, zi / k1]
    for _ in range(11):
        with np.errstate(divide="ignore", invalid="ignore"):
            x = 1.0 / frac
            a = np.floor(x)
            hn, kn = a * h1 + h0, a * k1 + k0
            frac = x - a
        go = (kn <= 1_000_000) & (hn <= 1_000_000)
        zi, zj, frac, h0, k0, h1, k1 = (v[go] for v in (zi, zj, frac, h1, k1, hn, kn))
        steps += [zj / h1, zi / k1]
    parts += [v[v > 1e-12] for v in steps]
    vals = np.unique(np.concatenate(parts))
    # drop near-duplicates (relative 1e-12)
    if len(vals) > 1:
        keep = np.concatenate([[True], np.diff(vals) > 1e-12 * np.maximum(1.0, vals[1:])])
        vals = vals[keep]
    pool = _stride(vals, cap)
    pool.flags.writeable = False  # shared by every search on the measure
    return pool


def _stride(pool: np.ndarray, cap: int) -> np.ndarray:
    if len(pool) <= cap:
        return pool
    idx = np.unique(np.round(np.linspace(0, len(pool) - 1, cap)).astype(int))
    return pool[idx]


def _box_allocations(rank: int, cap_count: int):
    """Box radii with prod(2 b_i + 1) <= cap_count that no other such box contains.

    The first rank - 1 radii are nondecreasing (lexicographic order) and the
    last is the largest that fits, which never grows with a first radius: a
    box lies in another exactly when raising a first radius by one keeps the last.
    """
    def last(p):  # the largest last radius beside first radii of p points
        return (cap_count // p - 1) // 2

    heads = [((), 1)]  # first radii and their point count p
    for _ in range(rank - 1):
        heads = [
            (h + (b,), p * (2 * b + 1))
            for h, p in heads
            for b in range(max(h, default=0), last(p) + 1)
        ]
    return [
        head + (last(p),)
        for head, p in heads
        if all(last(p // (2 * c + 1) * (2 * c + 3)) != last(p) for c in head)
    ]


def _step_vector(steps, rank: int) -> np.ndarray:
    """Steps padded with ones to ``rank`` entries (padded axes carry nu_j = 0)."""
    h = np.ones(rank)
    h[: len(steps)] = steps
    return h


def _far_atoms(pts: np.ndarray, x: np.ndarray, tau: float) -> np.ndarray:
    """Mask (B, n): atom ``x[i]`` lies farther than tau from every point of row b.

    ``pts`` holds one candidate's sorted points per row and ``x`` the sorted
    atoms.  One binary search of every point into the atoms, a per-row
    ``bincount`` and a ``cumsum`` give #{k < x[i]}, so only the two
    neighbours k[idx - 1] and k[idx] of x[i] are compared: rounding of x - k
    is monotone in k, so the nearer of them is nearest of all.  Rows with no
    points leave every atom far.
    """
    rows, size = pts.shape
    n = x.size
    if size == 0:
        return np.ones((rows, n), dtype=bool)
    slot = np.searchsorted(x, pts, side="right")
    slot += (n + 1) * np.arange(rows)[:, None]
    below = np.bincount(slot.ravel(), minlength=rows * (n + 1)).reshape(rows, n + 1)
    idx = np.cumsum(below[:, :n], axis=1)
    left = np.take_along_axis(pts, np.maximum(idx - 1, 0), axis=1)
    right = np.take_along_axis(pts, np.minimum(idx, size - 1), axis=1)
    return np.minimum(np.abs(x - left), np.abs(x - right)) > tau


def _block_far(coeffs: np.ndarray, hs: list, x: np.ndarray, tau: float) -> np.ndarray:
    """``_far_atoms`` for the points ``_line_points(coeffs, h)`` of each h in
    ``hs``: each row is its own ``coeffs @ h``, sorted, so the points are the
    witness points bit for bit."""
    vals = np.empty((len(hs), len(coeffs)))
    for i, h in enumerate(hs):
        vals[i] = coeffs @ h
    return _far_atoms(np.sort(vals, axis=1), x, tau)


def _sum_slack(weights: np.ndarray) -> float:
    """Bound on |float sum - fsum| for any subset of ``weights``, in any order.

    A float sum of k <= n nonnegative terms lies within (k-1)u/(1-(k-1)u)
    times their sum of the exact value, and fsum within u of it (u = 2^-53);
    (n + 2) * 2^-52 * fsum(weights) covers both, and its own rounding.
    """
    return (weights.size + 2) * 2.0**-52 * math.fsum(weights.tolist())


def _scored_step_sets(step_sets, allocs, rank, x, weights, tau):
    """Yield ``(steps, [(radii, mass, far), ...])`` per step set, in search order.

    ``far`` masks the atoms the candidate leaves uncovered and ``mass`` is
    ``far @ weights``, a float sum within rounding of the exact one.  Step
    sets are scored a block at a time, each allocation's lattice built once
    per block; the block holds at most ``_BLOCK_ELEMENTS`` points and atom
    masks (one step set when a single one needs more).
    """
    per_set = sum(math.prod(2 * b + 1 for b in radii) + x.size for radii in allocs)
    block = max(1, _BLOCK_ELEMENTS // per_set)
    for start in range(0, len(step_sets), block):
        sets = step_sets[start : start + block]
        hs = [_step_vector(steps, rank) for steps in sets]
        fars = []
        for radii in allocs:
            coeffs = _integer_box(radii + (0,) * (rank - len(radii))).astype(float)
            fars.append(_block_far(coeffs, hs, x, tau))
        masses = np.stack([far @ weights for far in fars], axis=1).tolist()
        for b, steps in enumerate(sets):
            yield steps, [
                (radii, masses[b][a], fars[a][b]) for a, radii in enumerate(allocs)
            ]


def _box_cgap(steps, radii, r: int, m: int) -> Cgap:
    """Box witness: ``radii`` on the first axes, 0.4 (only nu_j = 0) on the rest."""
    bounds = np.full(r, 0.4)
    bounds[: len(radii)] = radii
    return Cgap(_step_vector(steps, r), bounds, m)


def _coverage_search(w: DiscreteDistribution, tau: float, r: int, cap: int) -> ApproxResult:
    """Shared search core for both progression classes; the winner is a box Cgap.

    A candidate is a step set and integer box radii with at most ``cap``
    lattice points that no other such box contains; its points are the box's
    lattice rows (radii padded with zeros to r) times the step vector padded
    with ones.  Candidates grow with rank and (pointwise) tau, and every box
    lies in a box at any larger cap, so unless the budget binds, values are
    antitone in all three.  A cap above the point guard
    ``_MAX_SEARCH_POINTS`` searches the boxes of the guard.  Budget exhaustion
    returns the best candidate so far, and rank zero the single member
    K = {0}, as exact.  Candidates are visited in ascending (rank, steps,
    radii) order and only a strictly smaller mass replaces the best, so the
    first minimiser wins; the witness is built only for the winner.
    """
    best_v = uncovered_mass(w, np.zeros((1, 1)), tau)
    if r == 0:
        return ApproxResult(best_v, _box_cgap((), (), 0, cap), True, 1)
    pool = _candidate_steps(w)
    best = ((), ())
    # the atoms of a DiscreteDistribution are sorted (lexsorted at construction)
    x, weights = w.atoms[:, 0], w.weights
    slack = _sum_slack(weights)
    evals = 1
    for rho in range(1, min(r, 3) + 1):
        if best_v == 0.0 or evals >= DEFAULT_SEARCH_BUDGET:
            break
        sub = _stride(pool, (len(pool), 24, 10)[rho - 1])
        step_sets = list(itertools.combinations(sub, rho))
        allocs = _box_allocations(rho, min(cap, _MAX_SEARCH_POINTS))
        # every step set evaluates every allocation: score no set past the budget
        step_sets = step_sets[: -(-(DEFAULT_SEARCH_BUDGET - evals) // len(allocs))]
        for steps, candidates in _scored_step_sets(step_sets, allocs, r, x, weights, tau):
            for radii, mass, far in candidates:
                if evals >= DEFAULT_SEARCH_BUDGET:
                    break
                evals += 1
                # only a candidate whose mass may lie below best_v gets its fsum
                if mass - slack <= best_v:
                    val = math.fsum(weights[far].tolist())
                    if val < best_v:
                        best_v, best = val, (steps, radii)
            if best_v == 0.0 or evals >= DEFAULT_SEARCH_BUDGET:
                break
    return ApproxResult(best_v, _box_cgap(*best, r, cap), False, evals)


def _check_search_args(w: DiscreteDistribution, tau: float, r: int, **cap):
    if w.dim != 1:
        raise DomainError("coverage search operates on measures on the line")
    check_scale(tau, "tau")
    check_caps(r, **cap)


def beta_rm(
    w: DiscreteDistribution,
    tau: float,
    r: int,
    m: int,
) -> ApproxResult:
    """Least uncovered mass over searched convex-body progressions of rank <= r.

    The witness is a Cgap with at most ``m`` lattice points; re-evaluating
    ``uncovered_mass`` on its points reproduces ``value`` exactly.  Rank zero
    is exact (the class contains only K = {0}).
    """
    _check_search_args(w, tau, r, m=m)
    return _coverage_search(w, tau, int(r), int(m))


def gamma_rs(
    w: DiscreteDistribution,
    tau: float,
    r: int,
    s: int,
) -> ApproxResult:
    """Least uncovered mass over searched GAP-image progressions of rank <= r.

    The witness applies a real step vector to an integral progression of size
    at most ``s`` (axis boxes with identity generators, hence proper).  The
    searched family is the one ``beta_rm`` searches: a box's image under h is
    the box Cgap's point set, so at equal caps the two values agree.  Values
    are upper bounds; rank zero is exact, its witness the rank-zero gap in
    dimension 1 (the point 0) with the one step 1.
    """
    _check_search_args(w, tau, r, s=s)
    res = _coverage_search(w, tau, int(r), int(s))
    dims = np.maximum(res.witness.box, 0.4)
    h = _step_vector(res.witness.h, max(int(r), 1))
    wit = GapImageProgression(Gap(dims, np.eye(r)), tuple(h))
    return ApproxResult(res.value, wit, res.exact, res.evaluations)


__all__ = [
    "ApproxResult",
    "Cgap",
    "DEFAULT_SEARCH_BUDGET",
    "GAP_ENUM_BUDGET",
    "Gap",
    "GapImageProgression",
    "beta_rm",
    "gamma_rs",
    "uncovered_mass",
]
