"""Concentration functions Q(F, tau) = sup_x F{x + tau*B}, B the ball of radius 1/2.

On the line the window is a closed interval of length tau; in higher dimension
a closed Euclidean ball of radius tau/2.  Three routes are provided: exact
computation for finitely supported laws (sequential convolution plus a sweep
over atom-anchored windows on the line, and over one complete family of ball
centres for every d >= 2), seeded Monte Carlo, and the Esseen-type upper
bound c * tau^d * integral of |char fn| over the dual ball.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._common import (
    CONVOLUTION_MERGE_TOL,
    GEOM_TOL,
    WINDOW_TOL,
    as_points,
    check_count,
    check_scale,
    distinct_rows,
    float_array,
    lex_sorted,
    make_rng,
    merge_sorted,
)
from .distributions import (
    CompoundPoisson,
    DiscreteDistribution,
    atom_indices,
    cp_sample_rng,
)
from .errors import CapacityError, DomainError, NumericsError, naming_field

DEFAULT_EXACT_BUDGET = 20_000_000
_MC_MIN_SAMPLES = 1000
_MC_CHUNK = 65536
# Ball hits held at once while summing multiplicities in mc_q.
_BALL_HIT_BUDGET = 1 << 20
# Largest pair or centre-point table decided in one numpy array; larger
# inputs are searched by kd-tree, and only they import scipy.
_DENSE_ENTRIES = 1 << 17
# Anchors of one block of the 1-d window sweep, bounded before it is swept.
_SWEEP_BLOCK = 1024
# Centres of a cell that _max_ball_mass counts one by one rather than split.
_CELL_CENTERS = 4
# Largest coordinate or ball radius of the d >= 2 routes: squared distances
# between points within it stay finite in R^3.
_MAX_BALL_SCALE = 1e150


class WeightVector:
    """Coefficient rows a_1, ..., a_n in R^d; at least one row must be nonzero."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        r = as_points(rows)
        if r.shape[0] == 0:
            raise DomainError("weight vector needs at least one row")
        if not np.any(r):
            raise DomainError("weight vector must have a nonzero row")
        r.flags.writeable = False
        self._rows = r

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    @property
    def n(self) -> int:
        return self._rows.shape[0]

    @property
    def dim(self) -> int:
        return self._rows.shape[1]

    def phases(self, ts) -> tuple:
        """The grid ``ts`` as (m, d) points and their phases <t, a_k>, (m, n).

        A flat grid is m points on the line, so a single t in d >= 2 is
        passed as a (1, d) array.
        """
        grid = as_points(ts, self.dim)
        # a phase past the float range is refused by the array rule, not a warning
        with np.errstate(over="ignore"), naming_field("phases <t, a_k>", DomainError):
            return grid, float_array(grid @ self._rows.T)

    def spectral_norm(self) -> float:
        return float(np.linalg.norm(self._rows, 2))

    def gram(self):
        """Gram matrix sum_k a_k a_k^T and its determinant (clamped at 0)."""
        mat = self._rows.T @ self._rows
        det = float(np.linalg.det(mat))
        if det < 0.0:
            # the matrix is positive semidefinite; a negative det is roundoff
            det = 0.0
        return mat, det

    def coordinate(self, j: int) -> "WeightVector":
        """The j-th coordinate column as a one-dimensional weight vector."""
        return WeightVector(self._rows[:, check_count(j, "coordinate", maximum=self.dim - 1)])

    @classmethod
    def from_json_obj(cls, obj) -> "WeightVector":
        with naming_field("weights"):
            return cls(obj)

    def __repr__(self):
        return f"WeightVector(n={self.n}, dim={self.dim})"


_METHODS = ("exact", "monte_carlo", "esseen_upper")


@dataclass(frozen=True)
class ConcentrationEstimate:
    """A concentration value at radius ``tau`` with its provenance.

    ``exact`` and ``monte_carlo`` values are probabilities in [0, 1];
    ``esseen_upper`` is a bound shape and may exceed 1 (vacuous bound).
    """

    value: float
    method: str
    stderr: float
    tau: float

    def __post_init__(self):
        if self.method not in _METHODS:
            raise DomainError(f"method must be one of {_METHODS}")
        check_scale(self.value, "value", finite=True)
        check_scale(self.stderr, "stderr")
        check_scale(self.tau, "tau")
        if self.method in ("exact", "monte_carlo"):
            if self.value > 1.0 + 1e-9:
                raise DomainError("probability estimate exceeds 1")
            object.__setattr__(self, "value", min(self.value, 1.0))

    def to_json_obj(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "stderr": self.stderr,
            "tau": self.tau,
        }


def _check_summand(x: DiscreteDistribution) -> None:
    """The step law rule of every weighted sum: a probability distribution on the line."""
    if x.dim != 1:
        raise DomainError("summand distribution must live on the line")
    if not x.normalized:
        raise DomainError("summand must be a probability distribution")


def weighted_sum_distribution(
    x: DiscreteDistribution, a: WeightVector, budget: int = DEFAULT_EXACT_BUDGET
) -> DiscreteDistribution:
    """Exact law of sum_k X_k a_k by sequential convolution with atom merging.

    Atoms closer than 1e-9 in max norm merge after every step.  Raises
    CapacityError when an intermediate support would exceed ``budget``.

    Each step holds one copy of its points and weights: the previous step's
    arrays go as soon as the new ones are formed, a step whose weights are
    all equal sorts its points on the line in place (any permutation leaves
    its weights as they are), and any other step rebinds both arrays
    through one stable lexicographic permutation.  The law adopts the
    merged arrays uncopied.  Atoms and weights are those of the stable
    lexicographic sort and merge of ``dedupe_points``, bit for bit.
    """
    _check_summand(x)
    check_count(budget, "budget")
    xv = x.atoms[:, 0]
    xw = x.weights
    pts = np.zeros((1, a.dim))
    w = np.ones(1)
    for k in range(a.n):
        if pts.shape[0] * xv.size > budget:
            raise CapacityError(
                f"convolution support would exceed budget {budget} at step {k}"
            )
        # an atom past the float range is refused by the law's array rule
        with np.errstate(over="ignore", invalid="ignore"):
            shift = np.multiply.outer(xv, a.rows[k])  # (s, d)
            # each rebinding frees the previous step's array
            pts = (shift[:, None, :] + pts[None, :, :]).reshape(-1, a.dim)
        w = (xw[:, None] * w[None, :]).reshape(-1)
        equal = w.min() == w.max()
        if equal and a.dim == 1:
            pts[:, 0].sort(kind="stable")
        else:
            order = np.lexsort(pts.T[::-1])
            pts = pts.take(order, axis=0)
            if not equal:
                w = w.take(order)
            del order  # as big as the points: free it before the merge
        with np.errstate(invalid="ignore"):
            pts, w = merge_sorted(pts, w, CONVOLUTION_MERGE_TOL)
    return DiscreteDistribution._adopt(pts, w)


def _max_window_mass_1d(z: np.ndarray, w: np.ndarray, tau: float) -> float:
    """Largest mass of a closed length-``tau`` window, left edge at an atom.

    The sorted anchors are taken in blocks of ``_SWEEP_BLOCK``.  Every window
    of a block ends at or before the window end of its last anchor with the
    slack of its largest |z| (rounding is monotone), so the mass up to there
    less the mass before the block bounds each of them: cumulative sums of
    nonnegative weights rise, and float subtraction is monotone.  Blocks are
    swept in falling order of their bounds until no bound beats the best
    mass, which is then the full sweep's maximum, bit for bit.
    """
    z, w = lex_sorted(z[:, None], w)
    z = z[:, 0]
    n = len(z)
    cw = np.empty(n + 1)
    cw[0] = 0.0
    np.cumsum(w, dtype=float, out=cw[1:])
    starts = np.arange(0, n, _SWEEP_BLOCK)
    ends = np.minimum(starts + _SWEEP_BLOCK, n)
    widest = np.maximum(np.abs(z[starts]), np.abs(z[ends - 1]))
    reach = z[ends - 1] + tau + WINDOW_TOL * np.maximum(1.0, widest)
    bound = cw[np.searchsorted(z, reach, side="right")] - cw[starts]
    best = -math.inf
    for b in np.argsort(-bound):
        if not bound[b] > best:
            break
        lo, hi = starts[b], ends[b]
        zb = z[lo:hi]
        reach_b = zb + tau + WINDOW_TOL * np.maximum(1.0, np.abs(zb))
        mass = cw[np.searchsorted(z, reach_b, side="right")] - cw[lo:hi]
        best = max(best, float(np.max(mass)))
    return min(best, float(cw[-1]))


def _ball_tol(pts, rho):
    """Slack added to the radius of every closed ball, relative to the scale;
    DomainError past ``_MAX_BALL_SCALE``, before any distance is squared."""
    scale = max(1.0, float(np.max(np.abs(pts))), rho)
    if scale > _MAX_BALL_SCALE:
        raise DomainError(
            f"in dimension >= 2, coordinates and tau/2 must not exceed {_MAX_BALL_SCALE:g}"
        )
    return GEOM_TOL * scale


def _near_pairs(pts, reach, budget=math.inf):
    """Index pairs i < j, in lexicographic order, at distance at most ``reach``;
    CapacityError past ``budget`` pairs within a hair of it.  Up to
    ``_DENSE_ENTRIES`` pairs are all measured in one table.  Past that a
    kd-tree counts, then lists, only the pairs within the hair, so memory
    follows the near pairs, not the support squared.  Either way a pair is
    kept by one test: its squared differences, summed coordinate by
    coordinate, against ``reach**2``."""
    k = len(pts)
    # the tree rounds its bounding distances its own way: a hair wider, its
    # list holds every pair the test keeps, and both routes charge one count
    wide = reach * (1 + 1e-9)

    def charge(count):
        if count > budget:
            raise CapacityError(f"near pairs {count} exceed budget {budget} (support {k})")

    def dist2(ii, jj):
        # gathered per coordinate and summed term by term: the bits of a row
        # sum, about 4x faster than gathering whole rows (as _fit_cliques does)
        return sum((x.take(ii) - x.take(jj)) ** 2 for x in pts.T)

    if k * (k - 1) // 2 <= _DENSE_ENTRIES:
        ii, jj = np.triu_indices(k, 1)  # already in lexicographic order
        d2 = dist2(ii, jj)
        charge(int(np.count_nonzero(d2 <= wide**2)))
    else:
        from scipy.spatial import cKDTree

        tree = cKDTree(pts)
        charge((int(tree.count_neighbors(tree, wide)) - k) // 2)
        pairs = tree.query_pairs(wide, output_type="ndarray")
        # the key i*k + j of a pair i < j orders the pairs lexicographically
        ii, jj = np.divmod(np.sort(pairs[:, 0] * k + pairs[:, 1]), k)
        d2 = dist2(ii, jj)
    near = d2 <= reach**2
    return ii[near], jj[near]


def _ball_masses(tree, w, centers, radius):
    """Mass of the closed ball of ``radius`` (a scalar, or one per centre)
    around each centre; ``w`` is None for unit weights.  Every sum runs over
    the hit indices in increasing order."""
    if w is None:
        # unit weights: the kd-tree counts in C, no hit lists needed
        return tree.query_ball_point(centers, radius, return_length=True)
    radius = np.broadcast_to(radius, len(centers))
    mass = np.empty(len(centers))
    # each centre hits at most tree.n points: bound the hits held at once
    step = max(1, _BALL_HIT_BUDGET // tree.n)
    for i in range(0, len(centers), step):
        hits = tree.query_ball_point(centers[i : i + step], radius[i : i + step])
        lengths = np.fromiter(map(len, hits), dtype=np.intp, count=len(hits))
        flat = np.fromiter(
            itertools.chain.from_iterable(hits), dtype=np.intp, count=int(lengths.sum())
        )
        owner = np.repeat(np.arange(len(hits)), lengths)
        mass[i : i + step] = np.bincount(owner, weights=w[flat], minlength=len(hits))
    return mass


def _max_ball_mass(pts, w, centers, radius):
    """Largest ``w``-mass of a closed ball of ``radius`` around a candidate centre.

    Every ball sum runs over the hit indices in increasing order.  Inputs of
    at most ``_DENSE_ENTRIES`` centre-point pairs are decided in one table;
    larger ones are searched by kd-tree, one level of cells at a time.  The
    centres are grouped into grid cells of side ``2*radius``, and a cell is
    bounded by the mass of one ball around the midpoint of its centres'
    bounding box, enlarged by their largest distance from it plus a
    rounding slack.  That ball holds every hit of every centre
    of the cell, and the weights are nonnegative, so its sum (same helper,
    same increasing order; floating-point addition is monotone) is at least
    each centre's mass.  A leaf is a cell of at most ``_CELL_CENTERS``
    centres, or one that its midpoint does not split.  A dive from the cell
    with the largest bound, splitting at the midpoint and following the child
    with the largest bound, counts a first leaf and so sets the best mass.
    Then each level keeps the cells whose bound beats the best mass, counts
    the centres of all its leaves in one call, and splits every other cell at
    its midpoint into children of half the side, all bounded in one call.
    The search stops when no cell is left, so every skipped centre has a mass
    at most the maximum, which is returned bit for bit.  On 100k distinct
    samples a search makes 10-20 calls and counts about 2% of the centres in
    2-D and 3-5% in 3-D.
    """
    if len(centers) * len(pts) <= _DENSE_ENTRIES:
        # the kd-tree's test: squared differences summed in coordinate order
        inside = sum((c[:, None] - x) ** 2 for c, x in zip(centers.T, pts.T)) <= radius**2
        # a running sum along the points adds each ball's hits in index order
        return float(np.max(np.where(inside, w, 0.0).cumsum(axis=1)[:, -1]))
    from scipy.spatial import cKDTree

    tree = cKDTree(pts, leafsize=64)
    w = None if np.all(w == 1) else w
    # covers the rounding of midpoints, reaches and the tree's distances
    scale = max(float(np.max(np.abs(pts))), float(np.max(np.abs(centers))))
    slack = 1e-9 * max(1.0, scale, radius)
    bits = 1 << np.arange(centers.shape[1])

    def cells(idx, keys):
        """Group the centres ``idx`` into cells by the rows of ``keys``: the
        centres in cell order, each one's cell, and each cell's midpoint and bound."""
        order = np.lexsort(keys.T[::-1])
        idx, keys = idx[order], keys[order]
        new = np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)]
        starts, cell, c = np.flatnonzero(new), np.cumsum(new) - 1, centers[idx]
        mid = (np.minimum.reduceat(c, starts) + np.maximum.reduceat(c, starts)) / 2.0
        reach = np.maximum.reduceat(np.sqrt(((c - mid[cell]) ** 2).sum(axis=1)), starts)
        return idx, cell, mid, _ball_masses(tree, w, mid, radius + reach + slack)

    def descend(idx, cell, mid, bound, best, dive):
        """Count or split the live cells a level at a time until none is left.
        A live cell's bound beats ``best``; in a dive only the largest is live."""
        while True:
            live = bound > best
            if dive:
                live = np.arange(len(bound)) == np.argmax(bound)
            keep = live[cell]
            if not keep.any():
                return best
            idx, cell = idx[keep], cell[keep]
            # which side of the cell's midpoint a centre lies on, per axis
            code = (centers[idx] > mid[cell]) @ bits
            starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
            size = np.diff(starts, append=len(idx))
            leaf = (size <= _CELL_CENTERS) | (
                np.minimum.reduceat(code, starts) == np.maximum.reduceat(code, starts)
            )
            counted = np.repeat(leaf, size)
            if counted.any():
                mass = _ball_masses(tree, w, centers[idx[counted]], radius)
                best = max(best, float(np.max(mass)))
            split = np.repeat(~leaf & (bound[cell[starts]] > best), size)
            if not split.any():
                return best
            idx, cell, mid, bound = cells(
                idx[split], np.column_stack([cell[split], code[split]])
            )

    top = cells(
        np.arange(len(centers)), np.floor((centers - centers.min(axis=0)) / (2 * radius))
    )
    return descend(*top, descend(*top, 0.0, True), False)


def _det(mat):
    """Determinants of a stack of small square matrices, ``mat[i, j]`` holding
    entry (i, j) of each, by the Leibniz formula, elementwise."""
    total = 0.0
    for perm in itertools.permutations(range(len(mat))):
        # a permutation's sign is the parity of its inversions
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        total = total + sign * math.prod(mat[i, p] for i, p in enumerate(perm))
    return total


def _fit_cliques(pts, cliques, rho, tol):
    """The centres of one level of cliques, fitted in one batched step: the
    circumcentre of a clique of fewer than d atoms, if within ``rho + tol`` of
    them, and the two points at distance ``rho`` from a d-clique's atoms on
    the normal through its circumcentre.  Affinely dependent cliques (zero
    Gram determinant) give none.  The last axis of every array runs over the
    cliques, so each step runs over long contiguous rows."""
    q = pts.T.take(cliques.T, axis=1)  # coordinate, atom, clique
    edges = (q[:, 1:] - q[:, :1]).transpose(1, 0, 2)  # edge, coordinate, clique
    m, d = edges.shape[:2]
    gram = (edges[:, None] * edges[None, :]).sum(axis=2)
    det = _det(gram)
    half = 0.5 * np.einsum("iin->in", gram)
    # a zero determinant gives inf or nan below; the mask drops those cliques
    with np.errstate(all="ignore"):
        # the circumcentre is the first atom plus y @ edges, gram @ y = half
        # the squared edges (Cramer's rule); its squared radius is y @ half
        col = np.arange(m)[:, None]
        y = [_det(np.where(col == i, half[:, None], gram)) / det for i in range(m)]
        center = q[:, 0] + sum(y[i] * edges[i] for i in range(m))
        r2 = sum(y[i] * half[i] for i in range(m))
        fit = (det > 0) & (r2 <= (rho + tol) ** 2)
        if m == d - 1:
            # the cofactors of the d-1 edges make a normal of length sqrt(det)
            normal = np.stack([(-1) ** j * _det(np.delete(edges, j, 1)) for j in range(d)])
            lift = np.sqrt(np.maximum(rho * rho - r2, 0.0) / det) * normal
            center, fit = np.hstack([center + lift, center - lift]), np.tile(fit, 2)
    return np.compress(fit, center, axis=1).T


def _sphere_centers(pts, rho, tol, budget):
    """The atoms, and the centres ``_fit_cliques`` fits to the cliques of at
    most d atoms of the near-pair graph: a complete family for every d >= 2.

    Completeness: take a centre of a radius-``rho`` ball that holds an
    optimal atom set, and T the atoms at distance exactly ``rho`` from it.
    Move the centre along the sphere of points at distance ``rho`` from T
    (all of space while T is empty) until a new atom of the set becomes
    tight.  That atom lies outside aff T, so the rank of T grows.  The walk
    ends at a point tight on d affinely independent atoms, unless the whole
    sphere keeps the set in the ball; then, by convexity, so does its
    centre, the circumcentre of T.  The atoms of T lie pairwise within the
    diameter, so they form a clique.  Every near pair, and every candidate a
    clique of fewer than d atoms is grown from, is charged against
    ``budget`` before it is built."""
    if rho <= 0:
        return pts
    k, d = pts.shape
    # the Gram determinants of d - 1 edges up to 2 * rho long grow as
    # rho^(2d - 2); past this radius they overflow and drop centres unseen
    limit = _MAX_BALL_SCALE ** (1.0 / (d - 1))
    if rho > limit:
        raise DomainError(f"in dimension {d}, an exact ball sweep needs tau/2 at most {limit:g}")
    ii, jj = _near_pairs(pts, 2 * rho + 2 * tol, budget)
    # CSR rows: the later neighbours of i are jj[first[i]:first[i + 1]], ascending
    first = np.searchsorted(ii, np.arange(k + 1))
    keys = ii * k + jj  # ascending: the near pair (i, j), i < j, is key i*k + j
    centers = [pts]
    cliques = np.column_stack([ii, jj])
    spent = len(cliques)
    while len(cliques):
        # charge the next level's candidates, each clique with each later
        # neighbour of its last vertex, before any is built
        start = first[cliques[:, -1]]
        size = first[cliques[:, -1] + 1] - start
        spent += int(size.sum()) if cliques.shape[1] < d else 0
        if spent > budget:
            raise CapacityError(
                f"clique candidates {spent} exceed budget {budget} (support {k})"
            )
        centers.append(_fit_cliques(pts, cliques, rho, tol))
        if cliques.shape[1] == d:
            break
        # keep the candidates, in increasing index order, near every other member
        rows = np.repeat(np.arange(len(cliques)), size)
        # a candidate's place in jj: its row's start plus its rank in the row
        ext = jj[np.arange(len(rows)) + np.repeat(start - np.cumsum(size) + size, size)]
        want = cliques[rows, :-1] * k + ext[:, None]
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        keep = np.all(keys[at] == want, axis=1)
        cliques = np.column_stack([cliques[rows[keep]], ext[keep]])
    return np.vstack(centers)


def exact_q_of_distribution(
    f: DiscreteDistribution, tau: float, budget: int = DEFAULT_EXACT_BUDGET
) -> float:
    """Exact Q(F, tau) for a finitely supported probability distribution: the
    largest mass of an atom-anchored window on the line and, in d >= 2, of a
    closed ball around a centre of ``_sphere_centers``, whose near pairs and
    clique candidates ``budget`` caps (CapacityError past it)."""
    check_scale(tau, "tau")
    check_count(budget, "budget")
    if not f.normalized:
        raise DomainError("Q is defined for probability distributions")
    if f.dim == 1:
        return min(_max_window_mass_1d(f.atoms[:, 0], f.weights, tau), 1.0)
    rho = tau / 2.0
    tol = _ball_tol(f.atoms, rho)
    centers = _sphere_centers(f.atoms, rho, tol, budget)
    return min(_max_ball_mass(f.atoms, f.weights, centers, rho + tol), 1.0)


def exact_q(
    x: DiscreteDistribution,
    a: WeightVector,
    tau: float,
    budget: int = DEFAULT_EXACT_BUDGET,
) -> ConcentrationEstimate:
    """Exact concentration of the weighted sum sum_k X_k a_k."""
    dist = weighted_sum_distribution(x, a, budget)
    value = exact_q_of_distribution(dist, tau, budget)
    return ConcentrationEstimate(value, "exact", 0.0, tau)


@dataclass(frozen=True)
class WeightedSum:
    """Sampler for sum_k X_k a_k with i.i.d. scalar X_k."""

    x: DiscreteDistribution
    a: WeightVector

    def __post_init__(self):
        _check_summand(self.x)

    def sample(self, n_samples: int, rng: np.random.Generator) -> np.ndarray:
        xv = self.x.atoms[:, 0]
        out = np.empty((n_samples, self.a.dim))
        for i in range(0, n_samples, _MC_CHUNK):
            m = min(_MC_CHUNK, n_samples - i)
            idx = atom_indices(self.x, rng.random((m, self.a.n)))
            out[i : i + m] = xv[idx] @ self.a.rows
        return out


def _sample_from(sampler, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(sampler, CompoundPoisson):
        return cp_sample_rng(sampler, n_samples, rng)
    if isinstance(sampler, WeightedSum):
        return sampler.sample(n_samples, rng)
    raise DomainError("sampler must be a WeightedSum or a CompoundPoisson")


def mc_q(
    sampler, tau: float, n_samples: int, seed
) -> ConcentrationEstimate:
    """Monte Carlo estimate of Q(F, tau) from ``n_samples`` seeded draws.

    Windows and balls are counted over the distinct samples weighted by their
    multiplicities, which gives the same counts as the raw samples: lattice
    laws such as compound-Poisson smoothing laws repeat most draws.  On the
    line the count is the sweep ``_max_window_mass_1d`` over sample-anchored
    windows, exact for the empirical measure.  In dimension >= 2 candidate
    centers are the distinct samples plus the distinct midpoints of the pairs
    within ``tau`` of the distinct rows of a seeded 256-sample subsample, which
    makes the estimate a documented lower-bound heuristic for the empirical
    optimum.
    """
    check_scale(tau, "tau")
    if check_count(n_samples, "n_samples") < _MC_MIN_SAMPLES:
        raise DomainError(f"Monte Carlo needs at least {_MC_MIN_SAMPLES} samples")
    rng = make_rng(seed)
    # a sample past the float range is refused by the array rule, not a warning
    with np.errstate(over="ignore", invalid="ignore"), naming_field("samples", DomainError):
        samples = float_array(_sample_from(sampler, n_samples, rng))
    dim = samples.shape[1]
    if dim > 1:
        # counting draws nothing, so taking the subsample first keeps the stream
        sub = samples[rng.choice(n_samples, size=min(n_samples, 256), replace=False)]
        # a pair of equal rows has its row as midpoint, already a centre
        sub, _ = distinct_rows(sub)
    rows, counts = distinct_rows(samples)
    del samples  # free the raw draws before the kd-tree is built
    if dim == 1:
        count = int(_max_window_mass_1d(rows[:, 0], counts, tau))
    else:
        rho = tau / 2.0
        radius = rho + _ball_tol(rows, rho)
        ii, jj = _near_pairs(sub, 2 * rho)
        mids, _ = distinct_rows((sub[ii] + sub[jj]) / 2.0)
        count = int(_max_ball_mass(rows, counts, np.vstack([rows, mids]), radius))
    value = count / n_samples
    stderr = math.sqrt(max(value * (1.0 - value), 0.0) / n_samples)
    return ConcentrationEstimate(value, "monte_carlo", stderr, tau)


# Refinement passes and live intervals of one adaptive Simpson quadrature.
_SIMPSON_PASSES = 40
_SIMPSON_INTERVALS = 400_000


def _adaptive_simpson_abs(f, a: float, b: float, rel_tol: float) -> float:
    """Adaptive composite Simpson rule for |f| with Richardson acceptance.

    ``f`` must map a float array to a complex (or float) array.  Intervals are
    accepted when the two-level Simpson discrepancy is below a share of the
    running total proportional to interval width; accepted intervals get the
    standard (S2 - S1)/15 correction.
    """
    n0 = 16
    edges = np.linspace(a, b, n0 + 1)
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    flo = np.abs(f(lo))
    fhi = np.abs(f(hi))
    fmid = np.abs(f((lo + hi) / 2.0))
    total = 0.0
    span = b - a
    for _ in range(_SIMPSON_PASSES):
        h = hi - lo
        mid = (lo + hi) / 2.0
        s1 = h / 6.0 * (flo + 4.0 * fmid + fhi)
        q1 = (lo + mid) / 2.0
        q2 = (mid + hi) / 2.0
        fq1 = np.abs(f(q1))
        fq2 = np.abs(f(q2))
        sl = h / 12.0 * (flo + 4.0 * fq1 + fmid)
        sr = h / 12.0 * (fmid + 4.0 * fq2 + fhi)
        s2 = sl + sr
        err = np.abs(s2 - s1)
        scale = max(abs(total + float(s2.sum())), 1e-300)
        ok = err <= 15.0 * rel_tol * scale * (h / span)
        total += float((s2[ok] + (s2[ok] - s1[ok]) / 15.0).sum())
        if bool(ok.all()):
            return total
        keep = ~ok
        if 2 * int(keep.sum()) > _SIMPSON_INTERVALS:
            raise NumericsError("adaptive Simpson exceeded its interval budget")
        lo_k, hi_k, mid_k = lo[keep], hi[keep], mid[keep]
        lo = np.concatenate([lo_k, mid_k])
        hi = np.concatenate([mid_k, hi_k])
        flo = np.concatenate([flo[keep], fmid[keep]])
        fhi = np.concatenate([fmid[keep], fhi[keep]])
        fmid = np.concatenate([fq1[keep], fq2[keep]])
    raise NumericsError("adaptive Simpson did not converge")


def _ball_integral(f, radius: float, dim: int, rel_tol: float) -> float:
    """Integral of |f| over the disk (dim 2) or the 3-ball of ``radius``.

    Gauss-Legendre in r and in the polar angle phi, trapezoid over 2m azimuths;
    the disk is the sphere's equator (one polar node, sin phi = 1).  The order
    m doubles until two successive integrals agree to ``rel_tol``.
    """
    m, m_max, name = (16, 1024, "planar") if dim == 2 else (8, 128, "spherical")
    prev = None
    while m <= m_max:
        nodes, wts = np.polynomial.legendre.leggauss(m)
        r = (nodes + 1.0) * (radius / 2.0)
        rw = wts * (radius / 2.0)
        th = 2.0 * np.pi * np.arange(2 * m) / (2 * m)
        w_th = 2.0 * np.pi / (2 * m)
        phi = (nodes + 1.0) * (np.pi / 2.0)
        sp = np.sin(phi) if dim == 3 else np.ones(1)
        rr = r[:, None, None]
        rs = rr * sp[None, :, None]  # grid (r_i, phi_j, theta_l)
        cols = [rs * np.cos(th), rs * np.sin(th)]
        if dim == 3:
            cols.append(np.broadcast_to(rr * np.cos(phi)[None, :, None], cols[0].shape))
        vals = np.abs(f(np.stack(cols, axis=-1).reshape(-1, dim)))
        sums = vals.reshape(m, -1, 2 * m).sum(axis=2)  # over theta
        if dim == 2:
            integral = float(np.sum(rw * r * sums[:, 0] * w_th))
        else:  # over phi with the jacobian sin(phi)
            integral = float(np.sum(rw * r * r * ((sums * w_th) @ (wts * (np.pi / 2.0) * sp))))
        if prev is not None and abs(integral - prev) <= rel_tol * max(abs(integral), 1e-300):
            return integral
        prev = integral
        m *= 2
    raise NumericsError(f"{name} quadrature did not converge")


def esseen_upper_q(
    f_hat,
    tau: float,
    dim: int,
    c_esseen: float = 1.0,
) -> ConcentrationEstimate:
    """Bound shape c * tau^d * integral_{|t| <= 1/tau} |f_hat(t)| dt.

    ``f_hat`` must be vectorized: for dim 1 it maps a float array to complex
    values, otherwise a (m, dim) array.  A genuine upper bound for Q(F, tau)
    only once ``c_esseen`` dominates the dimension constant of the underlying
    smoothing inequality; the default 1.0 is audited empirically elsewhere.
    The value may exceed 1, in which case the bound is vacuous.  The dual
    radius 1/tau may not exceed (float max / 2^11)^(1/dim): every sum of
    |f_hat| <= 1 the rules form then stays in the float range.  Nor may tau
    exceed float max^(1/dim), so that tau^dim does.
    """
    check_count(dim, "dim")
    t = check_scale(tau, "tau", positive=True, finite=True)
    if dim not in (1, 2, 3):
        raise DomainError("the dual-ball quadrature supports dimensions 1 to 3")
    radius = 1.0 / t
    for what, value, limit in (
        ("the dual radius 1/tau", radius, (sys.float_info.max / 2**11) ** (1 / dim)),
        ("tau", t, sys.float_info.max ** (1 / dim)),
    ):
        if value > limit:
            raise DomainError(
                f"tau: in dimension {dim} {what} must not exceed {limit:.2g}, got {tau!r:.60}"
            )
    check_scale(c_esseen, "c_esseen", positive=True, finite=True)
    if dim == 1:
        integral = _adaptive_simpson_abs(f_hat, -radius, radius, 1e-8)
    else:
        integral = _ball_integral(f_hat, radius, dim, 1e-5)
    value = c_esseen * t**dim * integral
    return ConcentrationEstimate(value, "esseen_upper", 0.0, tau)


def weighted_sum_char_fn(x: DiscreteDistribution, a: WeightVector):
    """Vectorized characteristic function of sum_k X_k a_k.

    Returns a callable suitable for ``esseen_upper_q``: product over rows of
    the scalar characteristic function of X at <t, a_k>.
    """
    _check_summand(x)
    xv = x.atoms[:, 0].astype(complex)
    xw = x.weights.astype(complex)

    def f_hat(ts):
        _, u = a.phases(ts)  # (m, n)
        phi = np.exp(1j * u[:, :, None] * xv[None, None, :]) @ xw
        return np.prod(phi, axis=1)

    return f_hat


@dataclass(frozen=True)
class RegularityCheck:
    """Outcome of the window-doubling comparison at radii mu and lambda."""

    q_mu: float
    q_lambda: float
    factor: float
    holds: bool


def regularity_check(
    f: DiscreteDistribution, mu: float, lam: float, budget: int = DEFAULT_EXACT_BUDGET
) -> RegularityCheck:
    """Check Q(F, mu) <= (1 + floor(mu/lambda))^d * Q(F, lambda) exactly."""
    check_scale(mu, "mu", positive=True, finite=True)
    check_scale(lam, "lam", positive=True, finite=True)
    q_mu = exact_q_of_distribution(f, mu, budget)
    q_lam = exact_q_of_distribution(f, lam, budget)
    factor = (1.0 + math.floor(mu / lam)) ** f.dim
    holds = q_mu <= factor * q_lam + 1e-12
    return RegularityCheck(q_mu, q_lam, factor, holds)


__all__ = [
    "ConcentrationEstimate",
    "DEFAULT_EXACT_BUDGET",
    "RegularityCheck",
    "WeightVector",
    "WeightedSum",
    "esseen_upper_q",
    "exact_q",
    "exact_q_of_distribution",
    "mc_q",
    "regularity_check",
    "weighted_sum_char_fn",
    "weighted_sum_distribution",
]
