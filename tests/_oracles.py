"""Independent oracles used to freeze expected values.

Everything here is brute force on purpose: sign enumeration, interval sweeps,
subset enclosing balls, grid scans, the Monte Carlo count over raw sample
rows, and the coverage search one candidate object at a time.  Nothing
imports the package under test, except the coverage oracles: they build the
package's witness classes, so that their JSON can be compared, and use its
merge helper.
"""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree

KEY_DECIMALS = 9


def _key(values) -> tuple:
    return tuple(round(float(v), KEY_DECIMALS) for v in values)


def enumerate_weighted_sum(support, probs, rows):
    """All outcomes of sum_k X_k * rows[k] with X iid on (support, probs).

    Returns (points, weights) with exact Fraction weights aggregated over
    coinciding outcomes.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    n, d = rows.shape
    probs = [Fraction(p).limit_denominator(10**9) for p in probs]
    acc = {}
    for combo in itertools.product(range(len(support)), repeat=n):
        pt = np.zeros(d)
        pr = Fraction(1)
        for k, idx in enumerate(combo):
            pt += float(support[idx]) * rows[k]
            pr *= probs[idx]
        acc[_key(pt)] = acc.get(_key(pt), Fraction(0)) + pr
    points = np.array(sorted(acc), dtype=float).reshape(len(acc), d)
    weights = [acc[_key(p)] for p in points]
    return points, weights


def oracle_q_1d(support, probs, weights, tau):
    """Largest probability of a closed interval of length tau, exactly."""
    pts, wts = enumerate_weighted_sum(support, probs, weights)
    xs = pts[:, 0]
    best = Fraction(0)
    for anchor in xs:
        for lo in (anchor, anchor - tau):
            hi = lo + tau
            total = sum(
                w
                for x, w in zip(xs, wts)
                if lo - 1e-12 <= x <= hi + 1e-12
            )
            best = max(best, total)
    return best


def oracle_max_window_mass(z, w, tau):
    """Largest mass of a closed window [z_i, z_i + tau] anchored at an atom:
    one ``searchsorted`` per anchor over the stably sorted atoms, with slack
    3e-12 * max(1, |z_i|), the mass taken from cumulative sums and capped by
    the total."""
    z = np.asarray(z, dtype=float)
    order = np.argsort(z, kind="stable")
    zs = z[order]
    cw = np.concatenate([[0.0], np.cumsum(np.asarray(w)[order])])
    hi = np.searchsorted(
        zs, zs + tau + 3e-12 * np.maximum(1.0, np.abs(zs)), side="right"
    )
    return min(float(np.max(cw[hi] - cw[: len(zs)])), float(cw[-1]))


def oracle_dedupe_points(points, weights, tol):
    """Points merged along the lexicographic sweep, every input lex-sorted:
    runs whose consecutive max-norm gaps stay within ``tol`` collapse to their
    weighted mean (a zero-weight run to its first member)."""
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if points.shape[0] <= 1:
        return points.copy(), weights.copy()
    order = np.lexsort(points.T[::-1])
    p = points[order]
    w = weights[order]
    gaps = np.max(np.abs(np.diff(p, axis=0)), axis=1)
    starts = np.concatenate([[True], gaps > tol])
    if starts.all():
        return p, w
    group = np.cumsum(starts) - 1
    k = int(group[-1]) + 1
    wsum = np.bincount(group, weights=w, minlength=k)
    merged = np.empty((k, p.shape[1]))
    for j in range(p.shape[1]):
        merged[:, j] = np.bincount(group, weights=w * p[:, j], minlength=k)
    pos = wsum > 0
    merged[pos] /= wsum[pos, None]
    merged[~pos] = p[starts][~pos]
    return merged, wsum


def oracle_weighted_sum_distribution(support, probs, rows):
    """Atoms and weights of the law of sum_k X_k a_k by the plain route: each
    step concatenates one shifted copy of the points per step atom, in the
    atoms' order, and merges them within 1e-9 by ``oracle_dedupe_points``; the
    result merges once more within 1e-12, as a law's construction does."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    pts = np.zeros((1, rows.shape[1]))
    w = np.ones(1)
    for row in rows:
        pts = np.concatenate([x * row + pts for x in support])
        w = np.concatenate([p * w for p in probs])
        pts, w = oracle_dedupe_points(pts, w, 1e-9)
    return oracle_dedupe_points(pts, w, 1e-12)


def _circumcenter(pts):
    """Center equidistant from all rows of pts, or None when degenerate."""
    pts = np.asarray(pts, dtype=float)
    base = pts[0]
    diffs = pts[1:] - base
    rhs = 0.5 * np.einsum("ij,ij->i", diffs, diffs)
    sol, residual, rank, _ = np.linalg.lstsq(diffs, rhs, rcond=None)
    if rank < len(diffs):
        return None
    center = base + sol
    dists = np.linalg.norm(pts - center, axis=1)
    if np.ptp(dists) > 1e-8 * (1.0 + dists.max()):
        return None
    return center


def oracle_q_ball(support, probs, rows, tau):
    """Largest probability of a closed Euclidean ball of diameter tau.

    Exact for finite atom sets: the optimal covered set has an enclosing
    ball determined by at most d+1 atoms, so centers of subsets of that
    size exhaust the candidates.
    """
    pts, wts = enumerate_weighted_sum(support, probs, rows)
    d = pts.shape[1]
    radius = tau / 2.0
    wts_f = np.array([float(w) for w in wts])
    centers = [p for p in pts]
    idx = range(len(pts))
    for size in range(2, min(d + 1, len(pts)) + 1):
        for combo in itertools.combinations(idx, size):
            sub = pts[list(combo)]
            if size == 2:
                centers.append(0.5 * (sub[0] + sub[1]))
                continue
            c = _circumcenter(sub)
            if c is not None:
                centers.append(c)
    return _densest_ball(pts, wts_f, centers, radius)


def _densest_ball(pts, wts, centers, radius):
    """Largest mass of a closed ball of ``radius`` (slack 1e-12) about a centre,
    every centre checked against every atom."""
    best = 0.0
    for c in centers:
        dist = np.linalg.norm(pts - np.asarray(c), axis=1)
        best = max(best, float(wts[dist <= radius + 1e-12].sum()))
    return best


def oracle_near_pairs(pts, reach):
    """Index pairs i < j, in lexicographic order, at distance at most
    ``reach``: the squared distance of every pair against ``reach**2``."""
    ii, jj = np.triu_indices(len(pts), 1)
    near = ((pts[ii] - pts[jj]) ** 2).sum(axis=1) <= reach**2
    return ii[near], jj[near]


def oracle_near_cliques(pts, reach, max_size):
    """Index tuples i_1 < ... < i_m, 2 <= m <= ``max_size``, whose atoms lie
    pairwise within ``reach``, grown one index at a time by recursion over
    the dense distance matrix."""
    pts = np.asarray(pts, dtype=float)
    near = (np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2) <= reach).tolist()
    found = []

    def grow(clique):
        if len(clique) > 1:
            found.append(clique)
        if len(clique) < max_size:
            for j in range(clique[-1] + 1, len(pts)):
                if all(near[i][j] for i in clique):
                    grow(clique + (j,))

    for i in range(len(pts)):
        grow((i,))
    return found


def oracle_q_ball_near(support, probs, rows, tau):
    """``oracle_q_ball`` with only the subsets whose atoms lie pairwise within
    tau + 1e-9 as candidate centres: an optimal ball's pinning atoms lie
    within its diameter of each other, so no other subset is needed, and
    supports of a few hundred atoms stay within reach."""
    pts, wts = enumerate_weighted_sum(support, probs, rows)
    centers = list(pts)
    for clique in oracle_near_cliques(pts, tau + 1e-9, pts.shape[1] + 1):
        sub = pts[list(clique)]
        c = 0.5 * (sub[0] + sub[1]) if len(clique) == 2 else _circumcenter(sub)
        if c is not None:
            centers.append(c)
    return _densest_ball(pts, np.array([float(w) for w in wts]), centers, tau / 2.0)


def oracle_max_ball_mass(pts, w, centers, radius):
    """Largest ``w``-mass of a closed ball of ``radius`` around any centre.

    Every centre is counted, by a default-leafsize kd-tree, and each ball sum
    adds the weights of its hits one at a time in increasing index order.
    """
    tree = cKDTree(pts)
    best = 0.0
    for hits in tree.query_ball_point(centers, radius):
        mass = 0.0
        for i in sorted(hits):
            mass += float(w[i])
        best = max(best, mass)
    return best


def oracle_mc_count(samples, tau, sub_idx):
    """Largest window or ball count of Monte Carlo samples, row by row.

    The estimator's count over the raw samples with no deduplication.  On the
    line: the sorted sweep over closed windows [z, z + tau] anchored at each
    sample, with slack 3e-12 * max(1, |z|).  In higher dimension: kd-tree
    counts of closed balls of radius tau/2 (slack 1e-12 * scale) around every
    sample and around the midpoints of the pairs of ``samples[sub_idx]`` that
    lie within tau of each other.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[1] == 1:
        zs = np.sort(samples[:, 0])
        hi = np.searchsorted(
            zs, zs + tau + 3e-12 * np.maximum(1.0, np.abs(zs)), side="right"
        )
        return int(np.max(hi - np.arange(len(zs))))
    rho = tau / 2.0
    radius = rho + 1e-12 * max(1.0, float(np.max(np.abs(samples))), rho)
    tree = cKDTree(samples)
    count = int(np.max(tree.query_ball_point(samples, radius, return_length=True)))
    sub = samples[sub_idx]
    ii, jj = oracle_near_pairs(sub, 2 * rho)
    if len(ii):
        mids = (sub[ii] + sub[jj]) / 2.0
        hits = tree.query_ball_point(mids, radius, return_length=True)
        count = max(count, int(np.max(hits)))
    return count


def _oracle_atom_indices(weights, u):
    """Inverse-CDF atom draws by plain ``np.searchsorted``, clamped to the last
    atom."""
    cum = np.cumsum(weights)
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def _oracle_poisson_counts(rng, lam, size):
    """Poisson(lam) counts by sequential CDF inversion, in chunks of mean at
    most 30, one ``rng.random(size)`` per chunk, each searched by plain
    ``np.searchsorted``."""
    counts = np.zeros(size, dtype=np.int64)
    if lam == 0.0:
        return counts
    chunks = max(1, math.ceil(lam / 30.0))
    per = lam / chunks
    for _ in range(chunks):
        u = rng.random(size)
        term = math.exp(-per)
        cdf = [term]
        k = 0
        while cdf[-1] <= float(u.max()) and term > 0.0 and k < 4000:
            k += 1
            term *= per / k
            cdf.append(cdf[-1] + term)
        counts += np.searchsorted(np.asarray(cdf), u, side="left")
    return counts


def oracle_cp_sample(intensity, atoms, weights, n_samples, rng):
    """Compound-Poisson draws in the sampler's stream order: the Poisson
    counts first, then one uniform per summand, each searched by plain
    ``np.searchsorted``; each sample adds its summands in draw order."""
    counts = _oracle_poisson_counts(rng, intensity, n_samples)
    out = np.zeros((n_samples, atoms.shape[1]))
    total = int(counts.sum())
    if total:
        idx = _oracle_atom_indices(weights, rng.random(total))
        np.add.at(out, np.repeat(np.arange(n_samples), counts), atoms[idx])
    return out


def oracle_weighted_sum_sample(step_atoms, step_weights, rows, n_samples, rng, chunk):
    """Draws of sum_k X_k rows[k] in the sampler's stream order: (m, n)
    uniforms per chunk of ``chunk`` samples, searched by plain
    ``np.searchsorted``, and one matrix product per chunk."""
    out = np.empty((n_samples, rows.shape[1]))
    for i in range(0, n_samples, chunk):
        m = min(chunk, n_samples - i)
        idx = _oracle_atom_indices(step_weights, rng.random((m, rows.shape[0])))
        out[i : i + m] = step_atoms[idx] @ rows
    return out


def oracle_symmetrize(support, probs):
    """Distribution of X1 - X2 as a dict value -> Fraction."""
    probs = [Fraction(p).limit_denominator(10**9) for p in probs]
    out = {}
    for (x1, p1), (x2, p2) in itertools.product(zip(support, probs), repeat=2):
        z = round(float(x1) - float(x2), KEY_DECIMALS)
        out[z] = out.get(z, Fraction(0)) + p1 * p2
    return out


def oracle_tail(sym, delta):
    return sum((p for z, p in sym.items() if abs(z) > delta), Fraction(0))


def oracle_lambda_d(sym, ratio, d):
    total = Fraction(0)
    for z, p in sym.items():
        if z == 0:
            continue
        total += p * Fraction(1, (1 + math.floor(ratio / abs(z))) ** d)
    return total


def oracle_m2(sym, ratio):
    total = 0.0
    for z, p in sym.items():
        total += float(p) * min(z * z / (ratio * ratio), 1.0)
    return total


def lcd_violates(t, a, gamma, alpha):
    x = t * np.asarray(a, dtype=float)
    dist = float(np.linalg.norm(x - np.round(x)))
    return dist < min(gamma * float(np.linalg.norm(x)), alpha)


def oracle_lcd_scan_1d(a, gamma, alpha, t_max, coarse=1e-4):
    """First scalar t with a lattice violation, refined by bisection.

    The coarse grid is coarse, 2*coarse, ... summed one step at a time.  Its
    points are screened with vectorised margins; those within 1e-12 of a
    violation are confirmed in order by ``lcd_violates``, so the first hit is
    the one a point-by-point loop finds.
    """
    ts = np.add.accumulate(np.full(int(t_max / coarse) + 3, coarse))
    ts = ts[ts <= t_max]
    x = np.multiply.outer(ts, np.asarray(a, dtype=float))
    dist = np.sqrt(((x - np.round(x)) ** 2).sum(axis=1))
    margin = dist - np.minimum(gamma * np.sqrt((x**2).sum(axis=1)), alpha)
    hit = next(
        (float(t) for t in ts[margin < 1e-12] if lcd_violates(t, a, gamma, alpha)),
        None,
    )
    if hit is None:
        return None
    lo, hi = max(hit - coarse, 0.0), hit
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if lcd_violates(mid, a, gamma, alpha):
            hi = mid
        else:
            lo = mid
    return hi


def oracle_lcd_ones(n, gamma, alpha):
    """Closed form for n equal unit weights."""
    return max(1.0 / (1.0 + gamma), 1.0 - alpha / math.sqrt(n))


def oracle_min_maxnorm_dist(pts, kp):
    """Max-norm distance from each row of ``pts`` to the nearest row of ``kp``.

    Dense comparison of every point with every progression point, in blocks
    of 1024 progression points.
    """
    pts = np.asarray(pts, dtype=float)
    kp = np.asarray(kp, dtype=float)
    mind = np.full(pts.shape[0], np.inf)
    for i in range(0, kp.shape[0], 1024):
        block = kp[i : i + 1024]
        d = np.max(np.abs(pts[:, None, :] - block[None, :, :]), axis=2)
        mind = np.minimum(mind, d.min(axis=1))
    return mind


def _convergents(x, depth=12):
    """Continued-fraction convergents (p, q) of a positive real."""
    out = []
    h0, k0 = 1, 0
    a = int(math.floor(x))
    h1, k1 = a, 1
    out.append((h1, k1))
    frac = x - a
    for _ in range(depth - 1):
        if frac < 1e-12:
            break
        x = 1.0 / frac
        a = int(math.floor(x))
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        if k1 > 1_000_000 or h1 > 1_000_000:
            break
        out.append((h1, k1))
        frac = x - a
    return out


def _stride(pool, cap):
    if len(pool) <= cap:
        return pool
    idx = np.unique(np.round(np.linspace(0, len(pool) - 1, cap)).astype(int))
    return pool[idx]


def oracle_candidate_steps(atoms, cap=96):
    """Step pool from |atoms|, pair differences and pair-ratio convergents.

    One pair at a time, with exact integer convergents and a Python set.
    """
    zn = np.max(np.abs(np.asarray(atoms, dtype=float).reshape(len(atoms), -1)), axis=1)
    zs = np.unique(zn[zn > 0])
    pool = set(float(z) for z in zs)
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            zi, zj = float(zs[i]), float(zs[j])
            d = zj - zi
            if d > 1e-12:
                pool.add(d)
            for p, q in _convergents(zj / zi):
                if p > 0 and zj / p > 1e-12:
                    pool.add(zj / p)
                if q > 0 and zi / q > 1e-12:
                    pool.add(zi / q)
    vals = np.sort(np.asarray(sorted(pool), dtype=float))
    if len(vals) > 1:
        keep = np.concatenate([[True], np.diff(vals) > 1e-12 * np.maximum(1.0, vals[1:])])
        vals = vals[keep]
    return _stride(vals, cap)


def oracle_witness_points(wit):
    """Points of a Cgap or GapImageProgression: coefficient rows times h.

    The product is one matrix-vector product, sorted, with no merge: a value
    two coefficient rows share is listed twice.
    """
    if hasattr(wit, "gap"):
        vals = wit.gap.image() @ np.asarray(wit.h)
    else:
        vals = wit.lattice_points().astype(float) @ wit.h
    return np.sort(vals).reshape(-1, 1)


def oracle_box_allocations(rank, cap):
    """The coarse box family: nondecreasing first radii, the largest last that fits.

    Every rank - 1 nondecreasing radii (b_1, ...) with prod(2 b_i + 1) <= cap,
    in lexicographic order, each with the largest last radius that fits.  At
    rank 3 this is the family the coverage search scored before it dropped
    the boxes that another box contains.
    """

    def grow(head, room):  # room = cap // prod(2 b_i + 1) over the head
        if len(head) == rank - 1:
            return [head + ((room - 1) // 2,)]
        lo = head[-1] if head else 0
        return [
            box
            for b in range(lo, (room - 1) // 2 + 1)
            for box in grow(head + (b,), room // (2 * b + 1))
        ]

    return grow((), cap)


def oracle_pareto_allocations(rank, cap):
    """The coarse family less every box that another of its boxes contains.

    One (N, N) comparison over the N coarse boxes: memory is quadratic.
    """
    boxes = oracle_box_allocations(rank, cap)
    arr = np.array(boxes).reshape(len(boxes), 1, rank)
    ge = np.all(arr.transpose(1, 0, 2) >= arr, axis=2)  # ge[i, j]: box j >= box i
    contained = np.any(ge & ~np.eye(len(boxes), dtype=bool), axis=1)
    return [box for box, c in zip(boxes, contained) if not c]


def _witness_key(steps, radii):
    return (
        len(steps),
        tuple(round(float(s), 12) for s in steps),
        tuple(int(b) for b in radii),
    )


def oracle_coverage_search(
    w, tau, r, cap, kind, search_budget=20_000, allocations=oracle_pareto_allocations
):
    """The coverage search one witness object per candidate, for r >= 1.

    ``kind`` is "beta" (Cgap witnesses with at most ``cap`` lattice points)
    or "gamma" (GapImageProgression witnesses of size at most ``cap``).
    ``allocations(rank, cap)`` lists the box radii scored at each rank; a
    cap above the point guard ``_MAX_SEARCH_POINTS`` lists at the guard.
    Every candidate is built as a witness, and its value is the fsum of the
    weights whose dense distance to the witness points exceeds tau.  Equal
    values are broken towards the smaller (rank, rounded steps, radii) key.
    Returns (value, witness, evaluations).
    """
    from anticonc.progressions import (
        _MAX_SEARCH_POINTS,
        Cgap,
        Gap,
        GapImageProgression,
    )

    def make_witness(steps, radii):
        h = np.ones(r)
        h[: len(steps)] = steps
        if kind == "beta":
            bounds = np.full(r, 0.4)
            bounds[: len(radii)] = [float(b) for b in radii]
            return Cgap(h, bounds, int(cap))
        dims = np.full(r, 0.4)
        dims[: len(radii)] = [max(float(b), 0.4) for b in radii]
        return GapImageProgression(Gap(tuple(dims), np.eye(r)), tuple(h))

    def value(wit):
        mind = oracle_min_maxnorm_dist(w.atoms, oracle_witness_points(wit))
        return math.fsum(w.weights[mind > tau])

    pool = oracle_candidate_steps(w.atoms)
    best_w = make_witness((), ())
    best_v = value(best_w)
    best_key = _witness_key((), ())
    evals = 1
    for rho in range(1, min(r, 3) + 1):
        if best_v == 0.0 or evals >= search_budget:
            break
        if rho == 1:
            step_sets = [(float(h),) for h in pool]
        elif rho == 2:
            sub = _stride(pool, 24)
            step_sets = [
                (float(sub[i]), float(sub[j]))
                for i in range(len(sub))
                for j in range(i + 1, len(sub))
            ]
        else:
            sub = _stride(pool, 10)
            step_sets = [
                tuple(float(v) for v in c) for c in itertools.combinations(sub, 3)
            ]
        allocs = allocations(rho, min(cap, _MAX_SEARCH_POINTS))
        for steps in step_sets:
            for radii in allocs:
                if evals >= search_budget:
                    break
                wit = make_witness(steps, radii)
                val = value(wit)
                evals += 1
                key = _witness_key(steps, radii)
                if val < best_v or (val == best_v and key < best_key):
                    best_v, best_w, best_key = val, wit, key
            if best_v == 0.0 or evals >= search_budget:
                break
        if best_v == 0.0:
            break
    return best_v, best_w, evals


def oracle_cp_char_fn(intensity, atoms, weights, ts):
    """exp(intensity * (phi(t) - 1)), phi(t) = sum_j w_j exp(i t z_j), one
    grid point and one term at a time: the characteristic function of the
    compound Poisson law of ``intensity`` over base atoms z_j on the line."""
    z = np.asarray(atoms, dtype=float).reshape(-1).tolist()
    return np.array([
        cmath.exp(intensity * (sum(w * cmath.exp(1j * t * zj) for zj, w in zip(z, weights)) - 1.0))
        for t in np.asarray(ts, dtype=float).reshape(-1).tolist()
    ])


def oracle_poisson_pmf(mean, k):
    return math.exp(-mean) * mean**k / math.factorial(k)


RADEMACHER = ((-1.0, 1.0), (Fraction(1, 2), Fraction(1, 2)))
UNIFORM3 = ((-1.0, 0.0, 1.0), (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))


def bernoulli(p):
    frac = Fraction(p).limit_denominator(10**9)
    return ((0.0, 1.0), (1 - frac, frac))


# --- bound forms ---------------------------------------------------------------


def oracle_two_term(lead, first_num, count, mass, r):
    """lead * (first_num / (count sqrt(mass)) + (r+1)^(5r/2) / mass^((r+1)/2)),
    term by term as first written; raises past the float range."""
    if mass <= 0.0:
        return math.inf
    first = first_num / (count * math.sqrt(mass))
    second = (r + 1) ** (2.5 * r) / mass ** (0.5 * (r + 1))
    return lead * (first + second)
