"""Finite discrete distributions and the tail functionals that drive the bounds.

Everything here is a finitely supported measure on R^d.  The module covers
construction and loading, two-fold symmetrization, the tail mass p(delta),
the truncated second moment, the floor-smoothed tail functional, and compound
Poisson laws e(alpha * W) together with a deterministic sampler.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from ._common import (
    DEDUP_TOL,
    as_points,
    check_count,
    check_scale,
    dedupe_points,
    float_array,
    json_object,
    merge_sorted,
)
from .errors import DomainError, InputError, naming_field

WEIGHT_SUM_TOL = 1e-12

# Means above this are split into equal sub-Poisson chunks; below it the CDF of
# the Poisson law starts at exp(-mean) > 9e-14, safely inside double range.
_INVERSION_MAX_MEAN = 30.0

# Guide table of every inverse-CDF draw: [0, 1) cut into 2^12 buckets, each
# held as its lower edge b/2^12 and its largest double, below (b+1)/2^12.
_GUIDE_BITS = 12
_BUCKET_LO = np.arange(1 << _GUIDE_BITS) / (1 << _GUIDE_BITS)
_BUCKET_HI = np.nextafter(_BUCKET_LO + 2.0**-_GUIDE_BITS, 0.0)


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Finitely supported measure on R^d.

    ``normalized=True`` marks a probability distribution (weights sum to one
    within 1e-12); ``normalized=False`` marks a plain nonnegative measure whose
    total mass stands as given.  ``dedupe_points`` sorts the atoms
    lexicographically and merges consecutive ones within 1e-12 in max norm,
    adding their weights.  In d >= 2 atoms that close but not consecutive stay
    apart: of (0, 0), (0, 1) and (1e-13, 0) all three are kept.  The fields
    are frozen, the arrays read-only, and equality is identity.  Equal
    weights may be held as one value, a read-only broadcast view of stride
    0 (a convolution's, see ``weighted_sum_distribution``); ``.copy()``
    gives a plain array.
    """

    atoms: np.ndarray
    weights: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        self._build(self.atoms, self.weights, self.normalized, adopt=False)

    @classmethod
    def _adopt(cls, atoms: np.ndarray, weights: np.ndarray, normalized: bool = True):
        """The distribution of fresh float arrays that no one else holds, which
        it takes as its own, uncopied (and freezes), after the same checks
        and merge as the constructor's."""
        law = cls.__new__(cls)
        law._build(atoms, weights, normalized, adopt=True)
        return law

    def _build(self, atoms, weights, normalized, adopt):
        with naming_field("atoms", DomainError):
            pts = as_points(atoms)
        with naming_field("weights", DomainError):
            w = float_array(weights).reshape(-1)
        if pts.shape[0] != w.shape[0]:
            raise DomainError(
                f"{pts.shape[0]} atoms but {w.shape[0]} weights"
            )
        if pts.shape[0] == 0:
            raise DomainError("a distribution needs at least one atom")
        if np.any(w < 0):
            raise DomainError("weights must be nonnegative")
        merged, mw = dedupe_points(pts, w, DEDUP_TOL)
        # sorted, separated atoms come back as they went in: copy a caller's
        # arrays then, so that none backs (or is frozen by) the distribution
        pts = merged.copy() if merged is pts and not adopt else merged
        w = mw.copy() if mw is w and not adopt else mw
        if normalized and abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise DomainError(
                f"weights sum to {float(w.sum())!r}; "
                "pass normalized=False for a plain measure"
            )
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "atoms", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "normalized", bool(normalized))

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DiscreteDistribution":
        with naming_field("distribution"):
            obj = json_object(obj, required=("atoms", "weights"), optional=("normalized",))
            normalized = obj.get("normalized", True)
            if not isinstance(normalized, bool):
                raise InputError(f"normalized: expected a bool, got {normalized!r:.60}")
            return cls(obj["atoms"], obj["weights"], normalized)

    @classmethod
    def from_shorthand(cls, name: str) -> "DiscreteDistribution":
        """Parse a named shorthand: rademacher, uniform{...}, bernoulli(p)."""
        s = name.strip()
        if s == "rademacher":
            return cls.rademacher()
        with naming_field("distribution"):
            m = re.fullmatch(r"uniform\{([^{}]*)\}", s)
            if m:
                try:
                    vals = [float(v) for v in m.group(1).split(",")]
                except ValueError as exc:
                    raise InputError(f"bad uniform atom list in {s!r}") from exc
                return cls(vals, [1.0 / len(vals)] * len(vals))  # uniform{inf} is a DomainError
            m = re.fullmatch(r"bernoulli\(([^()]*)\)", s)
            if m:
                try:
                    p = float(m.group(1))
                except ValueError as exc:
                    raise InputError(f"bad bernoulli parameter in {s!r}") from exc
                if not 0.0 <= p <= 1.0:
                    raise InputError("bernoulli parameter must lie in [0, 1]")
                return cls([0.0, 1.0], [1.0 - p, p])
            raise InputError(f"unknown shorthand {s!r}")

    @classmethod
    def from_spec(cls, obj) -> "DiscreteDistribution":
        """Loader accepting either a shorthand string or a JSON object."""
        return cls.from_shorthand(obj) if isinstance(obj, str) else cls.from_json_obj(obj)

    @classmethod
    def rademacher(cls) -> "DiscreteDistribution":
        return cls([-1.0, 1.0], [0.5, 0.5])

    def __repr__(self):
        kind = "distribution" if self.normalized else "measure"
        return (
            f"DiscreteDistribution({self.n_atoms} atoms in R^{self.dim}, "
            f"{kind}, mass={self.total_mass:.6g})"
        )


def _symmetric_law(points: np.ndarray, weights: np.ndarray) -> DiscreteDistribution:
    """The probability distribution of ``points`` and ``weights``, which must be
    symmetric up to float noise, made exactly negation-invariant.

    One stable lexicographic sort and merge pass leaves the groups of a
    symmetric point set mirrored, group j and the j-th from the end, with no
    re-sort that an ulp could tip; each pair is averaged, so z and -z carry
    identical weights bit for bit.  Both are halved before they are
    subtracted, so no atom of a law in the float range overflows.  The
    averaged rows need not stay in order, so only the upper half of the
    groups is merged again (``dedupe_points``) and then mirrored, with the
    middle group of an odd count at 0: no merge can tip one side.
    """
    order = np.lexsort(points.T[::-1])
    p, w = merge_sorted(points[order], weights[order], DEDUP_TOL)
    if not np.allclose(p, -p[::-1], atol=1e-9, rtol=0.0):
        raise DomainError("support is not symmetric up to tolerance")
    q, v = p / 2.0 - p[::-1] / 2.0, (w + w[::-1]) / 2.0
    h = (len(p) + 1) // 2  # q[h - 1] is the zero middle group when the count is odd
    up, uw = dedupe_points(q[h:], v[h:], DEDUP_TOL)
    mid = slice(len(p) - h, h)
    # 0.0 - x, not -x: a zero coordinate stays +0.0 on both sides, as in q
    return DiscreteDistribution(
        np.vstack([0.0 - up[::-1], q[mid], up]), np.concatenate([uw[::-1], v[mid], uw])
    )


def symmetrize(f: DiscreteDistribution) -> DiscreteDistribution:
    """Law of X1 - X2 for X1, X2 independent with law ``f``, exactly
    negation-invariant (see ``_symmetric_law``)."""
    if not f.normalized:
        raise DomainError("symmetrize needs a probability distribution")
    x = f.atoms
    w = f.weights
    diffs = (x[:, None, :] - x[None, :, :]).reshape(-1, f.dim)
    return _symmetric_law(diffs, np.multiply.outer(w, w).reshape(-1))


def tail_mass(g: DiscreteDistribution, delta: float) -> float:
    """Mass of {z : |z| > delta} in max norm; the tail functional p(delta)."""
    check_scale(delta, "delta")
    zn = np.max(np.abs(g.atoms), axis=1)
    # Correctly rounded sum: the orderings against lambda_d and the
    # truncated second moment then hold in floating point, not just in
    # exact arithmetic, because their tail terms coincide exactly.
    return math.fsum(g.weights[zn > delta])


def truncated_second_moment(g: DiscreteDistribution, tau: float) -> float:
    """Expectation of min(z^2 / tau^2, 1) under a one-dimensional measure."""
    check_scale(tau, "tau", positive=True)
    if g.dim != 1:
        raise DomainError("truncated second moment is defined on the line")
    z = g.atoms[:, 0]
    with np.errstate(over="ignore"):  # z^2 / tau^2 past the float range is above 1
        if sys.float_info.min <= tau * tau < math.inf:
            return math.fsum(g.weights * np.minimum(z * z / (tau * tau), 1.0))
        # tau^2 is subnormal, zero or infinite: square the clipped ratio instead
        return math.fsum(g.weights * np.minimum(np.abs(z) / tau, 1.0) ** 2)


def lambda_d(g: DiscreteDistribution, ratio: float, d: int = 1) -> float:
    """Floor-smoothed tail functional sum_z w(z) (1 + floor(ratio/|z|))^-d.

    The atom at the origin contributes zero.  Nonincreasing in both ``ratio``
    and ``d``; always at least the plain tail mass at ``delta = ratio``.
    """
    check_scale(ratio, "ratio", positive=True)
    check_count(d, "d", minimum=1)
    zn = np.max(np.abs(g.atoms), axis=1)
    nz = zn > 0.0
    if not nz.any():
        return 0.0
    terms = (1.0 + np.floor(ratio / zn[nz])) ** (-float(d))
    return math.fsum(g.weights[nz] * terms)


@dataclass(frozen=True, eq=False)
class CompoundPoisson:
    """Law with characteristic function exp(intensity * (base_char(t) - 1)).

    ``base`` must be a probability distribution.  Multiplying the intensity
    by lam gives the law whose characteristic function is the lam-th power.
    """

    intensity: float
    base: DiscreteDistribution

    def __post_init__(self):
        object.__setattr__(self, "intensity", check_scale(self.intensity, "intensity", finite=True))
        if not self.base.normalized:
            raise DomainError("compound Poisson base must be a probability distribution")

    @property
    def dim(self) -> int:
        return self.base.dim

    def __repr__(self):
        return f"CompoundPoisson(intensity={self.intensity:.6g}, base={self.base!r})"


def _poisson_inversion(rng: np.random.Generator, lam: float, size: int) -> np.ndarray:
    """Poisson draws via CDF inversion: N = min{k : U <= CDF(k)}.

    One uniform per draw; monotone in the uniform and in ``lam``, which makes
    shared-seed couplings across intensities meaningful.
    """
    u = rng.random(size)
    umax = float(u.max())
    term = math.exp(-lam)
    total = term
    cdf = [total]
    k = 0
    while total <= umax and term > 0.0 and k < 4000:
        k += 1
        term *= lam / k
        total += term
        cdf.append(total)
    return _guide_search(np.asarray(cdf), u, "left")


def _poisson_counts(rng: np.random.Generator, lam: float, size: int) -> np.ndarray:
    """Poisson(lam) draws, splitting large means into <= 30 chunks.

    Splitting keeps every chunk in the plain-inversion regime, so the sampler
    stays exact and bit-reproducible without any normal approximation.
    """
    counts = np.zeros(size, dtype=np.int64)
    if lam == 0.0:
        return counts
    chunks = max(1, int(math.ceil(lam / _INVERSION_MAX_MEAN)))
    per = lam / chunks
    for _ in range(chunks):
        counts += _poisson_inversion(rng, per, size)
    return counts


def _guide_search(cdf: np.ndarray, u, side: str) -> np.ndarray:
    """``np.searchsorted(cdf, u, side)`` as ``intp``, by a guide table
    (Chen and Asau, 1974) for uniforms ``u`` in [0, 1).

    A bucket of [0, 1) whose lower edge and largest double search to the same
    index decides it for every uniform inside, because the search is monotone
    in the uniform; the other buckets hold -1.  ``u * 2^12`` is exact, so each
    uniform reads its own bucket, and only uniforms in a -1 bucket are
    searched: the indices are the search's own.  Inputs that are empty or not
    all in [0, 1) are searched directly.  Always an array, of ``u``'s shape.
    """
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    if not (flat.size and flat.min() >= 0.0 and flat.max() < 1.0):
        return np.searchsorted(cdf, flat, side).reshape(u.shape)
    lo = np.searchsorted(cdf, _BUCKET_LO, side)
    hi = np.searchsorted(cdf, _BUCKET_HI, side)
    # a compact table: the lookup below reads far less memory than with intp
    guide = np.where(lo == hi, lo, -1).astype(np.int16 if len(cdf) < 2**15 else np.int64)
    idx = guide.take((flat * (1 << _GUIDE_BITS)).astype(np.int32))
    miss = np.flatnonzero(idx < 0)
    if len(miss):
        idx[miss] = np.searchsorted(cdf, flat[miss], side)
    return idx.astype(np.intp).reshape(u.shape)


def atom_indices(law: DiscreteDistribution, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw: the index of the atom of ``law`` that each uniform in
    ``u`` selects, ``searchsorted(cumsum(weights), u, side="right")`` clamped
    to the last atom (which absorbs a float shortfall of the cumsum below 1).

    The search goes through a guide table of [0, 1) (``_guide_search``), so
    most uniforms take one table lookup; the indices, of dtype ``intp``, are
    the plain search's bit for bit.  Leaving the cumsum's last entry out of
    the search is the clamp."""
    return _guide_search(np.cumsum(law.weights)[:-1], u, "right")


def cp_sample_rng(
    d: CompoundPoisson, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n_samples`` i.i.d. points: a Poisson count of base-atom summands.

    Deterministic for a fixed generator state; counts come from sequential
    CDF inversion (split into sub-chunks for means above 30), atoms from
    inverse-CDF lookups.  Both inversions read a guide table of [0, 1) and
    search only the uniforms of its undecided buckets; the indices, and so
    the draws, are those of a plain ``np.searchsorted``.
    """
    check_count(n_samples, "n_samples", minimum=1)
    counts = _poisson_counts(rng, d.intensity, n_samples)
    out = np.zeros((n_samples, d.dim))
    total = int(counts.sum())
    if total == 0:
        return out
    contrib = d.base.atoms[atom_indices(d.base, rng.random(total))]
    sample_ids = np.repeat(np.arange(n_samples), counts)
    for j in range(d.dim):
        out[:, j] = np.bincount(
            sample_ids, weights=contrib[:, j], minlength=n_samples
        )
    return out


def _rows(a) -> np.ndarray:
    """The rows of a row array; at least one."""
    rows = as_points(a)
    if rows.shape[0] == 0:
        raise DomainError("empty weight vector")
    return rows


def spectral_measure(a) -> DiscreteDistribution:
    """Symmetrized empirical measure of the rows: mean of (E_{a_k} + E_{-a_k})/2.

    Duplicated rows merge and the result is an exactly symmetric probability
    distribution.
    """
    rows = _rows(a)
    n = rows.shape[0]
    return _symmetric_law(np.vstack([rows, -rows]), np.full(2 * n, 1.0 / (2 * n)))


def half_empirical_measure(a) -> DiscreteDistribution:
    """Unnormalized measure putting mass 1/(2n) on each row (total mass 1/2)."""
    rows = _rows(a)
    n = rows.shape[0]
    return DiscreteDistribution(
        rows, np.full(n, 1.0 / (2 * n)), normalized=False
    )


__all__ = [
    "CompoundPoisson",
    "DiscreteDistribution",
    "atom_indices",
    "cp_sample_rng",
    "half_empirical_measure",
    "lambda_d",
    "spectral_measure",
    "symmetrize",
    "tail_mass",
    "truncated_second_moment",
]
