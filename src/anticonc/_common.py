"""Shared numeric tolerances, the JSON file reader, number rule and object
rule, point-array helpers, seeds."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .errors import DomainError, InputError

# Max-norm tolerance for merging atoms at construction time.
DEDUP_TOL = 1e-12
# Max-norm tolerance for merging atoms after each convolution step.
CONVOLUTION_MERGE_TOL = 1e-9
# Slack added to closed-ball membership tests; absorbs circumcenter roundoff.
GEOM_TOL = 1e-12
# Slack for closed 1-d window sweeps.  Must dominate GEOM_TOL so that uniform
# window inflation can never break covering inequalities between dimensions.
WINDOW_TOL = 3e-12

_MASK64 = (1 << 64) - 1


def read_json(path, what: str):
    """The JSON value of the ``what`` file at ``path``.  InputError naming the
    file when it cannot be read, is not UTF-8 or is not JSON, including an
    integer of over 4,300 digits and nesting past the recursion limit."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: malformed JSON: {exc}") from exc


def json_number(value, what: str, kind=float):
    """``value`` by the number rule of every JSON input: an integer when
    ``kind`` is int, else a finite float.  A bool, a string, any other type,
    or a number past the float range raises InputError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        wanted = "an integer" if kind is int else "a number"
        raise InputError(f"{what}: expected {wanted}, got {value!r:.60}")
    if not abs(value) <= sys.float_info.max:  # inf, nan, or an integer past it
        raise InputError(f"{what}: expected a finite number, got {value!r:.60}")
    return value if kind is int else float(value)


def json_object(value, required=(), optional=()) -> dict:
    """``value`` by the object rule of every JSON input: a mapping that holds
    each ``required`` key and no key outside ``required`` and ``optional``.
    InputError otherwise; the caller names the object (``naming_field``)."""
    if not isinstance(value, dict):
        raise InputError(f"expected an object, got {value!r:.60}")
    for key in required:
        if key not in value:
            raise InputError(f"missing field {key!r}")
    for key in value:
        if key not in required and key not in optional:
            raise InputError(f"unknown field {key!r}")
    return value


def float_array(arr) -> np.ndarray:
    """``arr`` as a float array; DomainError unless every entry is a number in
    the float range, nested regularly.  Strings, bools, nulls, mappings and
    integers past the float range are refused.  A float ndarray comes back
    uncopied."""
    try:
        if not (isinstance(arr, np.ndarray) and arr.dtype.kind in "iuf"):
            # numpy parses strings, reads [true, 2] as ints and 10**30 as an object
            entries = np.asarray(arr, dtype=object).flat
            numbers = (int, float, np.integer, np.floating)
            if not all(isinstance(v, numbers) and not isinstance(v, bool) for v in entries):
                raise TypeError("not a number")
        return np.asarray(arr, dtype=float)  # OverflowError past the float range
    except (OverflowError, TypeError, ValueError) as exc:
        raise DomainError(f"expected an array of numbers, got {arr!r:.60}") from exc


def as_points(arr, dim: int | None = None) -> np.ndarray:
    """Coerce input to a (k, d) float array of points.

    A 1-d input is read as k scalars (points on the line).  A single point in
    R^d with d >= 2 must therefore be passed as a nested list.
    """
    a = float_array(arr)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim != 2:
        raise DomainError(f"expected a point array, got ndim={a.ndim}")
    if dim is not None and a.shape[1] != dim:
        raise DomainError(f"expected points in R^{dim}, got R^{a.shape[1]}")
    return a


def as_vector(t, dim: int) -> np.ndarray:
    """Coerce a scalar or sequence to a (dim,) float vector."""
    v = float_array(t).reshape(-1)
    if v.size != dim:
        raise DomainError(f"expected a vector in R^{dim}, got size {v.size}")
    return v


def dedupe_points(points: np.ndarray, weights: np.ndarray, tol: float):
    """Merge points closer than ``tol`` in max norm along the lexicographic sweep.

    Groups are maximal runs of lex-sorted points whose consecutive gaps stay
    within ``tol``; each group collapses to its weighted mean.  The run rule is
    invariant under negation of the whole point set, which keeps symmetrized
    supports symmetric.  Points on the line that are already ascending are
    not sorted again (a stable sort of them is the identity), and when none
    of them merge the inputs come back as they are, not copied.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if points.shape[0] <= 1:
        return points.copy(), weights.copy()
    p, w = points, weights
    line = points.shape[1] == 1
    if not (line and np.all(points[1:, 0] >= points[:-1, 0])):
        order = np.lexsort(points.T[::-1])
        p = points[order]
        w = weights[order]
        del order  # the permutation is as big as the points: free it early
    if line:
        # sorted points on the line: the max-norm gaps are their differences
        gaps = np.diff(p[:, 0])
    else:
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
    # zero-weight groups keep their first member verbatim
    if not pos.all():
        merged[~pos] = p[starts][~pos]
    return merged, wsum


def distinct_rows(points: np.ndarray):
    """Exactly equal rows of ``points`` collapsed, with their multiplicities.

    Rows are sorted and split into runs of equal rows; each run keeps one of
    its rows and its length as an integer count.  There is no tolerance and
    no averaging (unlike :func:`dedupe_points`), so every returned row is one
    of the input rows bit for bit, except that a run of zeros may keep either
    signed zero.  Rows come back in lexicographic order.
    """
    if points.shape[0] == 0:
        return points.copy(), np.zeros(0, dtype=np.int64)
    if points.shape[1] == 1:
        p = np.sort(points, axis=0)  # one column: far cheaper than the lexsort
    else:
        p = points[np.lexsort(points.T[::-1])]
    starts = np.empty(p.shape[0], dtype=bool)
    starts[0] = True
    np.any(p[1:] != p[:-1], axis=1, out=starts[1:])
    first = np.flatnonzero(starts)
    return p[first], np.diff(first, append=p.shape[0])


def derive_seed(master: int, stream: int = 0) -> int:
    """Deterministic 64-bit child seed for (master, stream)."""
    ss = np.random.SeedSequence([int(master) & _MASK64, int(stream) & _MASK64])
    return int(ss.generate_state(1, np.uint64)[0])


def check_seed(seed) -> int:
    """The one seed rule of the library: an integer in [0, 2^64)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r:.60}")
    return int(seed)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(check_seed(seed)))
