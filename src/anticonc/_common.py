"""Shared numeric tolerances, the JSON file reader, number rule and object
rule, the array rule and point-array helpers, the count and scale rules."""

from __future__ import annotations

import json
import math
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
# The scalar types the number rules read as numbers; a bool is refused apart.
_NUMBERS = (int, float, np.integer, np.floating)


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
    """The one array rule of the library: ``arr`` as a float array;
    DomainError unless every entry is a finite number, nested regularly.
    Strings, bools, nulls, mappings, NaN, +-inf and integers past the float
    range are refused.  A float ndarray comes back uncopied."""
    try:
        if not (isinstance(arr, np.ndarray) and arr.dtype.kind in "iuf"):
            # numpy parses strings, reads [true, 2] as ints and 10**30 as an object
            entries = np.asarray(arr, dtype=object).flat
            if not all(isinstance(v, _NUMBERS) and not isinstance(v, bool) for v in entries):
                raise TypeError("not a number")
        a = np.asarray(arr, dtype=float)  # OverflowError past the float range
    except (OverflowError, TypeError, ValueError) as exc:
        raise DomainError(f"expected an array of numbers, got {arr!r:.60}") from exc
    # min and max carry any NaN and meet any infinity, with no full-size temporary
    if a.size and not (math.isfinite(a.min()) and math.isfinite(a.max())):
        raise DomainError(f"expected finite numbers, got {float(a[~np.isfinite(a)][0])}")
    return a


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
    elif a.shape[1] == 0:
        raise DomainError("expected points in R^d for some d >= 1, got R^0")
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
    """Merge points closer than ``tol`` in max norm along the lexicographic
    sweep: :func:`lex_sorted`, then :func:`merge_sorted`.  When none merge,
    points already in lexicographic order come back as they are, not copied.
    """
    return merge_sorted(*lex_sorted(points, weights), tol)


def lex_sorted(points: np.ndarray, weights: np.ndarray):
    """``points`` and ``weights`` in stable lexicographic row order; rows
    already in it come back uncopied (a stable sort of them is the identity)."""
    # ordered[i]: row i + 1 is not below row i on the columns from j on
    ordered = points[1:, -1] >= points[:-1, -1]
    for j in reversed(range(points.shape[1] - 1)):
        ordered &= points[1:, j] == points[:-1, j]
        ordered |= points[1:, j] > points[:-1, j]
    if ordered.all():
        return points, weights
    order = np.lexsort(points.T[::-1])
    return points[order], weights[order]


def merge_sorted(p: np.ndarray, w: np.ndarray, tol: float):
    """Merge the lexicographically sorted points ``p`` closer than ``tol`` in
    max norm, with weights ``w``.

    Groups are maximal runs of points whose consecutive gaps stay within
    ``tol``; each group collapses to its weighted mean.  The run rule is
    invariant under negation of the whole point set, which keeps symmetrized
    supports symmetric.  When none merge ``p`` and ``w`` come back as they
    are, not copied.
    """
    starts = np.ones(p.shape[0], dtype=bool)
    with np.errstate(over="ignore"):  # a gap past the float range is inf: no merge
        gaps = np.diff(p, axis=0)
        # on the line the max-norm gaps are the differences themselves
        gaps = gaps[:, 0] if p.shape[1] == 1 else np.max(np.abs(gaps), axis=1)
        np.greater(gaps, tol, out=starts[1:])
    del gaps
    if starts.all():
        return p, w
    group = np.cumsum(starts)
    group -= 1
    k = int(group[-1]) + 1
    wsum = np.bincount(group, weights=w, minlength=k)
    merged = np.empty((k, p.shape[1]))
    for j in range(p.shape[1]):
        merged[:, j] = np.bincount(group, weights=w * p[:, j], minlength=k)
    del group
    pos = wsum > 0
    np.divide(merged, wsum[:, None], out=merged, where=pos[:, None])
    if not pos.all():
        # zero-weight groups keep their first member verbatim
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


def check_count(value, what: str, minimum: int | None = 0, maximum: int | None = None) -> int:
    """The one count rule of the library, for every seed, rank, cap, dimension,
    index, budget and sample count: an integer (a Python or numpy integer, not
    a bool) from ``minimum`` to ``maximum``, where None is no bound.
    DomainError naming ``what`` otherwise; returns the int."""
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    lo = -math.inf if minimum is None else minimum
    if not (is_int and lo <= int(value) <= (math.inf if maximum is None else maximum)):
        wanted = "an integer"
        if maximum is not None:
            wanted += f" from {minimum} to {maximum}"
        elif minimum is not None:
            wanted += f" of at least {minimum}"
        raise DomainError(f"{what}: expected {wanted}, got {value!r:.60}")
    return int(value)


def check_scale(value, what: str, *, positive: bool = False, finite: bool = False) -> float:
    """The one scale rule of the library, for every window, radius, ratio,
    intensity and ceiling: a real number (not a bool), not NaN, at least 0
    (above 0 when ``positive``) and in the float range.  +inf passes as the
    limit the site defines, unless ``finite``.  DomainError naming ``what``
    otherwise; returns the float."""
    if isinstance(value, bool) or not isinstance(value, _NUMBERS):
        raise DomainError(f"{what}: expected a number, got {value!r:.60}")
    try:
        v = float(value)
    except OverflowError:  # an integer past the float range
        v = math.nan
    if not (v > 0 if positive else v >= 0) or (finite and v == math.inf):  # NaN fails both
        kind = ("finite " if finite else "") + ("positive" if positive else "nonnegative")
        raise DomainError(f"{what}: expected a {kind} number, got {value!r:.60}")
    return v


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(check_count(seed, "seed", maximum=_MASK64)))
