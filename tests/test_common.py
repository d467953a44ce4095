import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as O
from anticonc._common import as_points, dedupe_points, distinct_rows
from anticonc.distributions import DiscreteDistribution
from anticonc.errors import DomainError


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _line(n, ties, zeros, seed):
    """n values on the line: generic, on a coarse lattice (ties), or with
    signed zeros and runs closer than the merge tolerance."""
    rng = np.random.default_rng(seed)
    if ties:
        z = rng.integers(-3, 4, size=n) * 0.5
    else:
        z = rng.uniform(-2.0, 2.0, size=n)
    if zeros:
        z[rng.random(n) < 0.3] = -0.0
        z[rng.random(n) < 0.3] = 0.0
        z[rng.random(n) < 0.2] += 1e-13
    return z


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 60),
    ties=st.booleans(),
    zeros=st.booleans(),
    zero_weights=st.booleans(),
    ascending=st.booleans(),
    tol=st.sampled_from([0.0, 1e-12, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dedupe_on_the_line_matches_the_lexsort_route(
    n, ties, zeros, zero_weights, ascending, tol, seed
):
    z = _line(n, ties, zeros, seed)
    if ascending:
        # a stable sort keeps the signed zeros of a tie in their input order
        z = z[np.argsort(z, kind="stable")]
    w = np.random.default_rng(seed + 1).uniform(0.0, 1.0, size=n)
    if zero_weights:
        w[::2] = 0.0
    pts, wts = dedupe_points(z.reshape(-1, 1), w, tol)
    want_pts, want_wts = O.oracle_dedupe_points(z.reshape(-1, 1), w, tol)
    np.testing.assert_array_equal(_bits(pts), _bits(want_pts))
    np.testing.assert_array_equal(_bits(wts), _bits(want_wts))


def test_dedupe_keeps_ascending_separated_input_and_the_law_copies_it():
    z = np.array([[-1.0], [-0.0], [0.5], [2.0]])
    w = np.full(4, 0.25)
    pts, wts = dedupe_points(z, w, 1e-12)
    assert pts is z and wts is w
    law = DiscreteDistribution(z, w)
    assert not np.shares_memory(law.atoms, z)
    assert not np.shares_memory(law.weights, w)
    z[0, 0] = 7.0  # the caller's arrays stay writeable and apart from the law
    assert law.atoms[0, 0] == -1.0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 400),
    ties=st.booleans(),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_distinct_rows_on_the_line_match_the_counts_of_unique(n, ties, zeros, seed):
    z = _line(n, ties, zeros, seed)
    rows, counts = distinct_rows(z.reshape(-1, 1))
    want_rows, want_counts = np.unique(z, return_counts=True)
    # a run of zeros may keep either signed zero; the values compare equal
    np.testing.assert_array_equal(rows[:, 0], want_rows)
    np.testing.assert_array_equal(counts, want_counts)
    assert rows.shape == (len(want_rows), 1)
    assert counts.dtype == np.int64


@pytest.mark.parametrize("bad", [[[1, 2], [3]], "abc", {"a": 1}, [1, [2]]])
def test_as_points_rejects_what_numpy_cannot_read(bad):
    with pytest.raises(DomainError, match="expected an array of numbers"):
        as_points(bad)
