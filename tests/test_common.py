import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as O
from anticonc._common import as_points, dedupe_points, distinct_rows, float_array, json_number
from anticonc.distributions import DiscreteDistribution
from anticonc.errors import DomainError, InputError


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


# --- the JSON number rule ------------------------------------------------------

_FLOAT_MAX_INT = int(sys.float_info.max)
# every finite JSON number: integers up to the float range, floats, -0.0
_JSON_NUMBERS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(-_FLOAT_MAX_INT, _FLOAT_MAX_INT),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(-0.0),
)


def _float_bits(x):
    return struct.pack("<d", x)


@given(_JSON_NUMBERS)
@settings(max_examples=300, deadline=None)
def test_json_number_reads_finite_numbers_as_float_does(v):
    got = json_number(v, "x")
    assert type(got) is float and _float_bits(got) == _float_bits(float(v))
    if isinstance(v, int):
        assert json_number(v, "x", int) is v


@pytest.mark.parametrize(
    "value, kind, message",
    [
        ("wide", float, "expected a number, got 'wide'"),
        (True, float, "expected a number, got True"),
        (None, float, "expected a number, got None"),
        ([1.0], float, "expected a number, got [1.0]"),
        (1.5, int, "expected an integer, got 1.5"),
        (True, int, "expected an integer, got True"),
        (math.inf, float, "expected a finite number, got inf"),
        (math.nan, float, "expected a finite number, got nan"),
        (10**400, float, "expected a finite number, got 1" + "0" * 59),
        (10**400, int, "expected a finite number, got 1" + "0" * 59),
        ("y" * 100, float, "expected a number, got '" + "y" * 59),
    ],
    ids=["string", "bool", "null", "list", "fraction-int", "bool-int", "inf", "nan",
         "huge-int", "huge-int-int", "long-string"],
)
def test_json_number_refuses_naming_the_field_and_the_value(value, kind, message):
    # the value is shown in at most 60 characters
    with pytest.raises(InputError) as exc:
        json_number(value, "x", kind)
    assert str(exc.value) == "x: " + message


def _nested(flat, shape):
    if not shape:
        return flat[0]
    step = len(flat) // shape[0] if shape[0] else 0
    return [_nested(flat[i * step : (i + 1) * step], shape[1:]) for i in range(shape[0])]


@st.composite
def _numeric_lists(draw):
    """A regularly nested list (or a scalar) of JSON numbers, inf and nan too."""
    shape = draw(st.lists(st.integers(0, 4), max_size=3))
    size = math.prod(shape)
    entries = st.one_of(_JSON_NUMBERS, st.floats())
    return _nested(draw(st.lists(entries, min_size=size, max_size=size)), shape)


@given(_numeric_lists())
@settings(max_examples=300, deadline=None)
def test_float_array_reads_numeric_lists_as_numpy_does(v):
    got = float_array(v)
    want = np.asarray(v, dtype=float)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_float_array_passes_float_arrays_through_uncopied():
    a = np.arange(4.0)
    assert float_array(a) is a
    np.testing.assert_array_equal(float_array(np.arange(3)), [0.0, 1.0, 2.0])


@pytest.mark.parametrize(
    "bad",
    ["2", ["1", 2], True, [True, False], [True, 2], [1.5, None], None, [{"a": 1}],
     10**400, [1.0, 10**400], np.array(["a"]), np.array([True]), [1 + 2j]],
    ids=["string", "string-list", "bool", "bool-list", "bool-among-ints", "null-among-floats",
         "null", "mapping-list", "huge-int", "huge-int-in-list", "string-array", "bool-array",
         "complex"],
)
def test_float_array_refuses_what_is_not_a_number(bad):
    with pytest.raises(DomainError, match="expected an array of numbers"):
        float_array(bad)
