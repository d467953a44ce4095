import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as O
from anticonc._common import (
    as_points,
    check_count,
    check_scale,
    dedupe_points,
    distinct_rows,
    float_array,
    json_number,
    make_rng,
    merge_sorted,
)
from anticonc.bounds import (
    build_bound_report,
    h_char_fn,
    smoothing_law,
    verify_pointwise_chain,
)
from anticonc.concentration import (
    ConcentrationEstimate,
    WeightVector,
    WeightedSum,
    esseen_upper_q,
    exact_q,
    exact_q_of_distribution,
    mc_q,
    regularity_check,
    weighted_sum_char_fn,
    weighted_sum_distribution,
)
from anticonc.distributions import (
    CompoundPoisson,
    DiscreteDistribution,
    cp_sample_rng,
    half_empirical_measure,
    lambda_d,
    spectral_measure,
    tail_mass,
    truncated_second_moment,
)
from anticonc.errors import DomainError, InputError
from anticonc.lcd import LcdParams, violation_condition
from anticonc.progressions import (
    Cgap,
    Gap,
    GapImageProgression,
    beta_rm,
    check_caps,
    gamma_rs,
    uncovered_mass,
)
from anticonc.verify import run_verification


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


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 60),
    dim=st.integers(1, 3),
    ties=st.booleans(),
    zero_weights=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_merge_of_sorted_rows_matches_the_plain_merge(n, dim, ties, zero_weights, seed):
    # lexsorted rows, with runs closer than the tolerance and zero-weight groups
    rng = np.random.default_rng(seed)
    p = rng.integers(-2, 3, size=(n, dim)) * 0.5 if ties else rng.uniform(-2.0, 2.0, (n, dim))
    p[rng.random(n) < 0.3] += 1e-13
    p = p[np.lexsort(p.T[::-1])]
    w = rng.uniform(0.0, 1.0, size=n)
    if zero_weights:
        w[::2] = 0.0
    pts, wts = merge_sorted(p, w, 1e-12)
    want_pts, want_wts = O.oracle_merge_pass(p, w, 1e-12)
    np.testing.assert_array_equal(_bits(pts), _bits(want_pts))
    np.testing.assert_array_equal(_bits(wts), _bits(want_wts))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 60),
    dim=st.integers(1, 3),
    ties=st.booleans(),
    shuffle=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_dedupe_keeps_lex_ordered_rows_in_every_dimension(n, dim, ties, shuffle, seed):
    rng = np.random.default_rng(seed)
    p = rng.integers(-2, 3, size=(n, dim)) * 0.5 if ties else rng.uniform(-2.0, 2.0, (n, dim))
    # distinct rows in lexicographic order, none within the tolerance: the very arrays back
    rows, _ = distinct_rows(p)
    w = rng.uniform(0.0, 1.0, size=len(rows))
    pts, wts = dedupe_points(rows, w, 1e-12)
    assert pts is rows and wts is w
    # rows with ties, signed zeros and runs within the tolerance, in lexicographic
    # order or shuffled: the lexsort route bit for bit
    p[rng.random((n, dim)) < 0.2] = -0.0
    p[rng.random((n, dim)) < 0.2] = 0.0
    p[rng.random(n) < 0.3] += 1e-13
    p = p[rng.permutation(n)] if shuffle else p[np.lexsort(p.T[::-1])]
    w = rng.uniform(0.0, 1.0, size=n)
    pts, wts = dedupe_points(p, w, 1e-12)
    want_pts, want_wts = O.oracle_dedupe_points(p, w, 1e-12)
    np.testing.assert_array_equal(_bits(pts), _bits(want_pts))
    np.testing.assert_array_equal(_bits(wts), _bits(want_wts))


def test_points_in_r0_are_refused():
    # a (k, 0) array has no coordinate to order by: the law's constructor
    # raised a TypeError from the lexsort, a traceback under the CLI
    with pytest.raises(DomainError, match=r"^expected points in R\^d for some d >= 1, got R\^0$"):
        as_points([[], []])
    with pytest.raises(DomainError, match=r"^atoms: expected points in R\^d"):
        DiscreteDistribution([[]], [1.0])


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
    want = np.asarray(v, dtype=float)
    if not np.isfinite(want).all():
        # the array rule: NaN and +-inf are refused, naming the first of them
        first = float(want[~np.isfinite(want)][0])
        with pytest.raises(DomainError, match=f"^expected finite numbers, got {first}$"):
            float_array(v)
        return
    got = float_array(v)
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


@pytest.mark.parametrize(
    "value, positive, finite, message",
    [
        (True, False, False, "expected a number, got True"),
        (None, False, False, "expected a number, got None"),
        ("1", False, False, "expected a number, got '1'"),
        (math.nan, False, False, "expected a nonnegative number, got nan"),
        (-1.0, False, False, "expected a nonnegative number, got -1.0"),
        (-math.inf, False, False, "expected a nonnegative number, got -inf"),
        (0.0, True, False, "expected a positive number, got 0.0"),
        (math.inf, False, True, "expected a finite nonnegative number, got inf"),
        (math.inf, True, True, "expected a finite positive number, got inf"),
        (10**400, False, False, "expected a nonnegative number, got 1" + "0" * 59),
    ],
    ids=["bool", "null", "string", "nan", "negative", "-inf", "zero-positive", "inf-finite",
         "inf-finite-positive", "huge-int"],
)
def test_scale_rule_refuses_naming_the_argument_and_the_value(value, positive, finite, message):
    with pytest.raises(DomainError) as exc:
        check_scale(value, "x", positive=positive, finite=finite)
    assert str(exc.value) == "x: " + message


@pytest.mark.parametrize(
    "value, positive, finite",
    [(0, False, False), (0.0, False, True), (-0.0, False, False), (2, True, True),
     (np.float32(0.5), True, True), (np.int64(3), True, True), (5e-324, True, True),
     (sys.float_info.max, True, True), (math.inf, True, False)],
)
def test_scale_rule_returns_the_float(value, positive, finite):
    got = check_scale(value, "x", positive=positive, finite=finite)
    assert type(got) is float and _float_bits(got) == _float_bits(float(value))


# Every site of the scale rule: its call with the scale argument set to v,
# and the argument's name.
_RAD = DiscreteDistribution([-1.0, 1.0], [0.5, 0.5])
_A = WeightVector([1.0, 2.0, 3.5])
_G = DiscreteDistribution([-1.0, 0.0, 2.0], [0.25, 0.5, 0.25])
_W = spectral_measure(_A.rows)
_SCALE_SITES = {
    "estimate": ("tau", lambda v: ConcentrationEstimate(0.5, "exact", 0.0, v).tau),
    "exact_q": ("tau", lambda v: exact_q_of_distribution(_G, v)),
    "mc_q": ("tau", lambda v: mc_q(WeightedSum(_RAD, _A), v, 1000, 1).value),
    "esseen-tau": ("tau", lambda v: esseen_upper_q(weighted_sum_char_fn(_RAD, _A), v, 1).value),
    "esseen-c": ("c_esseen",
                 lambda v: esseen_upper_q(weighted_sum_char_fn(_RAD, _A), 1.0, 1, v).value),
    "regularity-mu": ("mu", lambda v: regularity_check(_G, v, 1.0).holds),
    "regularity-lam": ("lam", lambda v: regularity_check(_G, 1.0, v).holds),
    "tail_mass": ("delta", lambda v: tail_mass(_G, v)),
    "second_moment": ("tau", lambda v: truncated_second_moment(_G, v)),
    "lambda_d": ("ratio", lambda v: lambda_d(_G, v)),
    "compound_poisson": ("intensity", lambda v: CompoundPoisson(v, _RAD).intensity),
    "uncovered_mass": ("tau", lambda v: uncovered_mass(_W, [[0.0]], v)),
    "beta_rm": ("tau", lambda v: beta_rm(_W, v, 1, 3).value),
    "gamma_rs": ("tau", lambda v: gamma_rs(_W, v, 1, 3).value),
    "smoothing_law": ("power", lambda v: smoothing_law(_A, v).intensity),
    "chain": ("big_d", lambda v: verify_pointwise_chain(
        _A, np.linspace(-3.0, 3.0, 11), LcdParams(0.5, 1.0), v).n_points),
    "report-tau": ("tau", lambda v: build_bound_report(
        _RAD, _A, v, 1.0, 0.5, mc_samples=1000).bounds["transfer_plain"]),
    "report-kappa": ("kappa", lambda v: build_bound_report(
        _RAD, _A, 1.0, v, 0.5, mc_samples=1000).bounds["transfer_plain"]),
    "report-delta": ("delta", lambda v: build_bound_report(
        _RAD, _A, 1.0, 1.0, v, mc_samples=1000).bounds["transfer_window"]),
    "lcd-alpha": ("alpha", lambda v: LcdParams(0.5, v).alpha),
    "lcd-theta_max": ("theta_max", lambda v: LcdParams(0.5, 1.0, v).theta_max),
}
# The edges each site accepts, with the value it gives there; every other
# edge of {0, +inf} is refused.  +inf is a limit where it is accepted.
_SCALE_EDGES = {
    "estimate": {0.0: 0.0, math.inf: math.inf},
    "exact_q": {0.0: 0.5, math.inf: 1.0},
    "mc_q": {0.0: 0.142, math.inf: 1.0},
    "tail_mass": {0.0: 0.5, math.inf: 0.0},
    "second_moment": {math.inf: 0.0},
    "lambda_d": {math.inf: 0.0},
    "compound_poisson": {0.0: 0.0},
    "uncovered_mass": {0.0: 1.0, math.inf: 0.0},
    "beta_rm": {0.0: 2 / 3, math.inf: 0.0},
    "gamma_rs": {0.0: 2 / 3, math.inf: 0.0},
    "smoothing_law": {0.0: 0.0},
    "chain": {math.inf: 11},
    "report-tau": {math.inf: 1.0},  # p(inf) = 0: the smoothing law is a point mass
    "report-delta": {math.inf: 1.0},  # one window, of mass 1
}
# +inf as kappa is refused downstream: tau/kappa = 0 is not a positive ratio
_SCALE_REFUSED = [
    (site, v)
    for site in _SCALE_SITES
    for v in (math.nan, -1.0, 0.0, math.inf)
    if v not in _SCALE_EDGES.get(site, {}) and (site, v) != ("report-kappa", math.inf)
]


@pytest.mark.parametrize(
    "site, value", _SCALE_REFUSED, ids=[f"{s}-{v}" for s, v in _SCALE_REFUSED]
)
def test_every_scale_site_refuses_naming_the_argument(site, value):
    name, call = _SCALE_SITES[site]
    with pytest.raises(DomainError, match=f"^{name}: expected a .*number, got {value}$"):
        call(value)


_SCALE_KEPT = [(site, v, want) for site, edges in _SCALE_EDGES.items()
               for v, want in edges.items()]


@pytest.mark.parametrize(
    "site, value, want", _SCALE_KEPT, ids=[f"{s}-{v}" for s, v, _ in _SCALE_KEPT]
)
def test_every_scale_site_keeps_its_value_at_the_accepted_edges(site, value, want):
    assert _SCALE_SITES[site][1](value) == want


# --- the array rule ------------------------------------------------------------

# Every array argument of the public entry points: a finite list it accepts,
# and the call with that list (or an array of it) in its place.  The refusal
# names the non-finite entry, so it is the entry that fails, not the list.
_ARRAY_SITES = {
    "weights": ([1.0, 2.0, 3.5], lambda v: WeightVector(v)),
    "atoms": ([-1.0, 1.0], lambda v: DiscreteDistribution(v, [0.5, 0.5])),
    "atom-weights": ([0.5, 0.5], lambda v: DiscreteDistribution([-1.0, 1.0], v)),
    "gap-radii": ([1.0, 2.0], lambda v: Gap(v, np.eye(2))),
    "gap-generators": ([1.0, 0.0, 0.0, 1.0], lambda v: Gap([1.0, 2.0], np.reshape(v, (2, 2)))),
    "cgap-step": ([0.5, 1.5], lambda v: Cgap(v, [1.0, 1.0], 9)),
    "cgap-box": ([1.0, 1.0], lambda v: Cgap([0.5, 1.5], v, 9)),
    "image-step": ([1.5], lambda v: GapImageProgression(Gap([1.0], [[1.0]]), tuple(v))),
    "progression-points": ([-1.0, 0.0, 1.0], lambda v: uncovered_mass(_W, v, 0.5)),
    "chain-grid": ([-3.0, -1.0, 0.5, 2.0], lambda v: verify_pointwise_chain(_A, v)),
    "lcd-point": ([0.25], lambda v: violation_condition(v, WeightVector([1.0]), LcdParams(0.5, 1.0))),
    "phases": ([0.5, 1.0], lambda v: _A.phases(v)),
    "char-fn": ([0.5, 1.0], lambda v: weighted_sum_char_fn(_RAD, _A)(v)),
    "h-char-fn": ([0.5, 1.0], lambda v: h_char_fn(_A)(v)),
    "spectral-measure": ([1.0, 2.0], lambda v: spectral_measure(v)),
    "half-empirical": ([1.0, 2.0], lambda v: half_empirical_measure(v)),
}


@given(
    st.sampled_from(sorted(_ARRAY_SITES)),
    st.integers(0, 3),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_a_non_finite_entry_in_any_array_argument_is_refused(site, at, bad, as_array):
    base, call = _ARRAY_SITES[site]
    v = list(base)
    v[at % len(v)] = bad
    with pytest.raises(DomainError, match=f"expected finite numbers, got {bad}$"):
        call(np.asarray(v) if as_array else v)


def test_dedupe_points_reads_a_gap_past_the_float_range_as_far():
    # 1e308 - (-1e308) overflows to inf: no merge, and no RuntimeWarning
    pts, w = dedupe_points(np.array([[-1e308], [1e308]]), np.array([0.5, 0.5]), 1e-12)
    np.testing.assert_array_equal(pts, [[-1e308], [1e308]])
    pts, w = dedupe_points(np.array([[-1e308, 0.0], [1e308, 0.0]]), np.array([0.5, 0.5]), 1e-12)
    assert pts.shape == (2, 2)


# --- the count rule ------------------------------------------------------------


@pytest.mark.parametrize(
    "value, minimum, maximum, message",
    [
        (True, 0, None, "expected an integer of at least 0, got True"),
        (1.0, 0, None, "expected an integer of at least 0, got 1.0"),
        (math.nan, 0, None, "expected an integer of at least 0, got nan"),
        ("3", 0, None, "expected an integer of at least 0, got '3'"),
        (None, 0, None, "expected an integer of at least 0, got None"),
        (0, 1, None, "expected an integer of at least 1, got 0"),
        (np.int64(-1), 0, None, "expected an integer of at least 0, got np.int64(-1)"),
        (4, 1, 3, "expected an integer from 1 to 3, got 4"),
        (2**64, 0, 2**64 - 1, "expected an integer from 0 to 18446744073709551615, got "
         "18446744073709551616"),
    ],
    ids=["bool", "float", "nan", "string", "null", "below", "numpy-below", "above", "past-2^64"],
)
def test_count_rule_refuses_naming_the_argument_and_the_value(value, minimum, maximum, message):
    with pytest.raises(DomainError) as exc:
        check_count(value, "x", minimum, maximum)
    assert str(exc.value) == "x: " + message


@pytest.mark.parametrize("value", [0, 3, np.int8(3), np.uint64(2**64 - 1), 2**64 - 1])
def test_count_rule_returns_the_int(value):
    got = check_count(value, "x", 0, 2**64 - 1)
    assert type(got) is int and got == int(value)


_X = DiscreteDistribution.rademacher()
# Every site of the count rule: its call with the count argument set to v,
# and the argument's name.
_COUNT_SITES = {
    "mc-seed": ("seed", lambda v: mc_q(WeightedSum(_RAD, _A), 1.0, 1000, v)),
    "report-seed": ("seed", lambda v: build_bound_report(_RAD, _A, 1.0, 1.0, 0.5, seed=v,
                                                         mc_samples=1000)),
    "make_rng": ("seed", lambda v: make_rng(v)),
    "rank": ("rank r", lambda v: check_caps(v, m=3)),
    "beta-rank": ("rank r", lambda v: beta_rm(_W, 0.5, v, 3)),
    "beta-cap": ("cap m", lambda v: beta_rm(_W, 0.5, 1, v)),
    "gamma-cap": ("cap s", lambda v: gamma_rs(_W, 0.5, 1, v)),
    "cgap-cap": ("cap m", lambda v: Cgap([1.0], [1.0], v)),
    "esseen-dim": ("dim", lambda v: esseen_upper_q(weighted_sum_char_fn(_RAD, _A), 1.0, v)),
    "lambda_d": ("d", lambda v: lambda_d(_G, 1.0, v)),
    "ambient-dim": ("ambient dimension", lambda v: Gap([], [], ambient_dim=v)),
    "coordinate": ("coordinate", lambda v: WeightVector([[1.0, 2.0]]).coordinate(v)),
    "mc-samples": ("n_samples", lambda v: mc_q(WeightedSum(_RAD, _A), 1.0, v, 1)),
    "cp-samples": ("n_samples", lambda v: cp_sample_rng(CompoundPoisson(1.0, _RAD), v,
                                                        make_rng(1))),
    "convolution-budget": ("budget", lambda v: weighted_sum_distribution(_X, _A, v)),
    "sweep-budget": ("budget", lambda v: exact_q_of_distribution(_G, 1.0, v)),
    "exact_q-budget": ("budget", lambda v: exact_q(_X, _A, 1.0, v)),
    "regularity-budget": ("budget", lambda v: regularity_check(_G, 1.0, 2.0, v)),
    "verify-budget": ("budget", lambda v: run_verification(exact_budget=v)),
}


@given(
    st.sampled_from(sorted(_COUNT_SITES)),
    st.one_of(st.booleans(), st.floats(), st.just(math.nan)),
)
@settings(max_examples=200, deadline=None)
def test_a_bool_float_or_nan_in_any_count_argument_is_refused(site, value):
    name, call = _COUNT_SITES[site]
    with pytest.raises(DomainError, match=f"{name}: expected an integer"):
        call(value)
