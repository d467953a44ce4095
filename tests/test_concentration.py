import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _oracles as O
from anticonc import concentration
from anticonc._common import distinct_rows, make_rng
from anticonc.bounds import smoothing_law
from anticonc.concentration import (
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
from anticonc.distributions import CompoundPoisson, DiscreteDistribution, cp_sample_rng, symmetrize
from anticonc.errors import CapacityError, DomainError
from anticonc.instances import load_corpus

RAD = DiscreteDistribution.rademacher()
U3 = DiscreteDistribution.from_shorthand("uniform{-1,0,1}")
B3 = DiscreteDistribution.from_shorthand("bernoulli(0.3)")

_ORACLE_LAWS = {
    "rademacher": (RAD, O.RADEMACHER),
    "uniform3": (U3, O.UNIFORM3),
    "bernoulli": (B3, O.bernoulli(0.3)),
}


def test_weight_vector_basics():
    a = WeightVector([[3.0], [4.0]])
    assert a.n == 2 and a.dim == 1
    mat, det = a.gram()
    assert mat.shape == (1, 1) and abs(det - 25.0) < 1e-12
    b = WeightVector([[1.0, 0.0], [0.0, 2.0]])
    assert b.coordinate(1).rows[:, 0].tolist() == [0.0, 2.0]
    back = WeightVector.from_json_obj(b.rows.tolist())
    np.testing.assert_array_equal(back.rows, b.rows)


@pytest.mark.parametrize("j", [True, 0.5, -1, 2])
def test_coordinate_refuses_an_index_that_is_not_a_column(j):
    # True indexed a new axis (a garbled ndim=3 message), 0.5 raised IndexError
    with pytest.raises(DomainError, match=f"^coordinate: expected an integer from 0 to 1, got {j}$"):
        WeightVector([[1.0, 2.0]]).coordinate(j)


def test_gram_det_clamped_nonnegative():
    a = WeightVector([[1.0, 1.0], [2.0, 2.0]])
    _, det = a.gram()
    assert det == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "rows, want",
    [
        ([[1e300]], math.inf),
        ([[1e300, 1e300], [1e300, 1e300]], 0.0),
        ([[1e308, 1e6], [3.0, 1e300]], math.inf),
        # one scale for all columns sent the 1e-100 column to 0: det 0.0, lcd_* vacuous
        ([[1e200, 0.0], [0.0, 1e-100]], 1e200),
        # the Gram entry 1e-400 underflowed to 0, and so did the plain determinant
        ([[1e150, 0.0], [0.0, 1e-200]], 1e-100),
        ([[1e-200, 1e-200], [2e-200, 2e-200]], 0.0),
    ],
    ids=["1d", "singular", "2d", "column-scales", "column-underflow", "underflow-singular"],
)
def test_gram_det_past_the_float_range_is_a_number(rows, want):
    # the Gram matrix overflowed or underflowed, and its determinant was inf
    # or NaN with a warning, or 0.0; abs=0 so that 0.0 never passes for 1e-100
    _, det = WeightVector(rows).gram()
    assert det == pytest.approx(want, rel=1e-12, abs=0.0)


def test_gram_det_in_the_float_range_is_the_plain_determinant():
    # the rescaled route runs only where the plain determinant is not finite
    for rows in (np.random.default_rng(3).uniform(-2.0, 2.0, (7, 3)), [[3.0], [4.0]]):
        _, det = WeightVector(rows).gram()
        rows = np.asarray(rows)
        assert det == float(np.linalg.det(rows.T @ rows))


def test_gram_det_of_rank_deficient_integer_rows_is_the_plain_determinant():
    # a nonzero integer column's Gram entry is at least 1, so the rescaled
    # route never turns the roundoff of an exactly singular matrix into a det
    rng = np.random.default_rng(11)
    for _ in range(200):
        n, d = int(rng.integers(1, 6)), int(rng.integers(2, 4))
        rows = rng.integers(-4, 5, (n, d)).astype(float)
        rows[:, -1] = rows[:, :-1] @ rng.integers(-3, 4, d - 1)
        if not rows.any():
            continue  # a weight vector needs a nonzero row
        _, det = WeightVector(rows).gram()
        assert det == max(0.0, float(np.linalg.det(rows.T @ rows)))


def test_exact_q_1d_random_instances_match_oracle():
    rng = np.random.default_rng(42)
    for trial in range(40):
        name = ("rademacher", "uniform3", "bernoulli")[trial % 3]
        x, (sup, pr) = _ORACLE_LAWS[name]
        n = int(rng.integers(2, 8))
        w = rng.integers(-5, 6, size=n)
        w[w == 0] = 1
        tau = float(rng.choice([0.0, 0.5, 1.0, 2.0, 3.3]))
        got = exact_q(x, WeightVector(w[:, None].astype(float)), tau).value
        want = float(O.oracle_q_1d(sup, pr, [float(v) for v in w], tau))
        assert abs(got - want) < 1e-12, (name, w.tolist(), tau)


def test_exact_q_2d_random_instances_match_oracle():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        rows = rng.integers(-2, 3, size=(n, 2)).astype(float)
        rows[np.all(rows == 0, axis=1)] = [1.0, 0.0]
        tau = float(rng.choice([0.0, 1.0, 2.0]))
        got = exact_q(RAD, WeightVector(rows), tau).value
        want = O.oracle_q_ball(*O.RADEMACHER, rows, tau)
        assert abs(got - want) < 1e-12, (rows.tolist(), tau)


def test_exact_q_3d_matches_oracle():
    rows = np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
    )
    # 0 and the three rows are a regular tetrahedron (circumradius 0.866):
    # at tau/2 = 0.9 no centre pinned by one or two of the atoms covers all
    # four, but a vertex pinned by three of them does
    tetra = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    cases = [("rademacher", rows, tau) for tau in (0.0, 1.0, 2.0)]
    cases.append(("bernoulli", tetra, 1.8))
    for law, r, tau in cases:
        x, oracle_law = _ORACLE_LAWS[law]
        got = exact_q(x, WeightVector(r), tau).value
        want = O.oracle_q_ball(*oracle_law, r, tau)
        assert abs(got - want) < 1e-12, (law, tau, got, want)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    law=st.sampled_from(sorted(_ORACLE_LAWS)),
    dim=st.integers(2, 4),
    integer=st.booleans(),
    tau=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
)
def test_exact_q_multid_matches_oracle(data, law, dim, integer, tau):
    # Non-dyadic step weights (uniform3, bernoulli(0.3)) make the ball sums
    # depend on summation order; real rows with three decimals are generic
    # but keep every distance that is not an exact tie far from the radius.
    x, (sup, pr) = _ORACLE_LAWS[law]
    # the oracle enumerates every subset of up to d+1 atoms: keep 16-32 atoms,
    # and 8-9 in 4-D
    max_n = 3 if law == "uniform3" else 7 - dim
    if dim == 4:
        max_n = 2 if law == "uniform3" else 3
    n = data.draw(st.integers(1, max_n), label="n")
    entry = st.integers(-2, 2) if integer else st.integers(-2000, 2000).map(lambda v: v / 1000)
    rows = np.array(
        data.draw(
            st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=n, max_size=n),
            label="rows",
        ),
        dtype=float,
    )
    assume(np.any(rows))
    got = exact_q(x, WeightVector(rows), tau).value
    want = O.oracle_q_ball(sup, pr, rows, tau)
    assert abs(got - want) < 1e-12, (law, rows.tolist(), tau, got, want)


def test_multid_budgets_are_pinned():
    # one budget caps the near pairs and, in 3-D, every candidate a triple is
    # grown from: a pair with a later neighbour of its last vertex; generic
    # rows put no distance within 1e-9 of tau
    rng = np.random.default_rng(3)
    f2 = weighted_sum_distribution(RAD, WeightVector(rng.uniform(0.3, 2.0, size=(6, 2))))
    f3 = weighted_sum_distribution(RAD, WeightVector(rng.uniform(0.3, 2.0, size=(7, 3))))
    pairs2 = len(O.oracle_near_pairs(f2.atoms, 1.0)[0])
    ii, jj = O.oracle_near_pairs(f3.atoms, 1.5)
    later = np.bincount(ii, minlength=len(f3.atoms))
    grown = int(later[jj].sum())
    # 91 of 2,016 pairs; 292 pairs, grown into 746 triple candidates, so one
    # less than the count passes the pairs and stops before the triples are
    # built
    assert pairs2 == 91 and len(ii) == 292 and grown == 746
    for f, tau, count in [(f2, 1.0, pairs2), (f3, 1.5, len(ii) + grown)]:
        exact_q_of_distribution(f, tau, budget=count)
        with pytest.raises(CapacityError):
            exact_q_of_distribution(f, tau, budget=count - 1)


def test_clique_candidates_are_charged_before_they_are_built(monkeypatch):
    # 2^10 atoms pairwise within tau: 523,776 pairs fit the default budget,
    # but with their C(1024, 3) triple candidates they make 178,956,800; the
    # sweep must stop before it fits a single centre or lists a triple
    rows = np.random.default_rng(1).uniform(0.3, 2.0, size=(10, 3))
    f = weighted_sum_distribution(RAD, WeightVector(rows))
    tau = 2 * float(np.abs(rows).sum())
    spy = mock.Mock(wraps=concentration._fit_cliques)
    monkeypatch.setattr(concentration, "_fit_cliques", spy)
    with pytest.raises(CapacityError, match="178956800"):
        exact_q_of_distribution(f, tau)
    assert spy.call_count == 0


def test_near_atoms_at_tau_zero_need_no_budget():
    # at tau = 0 no two distinct atoms are near: the candidates are the atoms
    rng = np.random.default_rng(5)
    for dim, n in [(2, 12), (3, 7)]:
        a = WeightVector(rng.uniform(0.3, 2.0, size=(n, dim)))
        assert exact_q(RAD, a, 0.0).value == 2.0**-n
        f = weighted_sum_distribution(RAD, a)
        assert exact_q_of_distribution(f, 0.0, budget=1) == 2.0**-n


def test_exact_q_3d_past_the_subset_count_matches_near_oracle():
    # 2^n atoms have sum_{j <= 4} C(2^n, j) subsets: 11M at n = 7, 2.9G at n = 9
    for n in (7, 8, 9):
        rows = np.random.default_rng(3).uniform(0.3, 2.0, size=(n, 3))
        for tau in (0.0, 1.0):
            got = exact_q(RAD, WeightVector(rows), tau).value
            assert got == O.oracle_q_ball_near(*O.RADEMACHER, rows, tau), (n, tau)


@settings(max_examples=20, deadline=None)
@given(
    law=st.sampled_from(sorted(_ORACLE_LAWS)),
    dim=st.integers(2, 3),
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    tau=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
)
def test_near_oracle_matches_all_subset_oracle(law, dim, n, seed, tau):
    _, (sup, pr) = _ORACLE_LAWS[law]
    # the all-subset oracle takes seconds past 16-32 atoms
    n = min(n, 3 if law == "uniform3" else 7 - dim)
    rows = make_rng(seed).integers(-2, 3, size=(n, dim)).astype(float)
    rows[0, 0] = 1.0
    want = O.oracle_q_ball(sup, pr, rows, tau)
    assert O.oracle_q_ball_near(sup, pr, rows, tau) == want


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 3),
    k=st.integers(1, 40),
    step=st.sampled_from([1.0, 0.1, 0.3, 1 / 3, 2.5e-7]),
    seed=st.integers(0, 2**32 - 1),
    reach_sq=st.integers(0, 12),
)
def test_near_pairs_match_dense_oracle_on_ties(dim, k, step, seed, reach_sq):
    # lattice points with a step: many distances tie with the reach, where
    # the kd-tree's rounding could differ from the dense test's
    pts = make_rng(seed).integers(-3, 4, size=(k, dim)) * step
    for reach in (math.sqrt(reach_sq) * step, float(np.linalg.norm(pts[0] - pts[-1]))):
        got = concentration._near_pairs(pts, reach)
        want = O.oracle_near_pairs(pts, reach)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        if len(want[0]):
            with pytest.raises(CapacityError):
                concentration._near_pairs(pts, reach, len(want[0]) - 1)


def test_exact_q_capacity_error():
    # generic weights never merge, so the support doubles every step
    rng = np.random.default_rng(0)
    a = WeightVector(rng.normal(size=(40, 1)))
    with pytest.raises(CapacityError):
        exact_q(RAD, a, 0.0, budget=10_000)


def test_window_is_closed_interval():
    # atoms at -1 and 1; a window of length exactly 2 captures both
    a = WeightVector([[1.0]])
    assert exact_q(RAD, a, 2.0).value == 1.0
    assert exact_q(RAD, a, 1.999).value == 0.5


@settings(max_examples=120, deadline=None)
@given(
    n=st.one_of(
        st.sampled_from([1, 2, 1023, 1024, 1025, 2047, 2048, 2049, 9000]),
        st.integers(1, 9000),
    ),
    values=st.sampled_from(["generic", "lattice", "near-minus-1e3"]),
    weights=st.sampled_from(["uniform", "zeros", "counts"]),
    tau=st.sampled_from([0.0, 1e-9, 0.5, 1.0, 3.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_window_sweep_matches_the_full_sweep(n, values, weights, tau, seed):
    # the block bounds must never skip the window of the largest mass
    rng = np.random.default_rng(seed)
    if values == "generic":
        z = rng.uniform(-50.0, 50.0, size=n)
    elif values == "lattice":
        z = rng.integers(-40, 41, size=n) * 0.25  # ties, and edges on atoms
    else:
        z = -1e3 + rng.integers(0, 2000, size=n) * 1e-3
    if weights == "counts":
        w = rng.integers(1, 5, size=n)
    else:
        w = rng.uniform(0.0, 1.0, size=n)
        if weights == "zeros":
            w[rng.random(n) < 0.5] = 0.0
    # the sweep reads ascending anchors, as a law's atoms and distinct_rows' rows are
    order = np.argsort(z, kind="stable")
    z, w = z[order], w[order]
    got = concentration._max_window_mass_1d(z, w, tau)
    assert got == O.oracle_max_window_mass(z, w, tau)


def test_weighted_sum_distribution_merges():
    dist = weighted_sum_distribution(RAD, WeightVector([[1.0], [1.0]]))
    assert dist.n_atoms == 3
    assert abs(dist.total_mass - 1.0) < 1e-12


def test_convolved_2d_law_is_not_sorted_again(monkeypatch):
    # each step sorts its rows once; the law's constructor finds them in
    # lexicographic order and sorts nothing
    calls = []
    lexsort = np.lexsort

    def spy(keys):
        calls.append(len(keys))
        return lexsort(keys)

    a = WeightVector(np.random.default_rng(0).uniform(0.3, 2.0, (8, 2)))
    monkeypatch.setattr(np, "lexsort", spy)
    law = weighted_sum_distribution(RAD, a)
    assert calls == [2] * a.n
    calls.clear()
    DiscreteDistribution(law.atoms, law.weights)
    assert calls == []


@pytest.mark.parametrize(
    "rows", [[[1e308], [1e308]], [[1e308, 1.0], [1e308, 2.0]], [[-1e308], [2.0]]]
)
def test_convolution_past_the_float_range_is_refused_without_a_warning(rows):
    # RuntimeWarnings are errors here: the sums overflow inside the step and the
    # law's array rule refuses them
    with pytest.raises(DomainError, match=r"^atoms: expected finite numbers, got -?inf$"):
        weighted_sum_distribution(DiscreteDistribution([-2.0, 1.0], [0.5, 0.5]), WeightVector(rows))


def test_mc_samples_past_the_float_range_are_refused_without_a_warning():
    sampler = WeightedSum(RAD, WeightVector([[1e308], [1e308]]))
    with pytest.raises(DomainError, match="^samples: expected finite numbers, got -?inf$"):
        mc_q(sampler, 0.5, 2000, 0)
    base = DiscreteDistribution([-1e308, 1e308], [0.5, 0.5])
    with pytest.raises(DomainError, match="^samples: expected finite numbers, got -?inf$"):
        mc_q(CompoundPoisson(4.0, base), 0.5, 2000, 0)


def test_weighted_sum_distribution_refuses_a_nan_budget():
    # every comparison with NaN is false: the convolution ran with no cap
    with pytest.raises(DomainError, match="^budget: expected an integer of at least 0, got nan$"):
        weighted_sum_distribution(RAD, WeightVector([1.0, 2.0]), math.nan)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    step=st.sampled_from(["rademacher", "uniform3", "bernoulli"]),
    p=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    dim=st.integers(1, 3),
    generic=st.booleans(),
)
def test_weighted_sum_distribution_matches_the_plain_route_bit_for_bit(data, step, p, dim, generic):
    # equal step weights sort in place, unequal ones through one permutation;
    # small integer and half-integer rows, zero rows, repeats and negative
    # rows force merges, and bernoulli(0) or (1) leaves zero-weight atoms
    x = {
        "rademacher": RAD,
        "uniform3": U3,
        "bernoulli": DiscreteDistribution.from_shorthand(f"bernoulli({p})"),
    }[step]
    n = data.draw(st.integers(1, {1: 9, 2: 7, 3: 5}[dim] - (step == "uniform3")), label="n")
    if generic:
        entry = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)
    else:
        entry = st.integers(-4, 4).map(lambda v: v / 2)
    rows = np.array(
        data.draw(
            st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=n, max_size=n),
            label="rows",
        ),
        dtype=float,
    )
    assume(np.any(rows))
    got = weighted_sum_distribution(x, WeightVector(rows))
    want_pts, want_w = O.oracle_weighted_sum_distribution(x.atoms[:, 0], x.weights, rows)
    assert got.atoms.tobytes() == want_pts.tobytes()
    assert got.weights.tobytes() == want_w.tobytes()


def _traced_peak_ratio(x, rows):
    tracemalloc.start()
    try:
        law = weighted_sum_distribution(x, WeightVector(rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert law.n_atoms == 2 ** len(rows)  # generic: no merge
    # over the atoms alone: a broadcast weight's nbytes counts bytes it does not hold
    return peak / law.atoms.nbytes, law.weights.strides


def test_convolution_holds_one_copy_of_each_step():
    # equal weights are one value; a step holds one copy of its points, and
    # the merge scan one gap and one flag per point more (2.125); with unequal
    # weights a step also holds its weights, one permutation and one gathered
    # copy (4.0); a full weight array at every step read 3.13, and a step that
    # also held sorted copies, and a law that copied them, read 5.25
    rows = np.random.default_rng(0).uniform(0.3, 2.0, 16)
    ratio, strides = _traced_peak_ratio(RAD, rows)
    assert ratio <= 2.2 and strides == (0,)
    ratio, strides = _traced_peak_ratio(B3, rows)
    assert ratio <= 4.1 and strides == (8,)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), k=st.integers(2, 4), lattice=st.booleans())
def test_equal_weight_convolution_holds_one_weight_until_a_merge(data, dim, k, lattice):
    # rademacher or uniform{...} steps; half-integer atoms and rows make
    # lattice sums that merge, generic rows keep every sum apart
    if k == 2 and data.draw(st.booleans(), label="rademacher"):
        x = RAD
    else:
        vals = data.draw(st.lists(st.integers(-6, 6), min_size=k, max_size=k, unique=True))
        x = DiscreteDistribution.from_shorthand("uniform{%s}" % ",".join(str(v / 2) for v in vals))
    bits = {1: 9, 2: 7, 3: 5}[dim]
    n = data.draw(st.integers(1, max(1, int(bits * math.log(2) / math.log(k)))), label="n")
    if lattice:
        entry = st.integers(-4, 4).map(lambda v: v / 2)
    else:
        entry = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)
    rows = np.array(
        data.draw(
            st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=n, max_size=n),
            label="rows",
        ),
        dtype=float,
    )
    assume(np.any(rows))
    law = weighted_sum_distribution(x, WeightVector(rows))
    want_pts, want_w = O.oracle_weighted_sum_distribution(x.atoms[:, 0], x.weights, rows)
    assert law.atoms.tobytes() == want_pts.tobytes()
    assert law.weights.tobytes() == want_w.tobytes()
    assert not law.weights.flags.writeable
    # merges only shrink the support: k^n atoms means no step merged
    assert (law.weights.strides == (0,)) == (law.n_atoms == k**n)


@pytest.mark.parametrize("dim, n", [(1, 10), (2, 7), (3, 5)])
def test_a_broadcast_weight_reads_as_its_plain_copy(dim, n):
    rows = np.random.default_rng(dim).uniform(0.3, 2.0, (n, dim))
    law = weighted_sum_distribution(RAD, WeightVector(rows))
    plain = DiscreteDistribution(law.atoms, law.weights.copy())
    assert law.weights.strides == (0,) and plain.weights.strides == (8,)
    for tau in (0.5, 1.0, 3.0):
        assert exact_q_of_distribution(law, tau) == exact_q_of_distribution(plain, tau)
    assert regularity_check(law, 2.0, 0.5) == regularity_check(plain, 2.0, 0.5)
    got, want = symmetrize(law), symmetrize(plain)
    assert got.atoms.tobytes() == want.atoms.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()
    samplers = [(CompoundPoisson(3.0, law), CompoundPoisson(3.0, plain))]
    if dim == 1:  # a law on the line is also a step law
        a = WeightVector([1.0, -0.5, 2.0])
        samplers.append((WeightedSum(law, a), WeightedSum(plain, a)))
    for s, t in samplers:
        assert mc_q(s, 1.0, 3000, 7) == mc_q(t, 1.0, 3000, 7)


def test_convolved_law_is_read_only():
    # the law adopts the convolution's arrays uncopied and must still freeze them
    for x in (RAD, B3):
        law = weighted_sum_distribution(x, WeightVector([1.0, 2.5, -0.5]))
        assert not law.atoms.flags.writeable and not law.weights.flags.writeable


def test_mc_q_refuses_a_fractional_sample_count():
    # 1000.5 passed the minimum and ended in a numpy TypeError
    with pytest.raises(DomainError, match="^n_samples: expected an integer of at least 0, got 1000.5$"):
        mc_q(WeightedSum(RAD, WeightVector([1.0, 2.0])), 1.0, 1000.5, 1)


def test_mc_q_agrees_with_exact_and_is_seeded():
    a = WeightVector(np.ones((10, 1)))
    exact = exact_q(RAD, a, 2.0).value
    est1 = mc_q(WeightedSum(RAD, a), 2.0, 50_000, 3)
    est2 = mc_q(WeightedSum(RAD, a), 2.0, 50_000, 3)
    assert est1.value == est2.value
    assert est1.stderr > 0.0
    assert abs(est1.value - exact) <= 5.0 * est1.stderr
    with pytest.raises(DomainError):
        mc_q(WeightedSum(RAD, a), 2.0, 10, 3)
    with pytest.raises(DomainError):
        mc_q(WeightedSum(RAD, a), math.nan, 50_000, 3)


def test_mc_q_multid_is_a_lower_bound_heuristic():
    a = WeightVector([[1.0, 0.0], [0.0, 1.0]])
    exact = exact_q(RAD, a, 2.0).value
    est = mc_q(WeightedSum(RAD, a), 2.0, 20_000, 11)
    assert est.value <= exact + 3.0 * est.stderr


def _assert_mc_count_matches_oracle(sampler, tau, n_samples, seed):
    """mc_q's count equals the raw-row count on the same draws."""
    rng = make_rng(seed)
    if isinstance(sampler, CompoundPoisson):
        samples = cp_sample_rng(sampler, n_samples, rng)
    else:
        samples = sampler.sample(n_samples, rng)
    sub_idx = None
    if samples.shape[1] > 1:
        sub_idx = rng.choice(n_samples, size=min(n_samples, 256), replace=False)
    count = O.oracle_mc_count(samples, tau, sub_idx)
    # count / n is one-to-one on integer counts, so this is count equality
    assert mc_q(sampler, tau, n_samples, seed).value == count / n_samples
    return samples


@pytest.mark.parametrize("spec", load_corpus(), ids=lambda spec: spec.id)
def test_mc_q_count_matches_raw_row_oracle_on_corpus(spec):
    tau, kappa = spec.require("tau", "kappa")
    law = smoothing_law(spec.a, spec.smoothing_power)
    _assert_mc_count_matches_oracle(law, kappa, 2000, 5)
    _assert_mc_count_matches_oracle(WeightedSum(spec.x, spec.a), tau, 2000, 5)


def _same_draws(got, want, rng_got, rng_want):
    """Bit-equal draws, and both generators left at the same point of the stream."""
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("spec", load_corpus(), ids=lambda spec: spec.id)
def test_samplers_match_the_plain_search_oracles_bit_for_bit(spec, seed):
    # the guide-table search leaves the random stream and every draw as a
    # plain np.searchsorted gives them, on every smoothing law and step law
    law = smoothing_law(spec.a, spec.smoothing_power)
    rng, rng_o = make_rng(seed), make_rng(seed)
    got = cp_sample_rng(law, 3000, rng)
    want = O.oracle_cp_sample(law.intensity, law.base.atoms, law.base.weights, 3000, rng_o)
    _same_draws(got, want, rng, rng_o)
    rng, rng_o = make_rng(seed), make_rng(seed)
    got = WeightedSum(spec.x, spec.a).sample(3000, rng)
    want = O.oracle_weighted_sum_sample(
        spec.x.atoms[:, 0], spec.x.weights, spec.a.rows, 3000, rng_o, concentration._MC_CHUNK
    )
    _same_draws(got, want, rng, rng_o)


def test_samplers_match_the_oracles_across_poisson_and_sample_chunks():
    # a mean of 75 inverts three Poisson chunks; 700-sample chunks make five
    law = CompoundPoisson(75.0, DiscreteDistribution([-1.0, 0.5, 2.0], [0.25, 0.5, 0.25]))
    rng, rng_o = make_rng(4), make_rng(4)
    got = cp_sample_rng(law, 3000, rng)
    want = O.oracle_cp_sample(75.0, law.base.atoms, law.base.weights, 3000, rng_o)
    _same_draws(got, want, rng, rng_o)
    rows = np.array([[1.0, 0.5], [0.3, 2.0], [1.5, 1.5]])
    rng, rng_o = make_rng(4), make_rng(4)
    with mock.patch.object(concentration, "_MC_CHUNK", 700):
        got = WeightedSum(U3, WeightVector(rows)).sample(3000, rng)
    want = O.oracle_weighted_sum_sample(U3.atoms[:, 0], U3.weights, rows, 3000, rng_o, 700)
    _same_draws(got, want, rng, rng_o)


_CHUNK_SCRIPT = """
import numpy as np
import _oracles as O
from anticonc._common import make_rng
from anticonc.concentration import WeightVector, WeightedSum
from anticonc.distributions import DiscreteDistribution

x = DiscreteDistribution.rademacher()
for n, d in [(100, 1), (100, 2), (300, 3), (1000, 2), (1000, 3), (3000, 1)]:
    rows = np.random.default_rng(n * d).uniform(-2.0, 2.0, (n, d))
    chunk = 65536 >> max(0, (n - 1).bit_length() - 6)  # 32768 at n = 100, 1024 at 3000
    samples = chunk + chunk // 2 + 3  # two chunks and a partial third
    got = WeightedSum(x, WeightVector(rows)).sample(samples, make_rng(5))
    want = O.oracle_weighted_sum_sample(x.atoms[:, 0], x.weights, rows, samples, make_rng(5), 65536)
    assert got.tobytes() == want.tobytes(), (n, d)
"""


def test_sampler_chunks_give_the_draws_of_65536_row_chunks():
    # past n = 64 a chunk is the largest power of two of rows that holds at
    # most 2^22 uniforms; the product's rounding depends on the row count
    # and on the BLAS thread count, so the check runs with one BLAS thread
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            [str(Path(concentration.__file__).parents[1]), str(Path(__file__).parent)]
        ),
        **{v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    subprocess.run([sys.executable, "-c", _CHUNK_SCRIPT], env=env, check=True)


def test_sampler_chunks_hold_at_most_2_22_uniforms():
    # n = 1000 draws 4096-row chunks: 117 MiB traced at 20k samples, where
    # 65,536-row chunks held 420 MiB
    sampler = WeightedSum(RAD, WeightVector(np.random.default_rng(0).uniform(0.3, 2.0, 1000)))
    rng, shapes = make_rng(1), []

    class Spy:
        def random(self, shape):
            shapes.append(shape)
            return rng.random(shape)

    tracemalloc.start()
    try:
        sampler.sample(20_000, Spy())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shapes == [(4096, 1000)] * 4 + [(3616, 1000)]
    assert peak < 150 * 2**20, peak / 2**20


@pytest.mark.parametrize(
    "spec", [s for s in load_corpus() if s.a.dim > 1], ids=lambda spec: spec.id
)
def test_mc_q_pairs_only_the_distinct_subsample_rows(spec):
    # equal rows pair to their own row, already a centre: only distinct
    # rows are paired, and the count still equals the raw-row oracle's
    law = smoothing_law(spec.a, spec.smoothing_power)
    seen = []
    near_pairs = concentration._near_pairs

    def spy(pts, *args):
        seen.append(pts)
        return near_pairs(pts, *args)

    with mock.patch.object(concentration, "_near_pairs", spy):
        _assert_mc_count_matches_oracle(law, spec.require("kappa"), 5000, 5)
    (sub,) = seen
    assert len(distinct_rows(sub)[0]) == len(sub) < 256


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 3),
    n=st.integers(1, 8),
    lattice=st.booleans(),
    half_width=st.sampled_from([0.5, 1.0, 1.5]),
    seed=st.integers(0, 2**32 - 1),
    hit_budget=st.sampled_from([1, 64, concentration._BALL_HIT_BUDGET]),
)
def test_mc_q_count_matches_raw_row_oracle(dim, n, lattice, half_width, seed, hit_budget):
    # Lattice weights repeat most draws and put sample pairs at distance
    # exactly tau/2 (and tau) apart; generic weights give distinct draws.
    rng = np.random.default_rng(seed)
    if lattice:
        rows = rng.integers(-2, 3, size=(n, dim)).astype(float)
        rows[0] = 1.0
        x = U3
    else:
        rows = rng.uniform(0.3, 2.0, size=(n, dim))
        x = RAD
    tau = 2.0 * half_width
    # a small hit budget also sends every ball table to the level search
    dense = min(hit_budget, concentration._DENSE_ENTRIES)
    with mock.patch.object(concentration, "_BALL_HIT_BUDGET", hit_budget), mock.patch.object(
        concentration, "_DENSE_ENTRIES", dense
    ):
        samples = _assert_mc_count_matches_oracle(
            WeightedSum(x, WeightVector(rows)), tau, 1000, seed
        )
    rows_d, counts = distinct_rows(samples)
    want_rows, want_counts = np.unique(samples, axis=0, return_counts=True)
    np.testing.assert_array_equal(rows_d, want_rows)
    np.testing.assert_array_equal(counts, want_counts)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 3),
    k=st.integers(1, 300),
    lattice=st.booleans(),
    weights=st.sampled_from(["unit", "multiplicity", "fraction"]),
    tau=st.sampled_from([0.5, 1.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
    hit_budget=st.sampled_from([1, 64]),
    cell_centers=st.sampled_from([1, concentration._CELL_CENTERS, 16]),
)
def test_pruned_ball_mass_matches_every_centre_oracle(
    dim, k, lattice, weights, tau, seed, hit_budget, cell_centers
):
    # Lattice rows on a tau/2 grid put pairs exactly tau/2 and tau apart, so
    # distances tie with the radius; generic rows give no ties.
    rng = np.random.default_rng(seed)
    if lattice:
        pts = rng.integers(-4, 5, size=(k, dim)) * (tau / 2.0)
    else:
        pts = rng.uniform(-3.0, 3.0, size=(k, dim))
    if weights == "unit":
        w = np.ones(k)
    elif weights == "multiplicity":
        w = rng.integers(1, 6, size=k).astype(float)
    else:
        # probabilities, as in the exact route
        w = rng.integers(1, 50, size=k) / 49.0
        w /= w.sum()
    ii, jj = np.triu_indices(k, 1)
    pick = rng.choice(len(ii), size=min(len(ii), 200), replace=False)
    centers = np.vstack([pts, (pts[ii[pick]] + pts[jj[pick]]) / 2.0])
    radius = tau / 2.0 + concentration._ball_tol(pts, tau / 2.0)
    with mock.patch.object(concentration, "_BALL_HIT_BUDGET", hit_budget), mock.patch.object(
        concentration, "_CELL_CENTERS", cell_centers
    ), mock.patch.object(concentration, "_DENSE_ENTRIES", 0):
        got = concentration._max_ball_mass(pts, w, centers, radius)
    assert got == O.oracle_max_ball_mass(pts, w, centers, radius)


@pytest.mark.parametrize("dim", [2, 3])
def test_mc_q_count_matches_raw_row_oracle_at_scale(dim, monkeypatch):
    # 20k distinct generic draws: far above the dense table, so the
    # level search runs with its real settings and bounds each level in one call
    calls = []
    ball_masses, max_ball_mass = concentration._ball_masses, concentration._max_ball_mass

    def count_ball_masses(*args):
        calls[-1] += 1
        return ball_masses(*args)

    def count_calls(*args):
        calls.append(0)
        return max_ball_mass(*args)

    monkeypatch.setattr(concentration, "_ball_masses", count_ball_masses)
    monkeypatch.setattr(concentration, "_max_ball_mass", count_calls)
    rows = np.random.default_rng(dim).uniform(0.3, 2.0, size=(40, dim))
    sampler = WeightedSum(RAD, WeightVector(rows))
    samples = _assert_mc_count_matches_oracle(sampler, 4.0, 20_000, 1)
    assert len(distinct_rows(samples)[0]) ** 2 > concentration._DENSE_ENTRIES
    assert len(calls) == 1 and 0 < calls[0] <= 32


def _degenerate_centres(kind, dim, rng):
    """Centres that all coincide, that lie on one axis-parallel line, or that
    share one grid cell, with the radius for each."""
    if kind == "equal":
        return np.tile(rng.uniform(-1.0, 1.0, size=dim), (40, 1)), 0.5
    if kind == "line":
        centers = np.tile(rng.uniform(-1.0, 1.0, size=dim), (60, 1))
        centers[:, 0] = rng.integers(-6, 7, size=60) * 0.25  # with repeats
        return centers, 0.5
    return rng.uniform(0.0, 1.0, size=(60, dim)), 3.0  # one cell of side 6


@pytest.mark.parametrize("kind", ["equal", "line", "one-cell"])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("unit", [True, False])
def test_level_search_on_degenerate_centres_matches_oracle(kind, dim, unit, monkeypatch):
    # no dense table and a hit budget of 1 send every input to the level search
    monkeypatch.setattr(concentration, "_DENSE_ENTRIES", 0)
    monkeypatch.setattr(concentration, "_BALL_HIT_BUDGET", 1)
    rng = np.random.default_rng(dim)
    pts = rng.uniform(-2.0, 2.0, size=(50, dim))
    w = np.ones(50) if unit else rng.integers(1, 50, size=50) / 49.0
    centers, radius = _degenerate_centres(kind, dim, rng)
    got = concentration._max_ball_mass(pts, w, centers, radius)
    assert got == O.oracle_max_ball_mass(pts, w, centers, radius)


def _table_or_tree(fn, *args):
    """``fn(*args)`` with every pair or ball table dense, then with none: the
    kd-tree route.  A CapacityError gives its message, which holds the count."""

    def outcome():
        try:
            return fn(*args)
        except CapacityError as exc:
            return str(exc)

    with mock.patch.object(concentration, "_DENSE_ENTRIES", 2**40):
        dense = outcome()
    with mock.patch.object(concentration, "_DENSE_ENTRIES", 0):
        tree = outcome()
    return dense, tree


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(2, 3),
    k=st.integers(2, 60),
    kind=st.sampled_from(["tied", "near-tied", "lattice"]),
    step=st.sampled_from([1.0, 0.1, 1 / 3, 2.5e-7, 1e5]),
    unit=st.booleans(),
    reach_sq=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_tables_match_the_kd_tree_bit_for_bit(dim, k, kind, step, unit, reach_sq, seed):
    # Lattice points put many distances exactly at the reach and the radius;
    # tied supports repeat a few points; near-tied ones move lattice points
    # by up to 3 ulps, so distances fall on either side of a tie.
    rng = np.random.default_rng(seed)
    pts = rng.integers(-3, 4, size=(k, dim)) * step
    if kind == "tied":
        pts = pts[rng.integers(0, max(1, k // 4), size=k)]
    elif kind == "near-tied":
        pts = pts + rng.integers(-3, 4, size=pts.shape) * np.spacing(pts)
    w = np.ones(k) if unit else rng.integers(1, 50, size=k) / 49.0
    reach = math.sqrt(reach_sq) * step
    pairs, tree_pairs = _table_or_tree(concentration._near_pairs, pts, reach)
    for got, want in zip(pairs, tree_pairs):
        np.testing.assert_array_equal(got, want)
    for budget in {0, max(len(pairs[0]) - 1, 0), len(pairs[0])}:
        dense, tree = _table_or_tree(concentration._near_pairs, pts, reach, budget)
        assert isinstance(dense, str) == isinstance(tree, str)
        if isinstance(dense, str):
            assert dense == tree
    ii, jj = pairs
    centers = np.vstack([pts, (pts[ii] + pts[jj]) / 2.0])
    # ties at half the reach and at the reach, then the slack the routes add
    radii = [r for r in (reach / 2.0, reach) if r > 0]
    for radius in radii + [reach / 2.0 + concentration._ball_tol(pts, reach / 2.0)]:
        dense, tree = _table_or_tree(concentration._max_ball_mass, pts, w, centers, radius)
        assert dense == tree, (dense, tree)


def test_esseen_dominates_exact_on_the_line():
    for w in ([1.0] * 6, [1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 5.0]):
        a = WeightVector(np.asarray(w)[:, None])
        for tau in (0.5, 1.0, 2.0):
            exact = exact_q(RAD, a, tau).value
            ess = esseen_upper_q(weighted_sum_char_fn(RAD, a), tau, 1).value
            assert ess >= exact - 1e-9, (w, tau, exact, ess)


def test_esseen_quadrature_identities():
    # constant integrand: the integral is the volume of the dual ball
    one_d = esseen_upper_q(lambda t: np.ones_like(t, dtype=complex), 2.0, 1)
    assert abs(one_d.value - 2.0 * 1.0) < 1e-9  # tau * (2/tau)
    two_d = esseen_upper_q(
        lambda ts: np.ones(len(ts), dtype=complex), 2.0, 2
    )
    assert abs(two_d.value - 4.0 * math.pi * 0.25) < 1e-6
    three_d = esseen_upper_q(
        lambda ts: np.ones(len(ts), dtype=complex), 2.0, 3
    )
    assert abs(three_d.value - 8.0 * (4.0 / 3.0) * math.pi * 0.125) < 1e-5
    with pytest.raises(DomainError):
        esseen_upper_q(lambda t: t, 0.0, 1)
    with pytest.raises(DomainError):
        esseen_upper_q(lambda t: t, 1.0, 4)


# The largest dual radius 1/tau of each dimension, (float max / 2^11)^(1/dim).
_DUAL_LIMITS = {1: "8.8e+304", 2: "3e+152", 3: "4.4e+101"}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_esseen_refuses_a_tau_whose_dual_radius_overflows(dim):
    # 1 / 5e-324 is +inf: refused before a quadrature runs over an infinite ball
    f_hat = weighted_sum_char_fn(RAD, WeightVector(np.eye(dim)))
    with pytest.raises(DomainError) as exc:
        esseen_upper_q(f_hat, 5e-324, dim)
    assert str(exc.value) == (
        f"tau: in dimension {dim} the dual radius 1/tau must not exceed "
        f"{_DUAL_LIMITS[dim]}, got 5e-324"
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_esseen_dual_radius_limit_holds_every_sum_in_the_float_range(dim):
    # the constant integrand at the largest radius gives the ball's volume
    # (RuntimeWarnings are errors here); a radius just past it is refused
    limit = (sys.float_info.max / 2**11) ** (1 / dim)
    volume = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}[dim]
    one = lambda ts: np.ones(len(ts))  # noqa: E731
    assert esseen_upper_q(one, (1 + 1e-12) / limit, dim).value == pytest.approx(volume, rel=1e-5)
    tau = (1 - 1e-12) / limit
    with pytest.raises(DomainError) as exc:
        esseen_upper_q(one, tau, dim)
    assert str(exc.value) == (
        f"tau: in dimension {dim} the dual radius 1/tau must not exceed "
        f"{_DUAL_LIMITS[dim]}, got {tau!r}"
    )


@pytest.mark.parametrize("dim", [2, 3])
def test_esseen_tau_limit_keeps_tau_to_the_dim_in_the_float_range(dim):
    # tau^dim at the largest tau is finite (an OverflowError past it); the
    # next tau up is refused
    limit = sys.float_info.max ** (1 / dim)
    one = lambda ts: np.ones(len(ts))  # noqa: E731
    assert math.isfinite(limit**dim)
    assert esseen_upper_q(one, limit, dim).value > 0.0
    tau = float(np.nextafter(limit, math.inf))
    with pytest.raises(DomainError) as exc:
        esseen_upper_q(one, tau, dim)
    assert str(exc.value) == (
        f"tau: in dimension {dim} tau must not exceed {limit:.2g}, got {tau!r}"
    )


def test_esseen_on_the_line_takes_every_finite_tau():
    f_hat = weighted_sum_char_fn(RAD, WeightVector([[1.0]]))
    assert esseen_upper_q(f_hat, 1e300, 1).value == 2.0
    assert esseen_upper_q(f_hat, sys.float_info.max, 1).value > 0.0


def test_esseen_refuses_a_bool_dimension():
    # True == 1 would run the 1-D rule
    with pytest.raises(DomainError, match="^dim: expected an integer of at least 0, got True$"):
        esseen_upper_q(weighted_sum_char_fn(RAD, WeightVector([[1.0]])), 2.0, True)


def test_weighted_sum_char_fn_values():
    a = WeightVector([[1.0], [2.0]])
    f = weighted_sum_char_fn(RAD, a)
    ts = np.array([0.0, 0.7, -1.3])
    want = np.cos(ts * 1.0) * np.cos(ts * 2.0)
    np.testing.assert_allclose(f(ts), want, atol=1e-14)
    assert np.all(np.abs(f(ts)) <= 1.0 + 1e-15)


def test_regularity_random_instances():
    rng = np.random.default_rng(19)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        d = int(rng.integers(1, 3))
        atoms = rng.normal(size=(k, d)) * rng.uniform(0.5, 3.0)
        w = rng.random(k)
        f = DiscreteDistribution(atoms, w / w.sum())
        lam = float(rng.uniform(0.1, 2.0))
        mu = lam * float(rng.uniform(1.0, 4.0))
        rc = regularity_check(f, mu, lam)
        assert rc.holds
        assert rc.factor == (1.0 + math.floor(mu / lam)) ** d


def test_exact_3d_sweep_refuses_a_radius_whose_gram_determinants_overflow():
    # below 1e150^(1/2) the sweep is scale-free; above it the triangle fits
    # overflowed and dropped centres, so a wrong value came back as exact
    w = np.random.default_rng(1).uniform(-1.0, 1.0, (5, 3))
    tau = 2.5
    want = exact_q(RAD, WeightVector(w), tau).value
    scale = 2.0**245  # tau/2 * scale = 7e73
    assert exact_q(RAD, WeightVector(w * scale), tau * scale).value == want
    with pytest.raises(DomainError, match="in dimension 3, an exact ball sweep"):
        exact_q(RAD, WeightVector(w * 2.0**330), tau * 2.0**330)
    # Monte Carlo fits no cliques: it runs up to the common limit
    est = mc_q(WeightedSum(RAD, WeightVector(w * 2.0**330)), tau * 2.0**330, 2000, 0)
    assert 0.0 < est.value <= 1.0
    with pytest.raises(DomainError, match="must not exceed 1e\\+150"):
        mc_q(WeightedSum(RAD, WeightVector(w)), 1e301, 2000, 0)


def test_exact_q_of_distribution_guards():
    f = DiscreteDistribution([[0.0]], [0.5], normalized=False)
    with pytest.raises(DomainError):
        exact_q_of_distribution(f, 1.0)
    with pytest.raises(DomainError):
        exact_q_of_distribution(DiscreteDistribution([[0.0]], [1.0]), -1.0)
    with pytest.raises(DomainError):
        exact_q_of_distribution(DiscreteDistribution([[0.0]], [1.0]), math.nan)
