import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles as O
from anticonc import progressions
from anticonc.distributions import (
    DiscreteDistribution,
    half_empirical_measure,
    spectral_measure,
    tail_mass,
)
from anticonc.errors import CapacityError, ClassCapError, DomainError, InputError
from anticonc.progressions import (
    GAP_ENUM_BUDGET,
    ApproxResult,
    Cgap,
    Gap,
    GapImageProgression,
    _block_far,
    _candidate_steps,
    _coverage_search,
    _far_atoms,
    _line_points,
    _sum_slack,
    beta_rm,
    gamma_rs,
    uncovered_mass,
)


def test_gap_image_and_size():
    p = Gap([1.0, 1.0], [[1.0], [3.0]])
    img = p.image()
    # {m1 + 3 m2 : |mi| <= 1} = {-4..4}
    assert img.shape == (9, 1)
    assert p.size() == 9 == p.box_total()
    assert p.is_proper()


def test_gap_non_proper_example():
    p = Gap([1.0, 1.0], [[1.0], [2.0]])
    assert p.box_total() == 9
    assert p.size() == 7
    assert not p.is_proper()


def test_gap_rank_zero():
    p = Gap([], [], ambient_dim=2)
    img = p.image()
    assert img.shape == (1, 2)
    assert p.size() == 1 and p.is_proper()


@pytest.mark.parametrize("dims, gens", [([], []), ([1.0], [[1.0]])], ids=["rank-0", "rank-1"])
def test_gap_refuses_a_bool_ambient_dimension(dims, gens):
    # True == 1 passed the range check: numpy's TypeError at rank zero, a gap
    # in R^1 above it
    with pytest.raises(DomainError, match="^ambient dimension: expected an integer from 1 to .*, got True$"):
        Gap(dims, gens, ambient_dim=True)


def test_uncovered_mass_refuses_a_nan_progression_point():
    # a NaN point is near no atom and far from none: the mass read 0.0
    w = half_empirical_measure([[1.0], [2.0]])
    with pytest.raises(DomainError, match="^expected finite numbers, got nan$"):
        uncovered_mass(w, [math.nan], 0.5)


def test_gap_capacity():
    # 20,001^2 coefficients exceed GAP_ENUM_BUDGET: refused before any is listed
    p = Gap([10_000.0, 10_000.0], [[1.0], [np.sqrt(2.0)]])
    assert p.box_total() > GAP_ENUM_BUDGET
    with pytest.raises(CapacityError, match="exceeds budget"):
        p.size()
    with pytest.raises(CapacityError, match="exceeds budget"):
        Cgap([1.0, 1.0], [10_000.0, 10_000.0], 10**9).points()


def test_gap_json_round_trip():
    p = Gap([2.0, 1.0], [[1.0, 0.0], [0.5, 0.5]])
    obj = p.to_json_obj()
    q = Gap(obj["L"], obj["g"], obj["dim"])
    np.testing.assert_array_equal(p.image(), q.image())


def test_witness_loaders_round_trip():
    gap = Gap([2.0, 1.0], [[1.0, 0.0], [0.5, 0.5]])
    back = Gap.from_json_obj(gap.to_json_obj())
    assert back.dims == gap.dims and back.ambient_dim == 2
    np.testing.assert_array_equal(back.gens, gap.gens)
    assert Gap.from_json_obj({"L": [], "g": [], "dim": 3}).ambient_dim == 3
    cgap = Cgap([2.0], [1.5], 3)
    back = Cgap.from_json_obj(cgap.to_json_obj())
    assert back.to_json_obj() == cgap.to_json_obj() == {"h": [2.0], "V": {"box": [1.5]}, "m": 3}


_CGAP = {"h": [2.0], "V": {"box": [1.5]}, "m": 3}


@pytest.mark.parametrize(
    "loader, obj, field",
    [
        (Cgap.from_json_obj, dict(_CGAP, m="3"), "m"),
        (Cgap.from_json_obj, dict(_CGAP, m=3.7), "m"),
        (Cgap.from_json_obj, dict(_CGAP, m=True), "m"),
        (Cgap.from_json_obj, dict(_CGAP, h=["2"]), "array of numbers"),
        (Cgap.from_json_obj, dict(_CGAP, V={"box": ["a"]}), "cgap: V: expected an array"),
        (Cgap.from_json_obj, dict(_CGAP, V={"box": "a"}), "cgap: V: expected an array"),
        (Cgap.from_json_obj, dict(_CGAP, V={"box": [True]}), "cgap: V: expected an array"),
        (Cgap.from_json_obj, dict(_CGAP, V={"box": [10**400]}), "cgap: V: expected an array"),
        (Cgap.from_json_obj, dict(_CGAP, V={"box": [-1.0]}), "cgap: V: box bounds must be"),
        (Cgap.from_json_obj, dict(_CGAP, V=[1.5]), "cgap: V: expected an object, got "),
        (Cgap.from_json_obj, dict(_CGAP, V={}), "cgap: V: missing field 'box'"),
        (Gap.from_json_obj, {"L": [1.0], "g": [[1.0]], "dim": "2"}, "dim: expected an integer"),
        (Gap.from_json_obj, {"L": [1.0], "g": [[1.0]], "dim": None}, "dim: expected an integer"),
        (Gap.from_json_obj, {"L": [1.0], "g": [[1.0]], "dim": 1.0}, "dim: expected an integer"),
        (Gap.from_json_obj, {"L": [], "g": [], "dim": 0}, "gap: ambient dimension"),
        (Gap.from_json_obj, {"L": [], "g": [], "dim": -1}, "gap: ambient dimension"),
        (Gap.from_json_obj, {"L": [], "g": [], "dim": 10**20}, "gap: ambient dimension"),
        (Gap.from_json_obj, {"L": [], "g": [], "dim": 10**300}, "gap: ambient dimension"),
        (Gap.from_json_obj, {"L": ["a"], "g": [[1.0]]}, "array of numbers"),
        (Gap.from_json_obj, {"L": [1.0], "g": [["1"]]}, "array of numbers"),
    ],
    ids=["m-string", "m-fraction", "m-bool", "h-string", "cgap-box-string", "box-string",
         "box-bool", "box-huge-int", "box-negative", "body-not-object", "body-without-box",
         "dim-string", "dim-null", "dim-float", "dim-zero",
         "dim-negative", "dim-past-numpy", "dim-huge",
         "radii-string", "generators-string"],
)
def test_witness_loaders_apply_the_number_rule(loader, obj, field):
    # int() read "3" as 3 and cut 3.7 to 3; ["a"] escaped as a bare ValueError
    with pytest.raises(InputError, match=field):
        loader(obj)


def test_convex_body_box_contains_and_bbox():
    # the lattice points of a Cgap are those of its closed box, |nu_j| <= b_j
    c = Cgap([1.0, 1.0], [2.0, 1.0], 15)
    np.testing.assert_allclose(c.box, [2.0, 1.0])
    assert not c.box.flags.writeable
    with pytest.raises(DomainError, match="step vector has 1 entries but the box lives in R"):
        Cgap([1.0], [2.0, 1.0], 15)
    pts = c.lattice_points()
    want = [(i, j) for i in range(-2, 3) for j in range(-1, 2)]
    assert [tuple(p) for p in pts.tolist()] == want


def test_cgap_lattice_points_and_cap():
    body = [1.5]
    c = Cgap([2.0], body, 3)
    np.testing.assert_array_equal(np.sort(c.points()[:, 0]), [-2.0, 0.0, 2.0])
    tight = Cgap([2.0], body, 2)
    with pytest.raises(ClassCapError):
        tight.points()
    for bad in (0, 2.0, True):
        with pytest.raises(DomainError, match="cap m"):
            Cgap([2.0], body, bad)


def test_cgap_rank_zero_is_origin():
    c = Cgap(np.zeros(0), [], 1)
    np.testing.assert_array_equal(c.points(), [[0.0]])


def test_uncovered_mass_strict_outside():
    w = spectral_measure(np.array([[1.0], [2.0]]))
    # K = {0}: neighborhood of radius exactly 1 still covers the +-1 atoms
    assert uncovered_mass(w, [[0.0]], 1.0) == 0.5
    assert uncovered_mass(w, [[0.0]], 2.0) == 0.0
    # an empty K covers nothing
    assert uncovered_mass(w, np.zeros((0, 1)), 5.0) == 1.0


@pytest.mark.parametrize("r,m", [(0, 1), (1, 3), (2, 5)])
def test_beta_rm_never_exceeds_tail(r, m):
    w = spectral_measure(np.array([[1.0], [2.0], [3.5]]))
    tau = 0.75
    res = beta_rm(w, tau, r, m)
    assert res.value <= tail_mass(w, tau) + 1e-15
    # witness replay is exact, not approximate
    assert uncovered_mass(w, res.witness.points(), tau) == res.value


def test_beta_rm_rank_zero_is_tail():
    w = spectral_measure(np.array([[1.0], [4.0]]))
    for tau in (0.5, 1.0, 3.0, 4.0):
        for m in (1, 7):
            res = beta_rm(w, tau, 0, m)
            assert res.exact and res.evaluations == 1
            assert res.value == tail_mass(w, tau)
            assert res.witness.to_json_obj() == {"V": {"box": []}, "h": [], "m": m}
        assert not beta_rm(w, tau, 1, 3).exact


def test_beta_rm_finds_perfect_cover():
    w = spectral_measure(np.ones((6, 1)))
    res = beta_rm(w, 0.5, 1, 3)
    assert res.value == 0.0
    assert res.witness.points().shape[0] <= 3


def test_gamma_rs_witness_replay_and_zero_rank():
    w = spectral_measure(np.array([[1.0], [2.0], [4.0]]))
    res = gamma_rs(w, 0.5, 1, 4)
    assert uncovered_mass(w, res.witness.points(), 0.5) == res.value
    assert not res.exact
    for tau in (0.5, 1.0, 3.0, 4.0):
        base = gamma_rs(w, tau, 0, 5)
        assert base.exact and base.evaluations == 1
        assert base.value == tail_mass(w, tau)
        # the rank-zero gap in dimension 1 with one step: the point 0
        obj = base.witness.to_json_obj()
        assert obj == {"gap": {"L": [], "g": [], "dim": 1}, "h": [1.0]}
        again = GapImageProgression(Gap.from_json_obj(obj["gap"]), tuple(obj["h"]))
        assert again.rank == 0 and again.size() == 1
        assert uncovered_mass(w, again.points(), tau) == base.value


def test_beta_rm_rejects_bad_args():
    w = spectral_measure(np.array([[1.0]]))
    with pytest.raises(DomainError):
        beta_rm(w, -1.0, 1, 3)
    with pytest.raises(DomainError):
        beta_rm(w, 1.0, -1, 3)
    with pytest.raises(DomainError):
        beta_rm(w, 1.0, 1, 0)
    with pytest.raises(DomainError):
        beta_rm(w, 1.0, True, 3)
    with pytest.raises(DomainError):
        beta_rm(w, 1.0, 1, True)
    two_d = spectral_measure(np.array([[1.0, 0.0]]))
    with pytest.raises(DomainError):
        beta_rm(two_d, 1.0, 1, 3)


def test_approx_result_fields():
    w = spectral_measure(np.array([[2.0]]))
    res = beta_rm(w, 1.0, 0, 1)
    assert isinstance(res, ApproxResult)
    assert res.evaluations >= 1


def test_coverage_is_on_the_line_only():
    plane = spectral_measure(np.array([[1.0, 0.0], [0.5, 2.0]]))
    with pytest.raises(DomainError):
        uncovered_mass(plane, [[0.0, 0.0]], 1.0)
    line = spectral_measure(np.array([[1.0]]))
    with pytest.raises(DomainError):
        uncovered_mass(line, [[0.0, 0.0]], 1.0)
    with pytest.raises(DomainError):
        uncovered_mass(line, [[0.0]], -1.0)


_REALS = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["generic", "lattice", "tau_apart"]),
    tau=st.sampled_from([0.0, 1e-9, 0.01, 0.3, 1.0]),
)
def test_nearest_distance_matches_dense_oracle(data, kind, tau):
    ks = np.array(data.draw(st.lists(_REALS, min_size=1, max_size=12), label="K"))
    if kind == "generic":
        x = np.array(data.draw(st.lists(_REALS, min_size=1, max_size=30), label="x"))
    elif kind == "lattice":
        step = data.draw(st.floats(0.01, 3.0), label="step")
        ks = step * np.arange(-len(ks), len(ks) + 1)
        coeffs = data.draw(st.lists(st.integers(-40, 40), min_size=1, max_size=30))
        x = step * np.array(coeffs, dtype=float)
    else:
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(ks), max_size=len(ks)))
        x = np.concatenate([ks + np.array(signs) * tau, ks - tau, ks + tau])
    x = np.sort(x)
    dense = O.oracle_min_maxnorm_dist(x[:, None], ks[:, None])
    assert np.array_equal(_far_atoms(np.sort(ks)[None, :], x, tau)[0], dense > tau)
    w = DiscreteDistribution(x, np.full(len(x), 1.0 / len(x)), normalized=False)
    want = math.fsum(w.weights[O.oracle_min_maxnorm_dist(w.atoms, ks[:, None]) > tau])
    assert uncovered_mass(w, ks, tau) == want


def _pool_weights(kind, data):
    n = data.draw(st.integers(1, 25), label="n")
    if kind == "generic":
        vals = data.draw(st.lists(st.floats(0.3, 2.0), min_size=n, max_size=n))
    elif kind == "integer":
        vals = data.draw(st.lists(st.integers(1, 60), min_size=n, max_size=n))
    elif kind == "commensurable":
        step = data.draw(st.floats(0.05, 2.0), label="step")
        mult = data.draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
        noise = data.draw(st.lists(st.floats(-1e-7, 1e-7), min_size=n, max_size=n))
        vals = [step * k * (1.0 + e) for k, e in zip(mult, noise)]
    else:
        small = data.draw(st.floats(1e-9, 1e-7), label="small")
        big = data.draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
        vals = [small] + big
        assert max(vals) / small > 1e6
    return np.array(vals, dtype=float).reshape(-1, 1)


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["generic", "integer", "commensurable", "tiny_ratio"]),
)
def test_candidate_pool_matches_oracle(data, kind):
    w = spectral_measure(_pool_weights(kind, data))
    for cap in (96, 10**9):
        assert np.array_equal(_candidate_steps(w, cap), O.oracle_candidate_steps(w.atoms, cap))


def test_candidate_pool_keeps_convergents_at_the_cap():
    # zj/zi = 3 + 1/333333.5: the second convergent 1000000/333333 sits at
    # the cap and alone contributes steps near 3e-6
    w = spectral_measure(np.array([[1.0], [3.0 + 1.0 / 333333.5]]))
    pool = _candidate_steps(w, 10**9)
    assert np.array_equal(pool, O.oracle_candidate_steps(w.atoms, 10**9))
    assert np.any(pool < 1e-5)


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(st.floats(0.01, 3.0), min_size=3, max_size=3),
    radii=st.lists(st.integers(0, 4), min_size=3, max_size=3),
)
def test_witness_points_are_the_matrix_product(steps, radii):
    cgap = Cgap(steps, radii, 10**4)
    fit = GapImageProgression(Gap([max(b, 0.4) for b in radii], np.eye(3)), tuple(steps))
    for wit in (cgap, fit):
        assert np.array_equal(wit.points(), O.oracle_witness_points(wit))


def _assert_search_matches_oracle(w, tau, r, cap, budget=None):
    """beta_rm and gamma_rs against the oracle of their kind; at a budget, the
    search core (a box Cgap witness) against the beta oracle, and its value
    and count against the gamma oracle."""
    if budget is None:
        runs = ((beta_rm(w, tau, r, cap), "beta"), (gamma_rs(w, tau, r, cap), "gamma"))
        budget = progressions.DEFAULT_SEARCH_BUDGET
    else:
        with mock.patch.object(progressions, "DEFAULT_SEARCH_BUDGET", budget):
            res = _coverage_search(w, tau, r, cap)
        value, _, evals = O.oracle_coverage_search(w, tau, r, cap, "gamma", budget)
        assert (res.value, res.evaluations) == (value, evals)
        runs = ((res, "beta"),)
    for res, kind in runs:
        value, witness, evals = O.oracle_coverage_search(w, tau, r, cap, kind, budget)
        assert res.value == value
        assert res.witness.to_json_obj() == witness.to_json_obj()
        assert res.evaluations == evals
        assert uncovered_mass(w, res.witness.points(), tau) == res.value


_ROWS = st.lists(st.floats(0.3, 2.0), min_size=1, max_size=6).map(
    lambda v: np.array(v).reshape(-1, 1)
)


@settings(max_examples=12, deadline=None)
@given(
    rows=_ROWS,
    r=st.sampled_from([1, 2, 3]),
    cap=st.integers(2, 63),
    tau=st.sampled_from([0.001, 0.02, 0.1]),
)
def test_searches_match_oracle(rows, r, cap, tau):
    _assert_search_matches_oracle(spectral_measure(rows), tau, r, cap)


@settings(max_examples=20, deadline=None)
@given(
    rows=_ROWS,
    r=st.sampled_from([1, 2, 3]),
    cap=st.integers(2, 63),
    budget=st.sampled_from([1, 2, 57, 100]),
)
def test_searches_match_oracle_at_budget(rows, r, cap, budget):
    _assert_search_matches_oracle(spectral_measure(rows), 0.001, r, cap, budget)


def test_search_over_rank_three_lattices_matches_oracle():
    # rank 3 at cap 63 scores many allocations; each block builds their rows anew
    rows = np.array([[0.7], [1.3], [1.9], [0.45], [2.6], [3.3], [0.95], [4.1]])
    _assert_search_matches_oracle(spectral_measure(rows), 0.05, 3, 63, 600)


@settings(max_examples=20, deadline=None)
@given(
    step=st.floats(0.1, 2.0),
    mult=st.lists(st.integers(1, 4), min_size=1, max_size=6),
    r=st.sampled_from([1, 2, 3]),
    cap=st.integers(9, 63),
)
def test_searches_match_oracle_on_perfect_cover(step, mult, r, cap):
    w = spectral_measure(step * np.array(mult, dtype=float).reshape(-1, 1))
    _assert_search_matches_oracle(w, 1e-9, r, cap)
    assert beta_rm(w, 1e-9, r, cap).value == 0.0


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["generic", "on_points", "tau_apart"]),
    tau=st.sampled_from([0.0, 1e-9, 0.01, 0.3, 1.0]),
)
def test_block_kernel_matches_nearest_dist(data, kind, tau):
    rows = data.draw(st.integers(1, 6), label="rows")
    size = data.draw(st.integers(1, 12), label="size")
    pts = np.sort(
        np.array(data.draw(st.lists(_REALS, min_size=rows * size, max_size=rows * size))).reshape(
            rows, size
        ),
        axis=1,
    )
    if kind == "generic":
        x = np.array(data.draw(st.lists(_REALS, min_size=1, max_size=30), label="x"))
    else:
        # atoms on the points of some row, or exactly tau away from them
        shift = 0.0 if kind == "on_points" else tau
        x = np.concatenate([pts.ravel() - shift, pts.ravel() + shift, pts[0]])
    x = np.sort(x)
    far = _far_atoms(pts, x, tau)
    for b in range(rows):
        dense = O.oracle_min_maxnorm_dist(x[:, None], pts[b][:, None])
        assert np.array_equal(far[b], dense > tau)


@settings(max_examples=60, deadline=None)
@given(
    h1=st.floats(0.01, 3.0),
    factor=st.sampled_from([1.0, 2.0, 3.0, 0.5, 1.0 + 1e-13]),
    radii=st.lists(st.integers(0, 3), min_size=2, max_size=2),
    atoms=st.lists(_REALS, min_size=1, max_size=20),
    tau=st.sampled_from([0.0, 0.01, 0.3]),
)
def test_block_kernel_merges_colliding_points(h1, factor, radii, atoms, tau):
    # h2 = factor * h1 makes points of one row coincide (or fall within
    # 1e-12), so those rows take the _line_points merge
    coeffs = Cgap([1.0, 1.0], radii, 10**4).lattice_points().astype(float)
    hs = [np.array([h1, factor * h1]), np.array([h1, math.pi * h1])]
    x = np.sort(np.array(atoms))
    far = _block_far(coeffs, hs, x, tau)
    for b, h in enumerate(hs):
        dense = O.oracle_min_maxnorm_dist(x[:, None], _line_points(coeffs, h))
        assert np.array_equal(far[b], dense > tau)


def test_search_merges_colliding_points_like_the_oracle(monkeypatch):
    # integer atoms put commensurable steps (h, 2h, ...) in the rank-2 and
    # rank-3 step sets, whose points collide
    merged = []

    def counting(coeffs, h):
        merged.append(len(coeffs))
        return _line_points(coeffs, h)

    monkeypatch.setattr(progressions, "_line_points", counting)
    rows = np.array([[1.0], [2.0], [4.0], [6.0], [9.0], [12.0], [15.0]])
    _assert_search_matches_oracle(spectral_measure(rows), 0.01, 3, 25)
    assert len(merged) > 20  # more than the start and witness replays


_NON_DYADIC = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0 / 3.0, 0.6, 0.9, 1.1])


@settings(max_examples=15, deadline=None)
@given(
    atoms=st.lists(st.floats(0.3, 3.0), min_size=2, max_size=6, unique=True),
    weights=st.lists(_NON_DYADIC, min_size=6, max_size=6),
    r=st.sampled_from([1, 2, 3]),
    cap=st.integers(3, 30),
    tau=st.sampled_from([0.02, 0.1]),
)
def test_searches_match_oracle_on_near_tied_masses(atoms, weights, r, cap, tau):
    # sums such as 0.1 + 0.2 and 0.3 tie in exact arithmetic but not in
    # floating point: the float prefilter must never decide between them
    w = DiscreteDistribution(atoms, weights[: len(atoms)], normalized=False)
    _assert_search_matches_oracle(w, tau, r, cap)


@settings(max_examples=100, deadline=None)
@given(
    weights=st.lists(
        st.one_of(_NON_DYADIC, st.floats(1e-17, 1e-15), st.floats(0.0, 1e6)),
        min_size=1,
        max_size=200,
    ),
    data=st.data(),
)
def test_float_mass_is_within_slack_of_fsum(weights, data):
    w = np.array(weights)
    far = np.array(data.draw(st.lists(st.booleans(), min_size=len(w), max_size=len(w))))
    exact = math.fsum(w[far].tolist())
    slack = _sum_slack(w)
    for approx in (far @ w, np.sum(w[far]), sum(w[far].tolist()), sum(reversed(w[far].tolist()))):
        assert abs(approx - exact) <= slack


def test_perfect_cover_between_allocations_matches_oracle():
    # the cover is found at radii (1, 2), the second of the four rank-2
    # allocations; the step set's last two still count as evaluations
    w = spectral_measure(1.342 * np.array([[2.0], [5.0], [10.0]]))
    assert progressions._box_allocations(2, 16) == [(0, 7), (1, 2), (2, 1), (7, 0)]
    res = beta_rm(w, 1e-9, 2, 16)
    assert res.value == 0.0
    assert res.witness.to_json_obj()["V"]["box"] == [1.0, 2.0]
    assert res.evaluations == 44
    _assert_search_matches_oracle(w, 1e-9, 2, 16)


def test_allocations_match_the_dominance_filter():
    for rank, caps in ((1, range(1, 601)), (2, range(1, 601)), (3, range(1, 301))):
        for cap in caps:
            expected = O.oracle_pareto_allocations(rank, cap)
            assert progressions._box_allocations(rank, cap) == expected


def test_rank_three_allocations_drop_contained_boxes():
    # of the coarse family's 48 and 5,072 boxes, 35 and 4,825 lie in another
    assert [len(O.oracle_box_allocations(3, cap)) for cap in (63, 4097)] == [48, 5072]
    assert len(progressions._box_allocations(3, 63)) == 13
    assert len(progressions._box_allocations(3, 4097)) == 247


@settings(max_examples=20, deadline=None)
@given(
    rows=st.lists(st.floats(0.3, 2.0), min_size=1, max_size=5).map(
        lambda v: np.array(v).reshape(-1, 1)
    ),
    cap=st.integers(1, 63),
    tau=st.sampled_from([1e-9, 1e-4, 0.01]),
    budget=st.sampled_from([60, 400, 3000]),
)
# at cap 4097 the coarse rank-2 family alone holds 2,049 boxes: the budget binds
@example(rows=np.array([[1.0], [2**0.5]]), cap=4097, tau=1e-9, budget=300)
@example(rows=np.array([[1.0], [2**0.5], [3**0.5]]), cap=4097, tau=1e-9, budget=600)
def test_rank_three_search_is_no_worse_than_the_coarse_family(rows, cap, tau, budget):
    # the first j coarse boxes all lie in the first j kept ones, and the search
    # spends no more per step set, so wherever the coarse search stops, the
    # search has scored a container of every candidate it scored
    w = spectral_measure(rows)
    value, _, evals = O.oracle_coverage_search(
        w, tau, 3, cap, "beta", budget, O.oracle_box_allocations
    )
    with mock.patch.object(progressions, "DEFAULT_SEARCH_BUDGET", budget):
        res = _coverage_search(w, tau, 3, cap)
    if evals < budget:
        assert res.value == value
    else:
        assert res.value <= value


def test_search_enumerates_boxes_up_to_the_point_guard(monkeypatch):
    # a cap above the guard lists the boxes of the guard, so it searches
    # the same candidates as a cap at the guard
    seen = []
    box_allocations = progressions._box_allocations

    def spy(rank, cap):
        seen.append(cap)
        return box_allocations(rank, cap)

    monkeypatch.setattr(progressions, "_box_allocations", spy)
    w = spectral_measure(np.array([[0.4], [1.1], [2.7]]))
    for search in (beta_rm, gamma_rs):
        big, small = search(w, 0.01, 3, 10**7), search(w, 0.01, 3, 20_000)
        assert (big.value, big.evaluations) == (small.value, small.evaluations)
        big_box, small_box = big.witness.to_json_obj(), small.witness.to_json_obj()
        if search is beta_rm:
            assert (big_box.pop("m"), small_box.pop("m")) == (10**7, 20_000)
        assert big_box == small_box
    assert set(seen) == {20_000}


@pytest.mark.parametrize("elements", [1, 200, 1500])
def test_search_in_small_blocks_matches_oracle(monkeypatch, elements):
    # 1 element: one step set per block; 200 and 1500: a few rows each
    monkeypatch.setattr(progressions, "_BLOCK_ELEMENTS", elements)
    rows = np.array([[0.7], [1.3], [1.9], [0.45], [2.6], [3.3], [0.95], [4.1]])
    _assert_search_matches_oracle(spectral_measure(rows), 0.05, 3, 30, 700)
    _assert_search_matches_oracle(spectral_measure(rows[:3]), 1e-9, 2, 16)


def test_step_pool_is_built_once_per_weight_vector():
    rows = np.array([[0.31], [1.7], [2.25], [0.83]])
    progressions._pool_of.cache_clear()
    for w in (spectral_measure(rows), half_empirical_measure(rows)):
        for tau in (0.01, 0.2):
            beta_rm(w, tau, 2, 9)
            gamma_rs(w, tau, 2, 9)
    assert progressions._pool_of.cache_info().misses == 1
    assert not _candidate_steps(spectral_measure(rows)).flags.writeable


def test_search_skips_allocations_past_the_point_guard():
    # the one rank-1 box at cap 20,003 holds more than _MAX_SEARCH_POINTS
    # points: the search scores the box of the guard in its place
    w = spectral_measure(np.array([[0.4], [1.1], [2.7]]))
    res, at_guard = beta_rm(w, 0.01, 1, 20_003), beta_rm(w, 0.01, 1, 20_000)
    assert res.evaluations == at_guard.evaluations > 1
    assert res.value == at_guard.value < tail_mass(w, 0.01)
    assert res.witness.box.tolist() == [9999.0]
    _assert_search_matches_oracle(w, 0.01, 1, 20_003)
