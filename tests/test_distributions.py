import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as O
from anticonc._common import make_rng
from anticonc.bounds import h_char_fn, smoothing_law
from anticonc.concentration import WeightVector, weighted_sum_distribution
from anticonc.distributions import (
    CompoundPoisson,
    DiscreteDistribution,
    _guide_search,
    atom_indices,
    cp_sample_rng,
    half_empirical_measure,
    lambda_d,
    spectral_measure,
    symmetrize,
    tail_mass,
    truncated_second_moment,
)
from anticonc.errors import DomainError, InputError
from anticonc.progressions import Gap


def test_shorthand_rademacher():
    d = DiscreteDistribution.from_shorthand("rademacher")
    np.testing.assert_array_equal(np.sort(d.atoms[:, 0]), [-1.0, 1.0])
    np.testing.assert_array_equal(d.weights, [0.5, 0.5])


def test_shorthand_uniform_and_bernoulli():
    u = DiscreteDistribution.from_shorthand("uniform{-1,0,1}")
    assert u.n_atoms == 3
    np.testing.assert_allclose(u.weights, 1.0 / 3.0)
    b = DiscreteDistribution.from_shorthand("bernoulli(0.3)")
    assert b.n_atoms == 2
    np.testing.assert_allclose(np.sort(b.weights), [0.3, 0.7])


@pytest.mark.parametrize("bad", ["gauss", "uniform{}", "bernoulli(1.5)", "bernoulli(x)"])
def test_shorthand_rejects(bad):
    with pytest.raises(InputError):
        DiscreteDistribution.from_shorthand(bad)


def test_from_spec_dispatch():
    obj = {"atoms": [[0.0], [2.0]], "weights": [0.25, 0.75]}
    d = DiscreteDistribution.from_spec(obj)
    assert d.n_atoms == 2
    assert DiscreteDistribution.from_spec("rademacher").n_atoms == 2
    with pytest.raises(InputError):
        DiscreteDistribution.from_json_obj({"atoms": [[0.0]]})


def test_json_round_trip():
    d = DiscreteDistribution([[0.5, -1.0], [2.0, 0.0]], [0.4, 0.6])
    obj = {"atoms": d.atoms.tolist(), "weights": d.weights.tolist(), "normalized": d.normalized}
    back = DiscreteDistribution.from_json_obj(obj)
    np.testing.assert_array_equal(back.atoms, d.atoms)
    np.testing.assert_array_equal(back.weights, d.weights)
    assert back.normalized == d.normalized


def test_weights_must_be_nonnegative_and_match():
    with pytest.raises(DomainError):
        DiscreteDistribution([[0.0]], [-0.5])
    with pytest.raises(DomainError):
        DiscreteDistribution([[0.0], [1.0]], [1.0])


@pytest.mark.parametrize(
    "support,probs",
    [O.RADEMACHER, O.UNIFORM3, O.bernoulli(0.3), O.bernoulli(0.45)],
)
def test_symmetrize_matches_oracle(support, probs):
    x = DiscreteDistribution(list(support), [float(p) for p in probs])
    g = symmetrize(x)
    want = O.oracle_symmetrize(support, probs)
    assert g.n_atoms == len(want)
    for z, p in want.items():
        idx = np.argmin(np.abs(g.atoms[:, 0] - z))
        assert abs(g.atoms[idx, 0] - z) < 1e-12
        assert abs(g.weights[idx] - float(p)) < 1e-14


def test_symmetrize_is_exactly_mirror_symmetric():
    x = DiscreteDistribution([[0.1], [0.7], [2.3]], [0.2, 0.3, 0.5])
    g = symmetrize(x)
    order = np.argsort(g.atoms[:, 0])
    atoms = g.atoms[order, 0]
    w = g.weights[order]
    np.testing.assert_array_equal(atoms, -atoms[::-1])
    np.testing.assert_array_equal(w, w[::-1])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_symmetrize_mirrors_near_tied_laws_bit_for_bit(dim):
    # half-integer rows with signed zeros and 30% of them shifted within the
    # merge tolerance; the averaged rows of 2-D seeds 14, 17, 182 and 220 left
    # lexicographic order, and the constructor's re-sort and merge tipped one
    # side (seed 182 by 8.5 in its atoms)
    for seed in range(400):
        rng = np.random.default_rng(seed)
        rows = rng.integers(-6, 7, (40, dim)) / 2.0
        rows[rng.random(rows.shape) < 0.1] = -0.0
        rows[rng.random(40) < 0.3] += 1e-13
        w = rng.random(40)
        law = DiscreteDistribution(rows, w / w.sum(), normalized=False)
        g = symmetrize(DiscreteDistribution(law.atoms, law.weights / law.weights.sum()))
        assert np.array_equal(g.atoms, -g.atoms[::-1]), seed
        assert np.array_equal(g.weights, g.weights[::-1]), seed


def test_tail_mass_is_strict_at_the_boundary():
    g = symmetrize(DiscreteDistribution.rademacher())
    assert tail_mass(g, 2.0) == 0.0
    assert tail_mass(g, 1.999) == 0.5
    assert tail_mass(g, 0.0) == 0.5


@pytest.mark.parametrize("ratio", [0.3, 1.0, 1.5, 2.0, 3.7])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_lambda_d_matches_oracle(ratio, d):
    support, probs = O.UNIFORM3
    x = DiscreteDistribution(list(support), [float(p) for p in probs])
    g = symmetrize(x)
    sym = O.oracle_symmetrize(support, probs)
    want = float(O.oracle_lambda_d(sym, ratio, d))
    assert abs(lambda_d(g, ratio, d) - want) < 1e-14


def test_lambda_d_refuses_a_bool_dimension():
    # True == 1 would give the d = 1 value
    g = symmetrize(DiscreteDistribution.rademacher())
    with pytest.raises(DomainError, match="^d: expected an integer of at least 1, got True$"):
        lambda_d(g, 1.0, True)


@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0, 5.0])
def test_truncated_second_moment_matches_oracle(ratio):
    support, probs = O.bernoulli(0.3)
    x = DiscreteDistribution(list(support), [float(p) for p in probs])
    g = symmetrize(x)
    sym = O.oracle_symmetrize(support, probs)
    assert abs(truncated_second_moment(g, ratio) - O.oracle_m2(sym, ratio)) < 1e-14


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "x, tau, want",
    [
        (1e300, 1e300, 0.5),
        (1e300, 1e-300, 0.5),
        (1e300, 1e160, 0.5),
        (1e300, math.inf, 0.0),
        (1e-170, 1e-160, 0.5 * (2e-170 / 1e-160) ** 2),
    ],
)
def test_truncated_second_moment_past_the_float_range(x, tau, want):
    # where tau^2 leaves the normal range, z^2 / tau^2 was inf / inf or 0 / 0
    # (NaN), or 0 / tau^2 for z^2 below the range (0 where the ratio is 2e-10)
    g = symmetrize(DiscreteDistribution([-x, x], [0.5, 0.5]))
    assert truncated_second_moment(g, tau) == pytest.approx(want, rel=1e-15)


def test_truncated_second_moment_keeps_its_bits_in_the_normal_range():
    g = symmetrize(DiscreteDistribution([0.1, 0.7, 2.3], [0.2, 0.3, 0.5]))
    z = g.atoms[:, 0]
    for tau in (1e-150, 0.3, 1.0, 1e150):
        want = math.fsum(g.weights * np.minimum(z * z / (tau * tau), 1.0))
        assert truncated_second_moment(g, tau) == want


def test_functional_ordering_on_random_laws():
    rng = np.random.default_rng(5)
    for _ in range(60):
        k = rng.integers(2, 5)
        atoms = rng.normal(size=k)
        w = rng.random(k)
        x = DiscreteDistribution(atoms, w / w.sum())
        g = symmetrize(x)
        ratio = float(rng.uniform(0.05, 4.0))
        p = tail_mass(g, ratio)
        assert lambda_d(g, ratio, 1) >= p - 1e-12
        assert truncated_second_moment(g, ratio) >= p - 1e-12


def test_spectral_measure_merges_duplicates():
    m = spectral_measure(np.array([[1.0], [1.0], [2.0]]))
    assert m.normalized
    assert m.n_atoms == 4
    order = np.argsort(m.atoms[:, 0])
    np.testing.assert_array_equal(m.atoms[order, 0], [-2.0, -1.0, 1.0, 2.0])
    np.testing.assert_allclose(
        m.weights[order], [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0]
    )


def test_spectral_measure_sorts_its_rows_once(monkeypatch):
    # the merged rows are already in lexicographic order: the symmetric law
    # does not sort them again, and its constructor does not either
    calls = []
    lexsort = np.lexsort

    def spy(keys):
        calls.append(len(keys))
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", spy)
    m = spectral_measure(np.array([[1.0, 2.0], [3.0, -1.0], [1.0, 2.0], [0.5, 0.0]]))
    assert calls == [2]
    assert m.atoms.tolist() == [
        [-3.0, 1.0], [-1.0, -2.0], [-0.5, 0.0], [0.5, 0.0], [1.0, 2.0], [3.0, -1.0]
    ]


def test_spectral_measure_near_the_float_maximum():
    # each atom and its mirror are halved before they are subtracted: the
    # difference of 1e308 and -1e308 overflowed
    m = spectral_measure(np.array([[1e308], [1.0]]))
    assert m.atoms[:, 0].tolist() == [-1e308, -1.0, 1.0, 1e308]
    assert m.weights.tolist() == [0.25] * 4


def test_half_empirical_measure_mass():
    m = half_empirical_measure(np.array([[1.0], [3.0]]))
    assert not m.normalized
    assert abs(m.total_mass - 0.5) < 1e-15
    np.testing.assert_allclose(m.weights, 0.25)


def _cp_char_fn(law, ts):
    return O.oracle_cp_char_fn(law.intensity, law.base.atoms, law.base.weights, ts)


def test_compound_poisson_char_fn_is_exponential_tilt():
    # the smoothing law's intensity and base give exp(-(p/2) sum (1 - cos t a_k))
    a = WeightVector([[1.0], [2.0]])
    ts = np.linspace(-2.0, 2.0, 9)
    want = h_char_fn(a)(ts) ** 1.7
    np.testing.assert_allclose(_cp_char_fn(smoothing_law(a, 1.7), ts), want, atol=1e-13)


def test_compound_poisson_power_multiplies_intensity():
    a = WeightVector([[1.0]])
    base = spectral_measure(a.rows)
    ts = np.linspace(-1.0, 1.0, 5)
    law = smoothing_law(a, 2.0)
    assert (law.intensity, law.base.atoms.tolist()) == (1.0, base.atoms.tolist())
    np.testing.assert_allclose(
        _cp_char_fn(smoothing_law(a, 3.0), ts), _cp_char_fn(law, ts) ** 1.5, atol=1e-13
    )
    with pytest.raises(DomainError):
        CompoundPoisson(-1.0, base)


def test_cp_sampling_is_deterministic_and_centered():
    base = spectral_measure(np.array([[1.0], [2.0], [3.0]]))
    law = CompoundPoisson(4.0, base)
    s1 = cp_sample_rng(law, 4000, make_rng(123))
    s2 = cp_sample_rng(law, 4000, make_rng(123))
    np.testing.assert_array_equal(s1, s2)
    s3 = cp_sample_rng(law, 4000, make_rng(124))
    assert not np.array_equal(s1, s3)
    # symmetric base: mean 0, variance = intensity * E z^2
    var_atom = float(np.sum(base.weights * base.atoms[:, 0] ** 2))
    assert abs(s1.mean()) < 4.0 * math.sqrt(4.0 * var_atom / 4000.0)
    assert abs(s1.var() - 4.0 * var_atom) < 0.15 * 4.0 * var_atom


def test_atom_indices_is_the_clamped_right_search_of_the_cdf():
    # a float cumsum 1e-13 short of 1: uniforms above it still draw the last atom
    law = DiscreteDistribution([0.0, 1.0, 2.0], [0.1, 0.2, 0.7 - 1e-13])
    cum = np.cumsum(law.weights)
    u = np.array([0.0, cum[0], cum[1], cum[-1], 1.0 - 2.0**-53])
    want = np.minimum(np.searchsorted(cum, u, side="right"), law.n_atoms - 1)
    got = atom_indices(law, u)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == np.intp
    assert want.tolist() == [0, 1, 2, 2, 2]
    # any shape of uniforms: the sampler of a weighted sum draws (m, n) at once
    np.testing.assert_array_equal(atom_indices(law, np.stack([u, u[::-1]])), [want, want[::-1]])
    # guide-table bucket edges, the largest double below each, and CDF values
    # placed on the edges 1/4096 and 2049/4096
    law = DiscreteDistribution([0.0, 1.0, 2.0], [2.0**-12, 0.5, 0.5 - 2.0**-12])
    cum = np.cumsum(law.weights)
    k = np.array([0.0, 1.0, 2.0, 2048.0, 2049.0, 4095.0]) / 4096
    u = np.concatenate([k, np.nextafter(k[1:], 0.0), cum[:-1], [1.0 - 2.0**-53]])
    want = np.minimum(np.searchsorted(cum, u, side="right"), law.n_atoms - 1)
    got = atom_indices(law, u)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == np.intp
    assert got[:6].tolist() == [0, 1, 1, 1, 2, 2]


@st.composite
def _cdfs(draw):
    """Nondecreasing CDFs of 1 to 4,000 entries: random cumsums (some with
    zero weights), cumsums falling short of 1, and entries on the bucket
    edges k/2^12 (with ties)."""
    n = draw(st.integers(1, 4000))
    kind = draw(st.sampled_from(["cumsum", "short", "edges"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "edges":
        return np.sort(rng.integers(0, 4097, n)) / 4096.0
    w = rng.random(n) * (rng.random(n) < 0.8)
    cdf = np.cumsum(w / max(w.sum(), 1e-300))
    return cdf * (1.0 - 1e-9) if kind == "short" else cdf


@settings(max_examples=120, deadline=None)
@given(
    cdf=_cdfs(),
    side=st.sampled_from(["left", "right"]),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(300,), (30, 10)]),
)
def test_guide_search_is_the_plain_search(cdf, side, seed, shape):
    # uniforms at 0, on bucket edges, just below them, on CDF entries, at
    # 1 - 2^-53 and at random: the guide table gives searchsorted's indices
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, 4096, 60) / 4096.0
    u = np.concatenate([
        [0.0, 1.0 - 2.0**-53],
        edges,
        np.nextafter(edges[edges > 0], 0.0),
        rng.choice(cdf[cdf < 1.0], 40) if (cdf < 1.0).any() else [],
        rng.random(300),
    ])
    u = rng.permutation(u)[: math.prod(shape)].reshape(shape)
    got = _guide_search(cdf, u, side)
    np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side))
    assert got.dtype == np.intp and got.shape == u.shape


def test_guide_search_past_the_int16_table_is_the_plain_search():
    # 40,000 CDF entries: the table holds int64, and most buckets are undecided
    rng = np.random.default_rng(3)
    cdf = np.cumsum(rng.random(40_000) / 20_000.0)
    u = np.concatenate([rng.random(5000), np.arange(4096) / 4096.0])
    for side in ("left", "right"):
        got = _guide_search(cdf, u, side)
        np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side))
        assert got.dtype == np.intp


@pytest.mark.parametrize(
    "u", [[1.0], [-0.25, 0.5], [0.5, math.nan], [], 0.5], ids=["one", "negative", "nan", "empty", "scalar"]
)
def test_guide_search_outside_the_buckets_is_the_plain_search(u):
    # uniforms outside [0, 1), no uniforms, or a scalar: still the search's indices
    cdf = np.array([0.25, 0.5, 0.75, 1.0])
    got = _guide_search(cdf, u, "right")
    np.testing.assert_array_equal(got, np.searchsorted(cdf, u, "right"))
    assert got.dtype == np.intp and got.shape == np.shape(u)


def test_cp_sampling_large_mean_splits():
    base = spectral_measure(np.array([[1.0]]))
    law = CompoundPoisson(75.0, base)
    s = cp_sample_rng(law, 3000, make_rng(7))
    assert s.shape == (3000, 1)
    assert abs(s.var() - 75.0) < 8.0


def test_poisson_pmf_oracle_sanity():
    # oracle self-check used when freezing sampler expectations
    total = sum(O.oracle_poisson_pmf(3.0, k) for k in range(40))
    assert abs(total - 1.0) < 1e-12


def _assert_ordered_and_separated(points, tol):
    # strictly ascending rows (a signed zero ties its opposite), and every
    # consecutive max-norm gap above the merge tolerance
    rows = [tuple(r) for r in points.tolist()]
    assert all(a < b for a, b in zip(rows, rows[1:])), rows
    assert np.all(np.max(np.abs(np.diff(points, axis=0)), axis=1) > tol)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_every_law_is_ordered_and_separated(dim, n, seed):
    # half-integer rows with signed zeros and 30% of them shifted within the
    # tolerance: a merged mean used to round onto or past its neighbour
    rng = np.random.default_rng(seed)
    p = rng.integers(-4, 5, size=(n, dim)) * 0.5
    p[rng.random((n, dim)) < 0.2] = -0.0
    p[rng.random((n, dim)) < 0.2] = 0.0
    p[rng.random(n) < 0.3] += 1e-13
    w = rng.uniform(0.1, 1.0, size=n)
    law = DiscreteDistribution(p, w, normalized=False)
    _assert_ordered_and_separated(law.atoms, 1e-12)
    _assert_ordered_and_separated(symmetrize(DiscreteDistribution(p, w / w.sum())).atoms, 1e-12)
    _assert_ordered_and_separated(spectral_measure(p).atoms, 1e-12)
    # integer rows in [-3, 3] convolved with Bernoulli steps
    rows = rng.integers(-3, 4, size=(min(n, 8), dim))
    rows[0, 0] = 1  # a nonzero row
    bernoulli = DiscreteDistribution.from_shorthand("bernoulli(0.3)")
    summed = weighted_sum_distribution(bernoulli, WeightVector(rows))
    _assert_ordered_and_separated(summed.atoms, 1e-12)
    # generators with relations within the collision tolerance
    rank = int(rng.integers(1, 4))
    gens = rng.integers(-4, 5, size=(rank, dim)) * 0.5 + (rng.random((rank, dim)) < 0.5) * 1e-10
    gens[:, 0] += 0.25  # nonzero generators
    _assert_ordered_and_separated(Gap(rng.integers(1, 4, size=rank), gens).image(), 1e-9)


def test_a_merged_mean_past_its_neighbour_is_sorted_again():
    # the group {x, x} averages to y, and the group {y} to x: the second pass
    # puts them back in order (each merged mean may still move by an ulp)
    x = 2075202.8952853116
    y = np.nextafter(x, np.inf)
    law = DiscreteDistribution([x, x, y], [0.1, 0.45, 0.45])
    assert law.atoms[:, 0].tolist() == [x, y]
    _assert_ordered_and_separated(law.atoms, 1e-12)
