"""Acceptance battery: one test per release criterion, ordered.

Each test prints a single PASS line with the measured quantities; run
with ``-s`` to see them (the ``-v`` listing alone gives the per-criterion
pass/fail record).  Tolerances are pinned here and nowhere else; a
failure means the package does not meet its contract, not that the test
needs loosening.
"""

import itertools
import math
import time

import numpy as np
import pytest

from _oracles import oracle_lcd_ones, oracle_lcd_scan_1d
from anticonc._common import derive_seed
from anticonc.bounds import build_bound_report, smoothing_law, verify_pointwise_chain
from anticonc.cli import main
from anticonc.concentration import (
    WeightVector,
    esseen_upper_q,
    exact_q,
    mc_q,
    regularity_check,
    weighted_sum_char_fn,
    weighted_sum_distribution,
)
from anticonc.distributions import (
    DiscreteDistribution,
    half_empirical_measure,
    lambda_d,
    spectral_measure,
    symmetrize,
    tail_mass,
    truncated_second_moment,
)
from anticonc.instances import load_corpus
from anticonc.lcd import LcdParams, compute_lcd
from anticonc.progressions import (
    Gap,
    beta_rm,
    gamma_rs,
    uncovered_mass,
)

RADEMACHER = DiscreteDistribution.from_shorthand("rademacher")
UNIFORM3 = DiscreteDistribution.from_shorthand("uniform{-1,0,1}")
BERNOULLI = DiscreteDistribution.from_shorthand("bernoulli(0.3)")
LAWS = (RADEMACHER, UNIFORM3, BERNOULLI)


def ones_weights(n: int) -> WeightVector:
    return WeightVector([[1.0]] * n)


def test_criterion_01_central_window_mass_is_exact():
    start = time.monotonic()
    est = exact_q(RADEMACHER, ones_weights(10), 0.0)
    elapsed = time.monotonic() - start
    assert est.value == 252 / 1024
    assert est.method == "exact"
    assert elapsed < 1.0
    print(f"PASS criterion-1: flat ten-term window mass {est.value} "
          f"== 252/1024 in {elapsed:.3f}s")


def test_criterion_02_window_regularity_law():
    rng = np.random.default_rng(2)
    checked = 0
    for i in range(200):
        dim = 1 + (i % 2)
        law = LAWS[i % 3]
        if dim == 1:
            n = int(rng.integers(3, 9))
            if i % 4 == 0:
                rows = rng.uniform(0.3, 2.5, size=(n, 1))
            else:
                rows = rng.integers(1, 4, size=(n, 1)).astype(float)
        else:
            n = int(rng.integers(3, 5))
            rows = rng.integers(-2, 3, size=(n, 2)).astype(float)
            rows[np.all(rows == 0.0, axis=1)] = 1.0
        f = weighted_sum_distribution(law, WeightVector(rows))
        mu = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(0.2, 3.0))
        rc = regularity_check(f, mu, lam)
        assert rc.holds, (i, mu, lam, rc.q_mu, rc.q_lambda, rc.factor)
        checked += 1
    assert checked == 200
    print("PASS criterion-2: window regularity held on 200 randomized "
          "instances (dims 1-2), zero violations")


def test_criterion_03_pointwise_cosine_and_envelope_chain():
    start = time.monotonic()
    x = np.linspace(-math.pi, math.pi, 100_000)
    lhs = 1.0 - np.cos(x)
    rhs = 2.0 * x * x / math.pi**2
    assert np.all(lhs >= rhs - 1e-12)

    rng = np.random.default_rng(3)
    for i in range(20):
        if i < 17:
            n = int(rng.integers(3, 9))
            rows = rng.normal(0.0, 2.0, size=(n, 1))
            span = float(rng.uniform(5.0, 40.0))
            grid = np.linspace(-span, span, 10_000)
        else:
            n = int(rng.integers(3, 6))
            rows = rng.normal(0.0, 1.5, size=(n, 2))
            side = np.linspace(-8.0, 8.0, 100)
            gx, gy = np.meshgrid(side, side)
            grid = np.column_stack([gx.ravel(), gy.ravel()])
        rep = verify_pointwise_chain(WeightVector(rows), grid)
        assert rep.n_points == 10_000
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"PASS criterion-3: cosine lower bound on 1e5 points and "
          f"lattice-distance envelope on 20x1e4 grid points, slack 1e-12, "
          f"{elapsed:.2f}s")


def test_criterion_04_tail_functional_orderings():
    rng = np.random.default_rng(4)
    for i in range(500):
        k = int(rng.integers(2, 7))
        atoms = rng.uniform(-3.0, 3.0, size=(k, 1))
        w = rng.uniform(0.1, 1.0, size=k)
        base = DiscreteDistribution(atoms, w / w.sum())
        g = symmetrize(base)
        ratio = float(rng.uniform(0.05, 4.0))
        tau = float(rng.uniform(0.05, 4.0))
        d = 1 + (i % 3)
        assert lambda_d(g, ratio, d) >= tail_mass(g, ratio)
        assert truncated_second_moment(g, tau) >= tail_mass(g, tau)
    print("PASS criterion-4: floor-smoothed tail and truncated second "
          "moment dominate the plain tail on 500 random tuples (d up to 3)")


def test_criterion_05_lcd_brackets_match_closed_form_and_scan():
    cases = list(itertools.product((4, 9, 16), (0.3, 0.5, 0.9), (0.02, 10.0)))
    for n, gamma, alpha in cases:
        start = time.monotonic()
        closed = oracle_lcd_ones(n, gamma, alpha)
        res = compute_lcd(
            ones_weights(n), LcdParams(gamma=gamma, alpha=alpha, theta_max=1.5)
        )
        assert res.certified and res.converged
        assert res.d_lower - 1e-6 <= closed <= res.d_upper + 1e-6, (n, gamma, alpha)
        scan = oracle_lcd_scan_1d((1.0,) * n, gamma, alpha, 1.2, coarse=1e-5)
        assert scan is not None
        assert abs(scan - closed) <= 2e-5, (n, gamma, alpha, scan, closed)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, (n, gamma, alpha, elapsed)
    print(f"PASS criterion-5: {len(cases)} equal-weight denominators "
          f"bracketed within 1e-6 and confirmed by 1e-5 grid scans")


def test_criterion_06_progression_size_accounting():
    rng = np.random.default_rng(6)
    for i in range(200):
        rank = 1 + (i % 3)
        ambient = 1 + (i % 2)
        gens = rng.integers(-5, 6, size=(rank, ambient))
        radii = rng.uniform(0.3, 3.2, size=rank)
        p = Gap(radii, gens.astype(float))
        img = p.image()
        ranges = [range(-int(math.floor(L)), int(math.floor(L)) + 1) for L in radii]
        oracle = {
            tuple(int(v) for v in np.asarray(coef) @ gens)
            for coef in itertools.product(*ranges)
        }
        assert img.shape[0] == len(oracle)
        assert img.shape[0] <= p.box_total()
        assert (img.shape[0] == p.box_total()) == p.is_proper()

    collapsing = Gap((1.0, 1.0), [[1.0], [2.0]])
    assert collapsing.image().shape[0] == 7
    assert collapsing.box_total() == 9
    assert not collapsing.is_proper()
    print("PASS criterion-6: 200 random progressions obey the box-count "
          "cap with equality exactly for proper ones; (1,2)x(1,1) has size 7")


def test_criterion_07_coverage_witnesses_replay_exactly():
    rng = np.random.default_rng(7)
    weight_sets = [
        [[1.0]] * 6,
        [[1.0], [1.0], [2.0], [2.0], [3.0]],
        [[1.0], [2.0], [4.0], [8.0]],
        rng.integers(1, 6, size=(7, 1)).astype(float).tolist(),
    ]
    replays = 0
    for rows in weight_sets:
        for w in (spectral_measure(rows), half_empirical_measure(rows)):
            for tau in (0.3, 0.9, 1.7):
                for r, count in ((1, 3), (2, 2)):
                    res = beta_rm(w, tau, r, count)
                    assert uncovered_mass(w, res.witness.points(), tau) == res.value
                    fit = gamma_rs(w, tau, r, count)
                    assert uncovered_mass(w, fit.witness.points(), tau) == fit.value
                    replays += 2
                flat = beta_rm(w, tau, 0, 3)
                assert flat.exact
                assert flat.value == tail_mass(w, tau)
                flat_fit = gamma_rs(w, tau, 0, 3)
                assert flat_fit.exact
                assert flat_fit.value == tail_mass(w, tau)
                replays += 2
    assert replays >= 50
    print(f"PASS criterion-7: {replays} coverage witnesses re-evaluated "
          f"bit-exactly; rank-0 values equal the direct tail mass")


def test_criterion_08_smoothing_power_monotonicity_via_coupled_mc():
    for i in range(20):
        k = 3 + (i % 5)
        j = 1 + (i % 3)
        v = 2.0 + (i % 2)
        a = WeightVector([[1.0]] * k + [[v]] * j)
        m_star = spectral_measure(a.rows)
        ratio = 1.5
        p = tail_mass(m_star, ratio)
        lam = lambda_d(m_star, ratio, 1)
        assert lam > p
        kappa = 0.6 + 0.1 * (i % 8)
        seed = derive_seed(8000 + i, 0)
        est_lam = mc_q(smoothing_law(a, lam), kappa, 500_000, seed)
        est_p = mc_q(smoothing_law(a, p), kappa, 500_000, seed)
        joint = math.hypot(est_lam.stderr, est_p.stderr)
        assert est_lam.value <= est_p.value + 4.0 * joint, (
            i, est_lam.value, est_p.value, joint,
        )
    print("PASS criterion-8: higher smoothing power never raised the "
          "window mass beyond 4x joint stderr on 20 coupled MC instances "
          "(5e5 samples each)")


def test_criterion_09_second_moment_bound_dominates_tail_bound():
    comparable = 0
    for idx, spec in enumerate(sorted(load_corpus(), key=lambda s: s.id)):
        if spec.lcd is None:
            continue
        tau, kappa, delta = spec.require("tau", "kappa", "delta")
        rep = build_bound_report(
            spec.x, spec.a, tau, kappa, delta, *spec.caps,
            lcd=spec.lcd,
            instance=spec.id,
            seed=derive_seed(9, idx),
            mc_samples=20_000,
        )
        if rep.vacuous("lcd_m2") or rep.vacuous("lcd_p"):
            continue
        assert rep.bounds["lcd_m2"] <= rep.bounds["lcd_p"] + 1e-12, spec.id
        comparable += 1
    assert comparable >= 2

    # A strict regime: window placed between the two atom shells of the
    # step symmetrization, so the truncated second moment strictly
    # exceeds the tail mass and the bounds separate.
    strict = 0
    for tau in (2.2, 2.5, 2.8, 3.3):
        rep = build_bound_report(
            UNIFORM3, ones_weights(25), tau, 1.0, 0.5,
            lcd=LcdParams(gamma=0.9, alpha=10.0), instance=f"strict-{tau}", seed=9,
            mc_samples=20_000,
        )
        if rep.vacuous("lcd_m2") or rep.vacuous("lcd_p"):
            continue
        assert rep.bounds["lcd_m2"] < rep.bounds["lcd_p"]
        strict += 1
    assert strict >= 2
    print(f"PASS criterion-9: second-moment denominator bound <= tail "
          f"denominator bound on {comparable} corpus pairs and strictly "
          f"below on {strict} separated instances; zero violations")


def test_criterion_10_dual_integral_shape_audit():
    rng = np.random.default_rng(10)
    ratios = []
    for i in range(50):
        law = LAWS[i % 3]
        n = 3 + (i % 7)
        rows = rng.integers(1, 5, size=(n, 1)).astype(float)
        a = WeightVector(rows)
        tau = (0.5, 1.0, 2.0)[i % 3]
        exact = exact_q(law, a, tau).value
        upper = esseen_upper_q(weighted_sum_char_fn(law, a), tau, 1).value
        assert math.isfinite(upper) and upper > 0.0
        ratios.append(exact / upper)
    assert all(math.isfinite(r) for r in ratios)
    max_even = max(ratios[0::2])
    max_odd = max(ratios[1::2])
    assert max_even <= 10.0 * max_odd
    assert max_odd <= 10.0 * max_even
    print(f"PASS criterion-10: exact/dual-integral ratio finite on 50 "
          f"instances; max {max(ratios):.4f}, half maxima "
          f"{max_even:.4f} vs {max_odd:.4f} within factor 10")


def test_criterion_11_verification_reports_are_byte_identical(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["verify", "--seed", "11", "--format", "json",
                 "--out", str(first)]) == 0
    assert main(["verify", "--seed", "11", "--format", "json",
                 "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    text_a = tmp_path / "a.txt"
    text_b = tmp_path / "b.txt"
    assert main(["verify", "--seed", "11", "--out", str(text_a)]) == 0
    assert main(["verify", "--seed", "11", "--out", str(text_b)]) == 0
    assert text_a.read_bytes() == text_b.read_bytes()
    print("PASS criterion-11: repeated --seed 11 verification runs are "
          "byte-identical in both output formats")
