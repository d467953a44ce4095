import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as O
from anticonc import bounds, progressions
from anticonc._common import derive_seed
from anticonc.bounds import (
    BoundReport,
    ConstantsConfig,
    bound_report_csv,
    build_bound_report,
    compound_poisson_bound_cgap,
    compound_poisson_bound_gap,
    h_char_fn,
    lcd_compound_poisson_bound,
    lcd_weighted_sum_bounds,
    smoothing_law,
    transfer_bound_plain,
    transfer_bound_refined,
    transfer_bound_window,
    verify_pointwise_chain,
    weighted_sum_bound_cgap,
    weighted_sum_bound_cgap_tail_free,
    weighted_sum_bound_gap_tail_free,
)
from anticonc.concentration import WeightVector
from anticonc.distributions import DiscreteDistribution, spectral_measure
from anticonc.errors import ChainViolationError, DomainError, InputError
from anticonc.lcd import LcdParams
from anticonc.progressions import DEFAULT_CAPS, beta_rm, gamma_rs

RAD = DiscreteDistribution.rademacher()


# --- frozen arithmetic of the plug-in evaluators -----------------------------

def test_cp_cgap_unit_mass_case():
    # rank 0, single point, mass product 4: both terms are 1/2
    assert compound_poisson_bound_cgap(4.0, 1.0, 0, 1) == 1.0
    assert compound_poisson_bound_cgap(8.0, 0.5, 0, 1) == 1.0


def test_cp_cgap_rank_one_case():
    want = 0.5 + 2.0 ** 2.5
    assert abs(compound_poisson_bound_cgap(1.0, 1.0, 1, 2) - want) < 1e-12


def test_ws_cgap_equal_windows_is_vacuous():
    # kappa = delta doubles the leading factor; mass product 4 gives 1 + 1
    val = weighted_sum_bound_cgap(1.0, 1.0, 8, 0.5, 1.0, 0, 1)
    assert val == 2.0


def test_bound_forms_past_the_float_range_are_infinite():
    assert compound_poisson_bound_cgap(1e-20, 1.0, 40, 3) == math.inf  # a zero denominator
    assert transfer_bound_window(0.5, 1e200, 1.0, 2) == math.inf
    assert compound_poisson_bound_cgap(1.0, 0.5, 40, 3, ConstantsConfig(c2=1e10)) == math.inf
    assert compound_poisson_bound_gap(5.0, 0.5, 14, 3) == math.inf
    assert weighted_sum_bound_gap_tail_free(1.0, 0.5, 10, 0.5, 14, 3) == math.inf
    assert weighted_sum_bound_cgap(1e300, 1e-300, 4, 0.5, 0.5, 1, 3) == math.inf
    # (c6 r + 1)^(3 r^2 / 2) is 1.6e290 at r = 13: still finite
    assert math.isfinite(compound_poisson_bound_gap(5.0, 0.5, 13, 3))


def _or_inf(form):
    try:
        return form()
    except (OverflowError, ZeroDivisionError):
        return math.inf


@given(
    c=st.floats(0.1, 50.0),
    inflate=st.floats(0.1, 50.0),
    r=st.integers(0, 50),
    cap=st.integers(1, 10**6),
    alpha=st.floats(1e-30, 1e6),
    mass=st.floats(0.0, 1.0),
    kappa=st.floats(1e-300, 1e300),
    delta=st.floats(1e-300, 1e300),
    n=st.integers(1, 10**4),
    d=st.integers(1, 3),
)
@settings(max_examples=300, deadline=None)
def test_bound_forms_keep_their_bits_or_go_infinite(
    c, inflate, r, cap, alpha, mass, kappa, delta, n, d
):
    # the forms as first written, where a term past the float range raised
    k = ConstantsConfig(c2=c, c3=c, c4=c, c5=c, c6=inflate, c7=c, c8=inflate, c_d=c)

    def two_term(inflated, count, m):
        first_num = (inflate * r + 1.0) ** (1.5 * r * r) if inflated else 1.0
        return O.oracle_two_term(c ** (r + 1), first_num, count, m, r)

    def windowed(inflated, count, m):
        return (1 + math.floor(kappa / delta)) * two_term(inflated, count, m)

    cases = [
        (compound_poisson_bound_cgap(alpha, mass, r, cap, k),
         lambda: two_term(False, cap, alpha * mass)),
        (compound_poisson_bound_gap(alpha, mass, r, cap, k),
         lambda: two_term(True, cap, alpha * mass)),
        (weighted_sum_bound_cgap(kappa, delta, n, mass, 0.5, r, cap, k),
         lambda: windowed(False, cap, n * mass * 0.5)),
        (weighted_sum_bound_cgap_tail_free(kappa, delta, n, mass, r, cap, k),
         lambda: windowed(False, cap, n * mass)),
        (weighted_sum_bound_gap_tail_free(kappa, delta, n, mass, r, cap, k),
         lambda: windowed(True, cap, n * mass)),
        (transfer_bound_window(mass, kappa, delta, d, k),
         lambda: c * (1 + math.floor(kappa / delta)) ** d * mass),
    ]
    for got, form in cases:
        assert np.float64(got).tobytes() == np.float64(_or_inf(form)).tobytes()


def test_lcd_cp_frozen_example():
    want = 0.5 + math.exp(-4.0)
    got = lcd_compound_poisson_bound(1.0, LcdParams(0.5, 1.0), 2.0, 4.0, 1)
    assert abs(got - want) < 1e-12


def test_zero_mass_degenerates_to_inf():
    assert compound_poisson_bound_cgap(1.0, 0.0, 0, 1) == math.inf
    assert weighted_sum_bound_cgap(1.0, 0.5, 4, 0.0, 0.5, 0, 1) == math.inf
    assert compound_poisson_bound_gap(1.0, 0.0, 0, 1) == math.inf
    assert transfer_bound_refined(0.3, 0.0) == math.inf
    assert lcd_compound_poisson_bound(0.0, LcdParams(0.5, 1.0), 1.0, 1.0, 1) == math.inf


def test_monotone_decreasing_in_mass_slot():
    masses = np.linspace(0.05, 1.0, 20)
    for fn in (
        lambda b: compound_poisson_bound_cgap(3.0, b, 1, 2),
        lambda b: weighted_sum_bound_cgap(1.0, 0.5, 12, 0.4, b, 1, 2),
        lambda b: weighted_sum_bound_cgap_tail_free(1.0, 0.5, 12, b, 1, 2),
        lambda b: compound_poisson_bound_gap(3.0, b, 2, 4),
        lambda b: weighted_sum_bound_gap_tail_free(1.0, 0.5, 12, b, 2, 4),
        lambda b: lcd_compound_poisson_bound(b, LcdParams(0.5, 1.0), 2.0, 4.0, 1),
    ):
        vals = [fn(float(b)) for b in masses]
        diffs = np.diff(vals)
        assert np.all(diffs <= 1e-12), fn


def test_rank_inflation_factors():
    # the richer class costs (c6 r + 1)^(3 r^2 / 2) in the first term only
    r, s, mass = 2, 3, 0.7
    plain = compound_poisson_bound_cgap(1.0, mass, r, s)
    rich = compound_poisson_bound_gap(1.0, mass, r, s)
    inflation = (1.0 * r + 1.0) ** (1.5 * r * r)
    first_plain = 1.0 / (s * math.sqrt(mass))
    assert abs((rich - plain) - (inflation - 1.0) * first_plain) < 1e-12


def test_bound_forms_refuse_a_bool_rank_or_cap():
    for r, m in ((True, 3), (1, True), (True, True)):
        with pytest.raises(DomainError):
            compound_poisson_bound_cgap(1.0, 0.5, r, m)


def test_transfer_bounds():
    assert transfer_bound_plain(0.25) == 0.25
    assert transfer_bound_window(0.25, 1.0, 0.5, 1) == 0.75
    assert transfer_bound_window(0.25, 1.0, 0.5, 2) == 0.25 * 9.0
    assert abs(transfer_bound_refined(0.25, 2.5) - 0.1) < 1e-15
    with pytest.raises(DomainError):
        transfer_bound_window(0.25, -1.0, 0.5, 1)


def test_lcd_m2_dominates_p_route():
    # with the default exponent coefficient, a larger mass slot can only help
    for p, m2 in ((0.2, 0.2), (0.2, 0.5), (0.05, 1.0)):
        _, via_p, via_m2 = lcd_weighted_sum_bounds(
            0.5, p, m2, LcdParams(0.5, 1.0), 2.0, 4.0, 1
        )
        assert via_m2 <= via_p + 1e-12
        if m2 == p:
            assert via_m2 == via_p


def test_lcd_lambda_prefactor():
    lam = 0.5
    via_lambda, via_p, _ = lcd_weighted_sum_bounds(
        lam, lam, lam, LcdParams(0.5, 1.0), 2.0, 4.0, 1
    )
    assert abs(via_lambda - via_p / lam) < 1e-12


# --- constants configuration -------------------------------------------------

def test_constants_defaults_and_round_trip():
    c = ConstantsConfig()
    assert c.c2 == 1.0 and c.c_d == 1.0 and c.c_exp_m2 == 4.0
    back = ConstantsConfig.from_json_obj(c.to_json_obj())
    assert back == c
    tweaked = ConstantsConfig.from_json_obj({"c5": 2.5})
    assert tweaked.c5 == 2.5 and tweaked.c2 == 1.0


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, True, "x"])
def test_constants_reject_bad_values(bad):
    with pytest.raises((DomainError, InputError)):
        ConstantsConfig(c2=bad)


def test_constants_reject_unknown_key():
    for key in ("c99", "c9"):
        with pytest.raises(InputError):
            ConstantsConfig.from_json_obj({key: 1.0})


# --- smoothing law and the pointwise chain -----------------------------------

def test_h_char_fn_values_and_smoothing_law():
    a = WeightVector([[1.0]])
    f = h_char_fn(a)
    np.testing.assert_allclose(f(np.array([math.pi])), math.exp(-1.0), atol=1e-14)
    law = smoothing_law(a, power=0.5)
    # hat H^b = exp(-(b/2) sum (1 - cos<t, a_k>))
    ts = np.linspace(-3.0, 3.0, 11)
    np.testing.assert_allclose(
        law.char_fn_grid(ts).real, f(ts) ** 0.5, atol=1e-12
    )
    np.testing.assert_allclose(law.char_fn_grid(ts).imag, 0.0, atol=1e-12)


def test_chain_equality_points_pass_at_tiny_slack():
    a = WeightVector([[1.0]])
    grid = np.array([[-math.pi], [math.pi], [0.5], [2.0], [0.0]])
    rep = verify_pointwise_chain(a, grid, slack=1e-12)
    assert rep.n_points == 5
    assert rep.cosine_checks > 0 and rep.envelope_checks == 5


def test_chain_reads_one_reduced_phase_at_large_weights():
    # at t = -6.5527 the phase of 1e12 lies next to +-pi, where the cosine
    # bound is tight, so both of its sides must read the same reduced phase
    a = WeightVector([[1.0], [1e12]])
    grid = np.concatenate([[-6.552702526055613], np.linspace(-10.0, 10.0, 20001)])
    rep = verify_pointwise_chain(a, grid, slack=1e-12)
    assert rep.cosine_checks == 2 * grid.size


def test_chain_lcd_branch_counts_premise_failures():
    a = WeightVector(np.ones((4, 1)))
    # D far above the true denominator: the premise must fail somewhere
    grid = np.linspace(-6.0, 6.0, 301)[:, None]
    lcd = LcdParams(gamma=0.5, alpha=10.0)
    rep = verify_pointwise_chain(a, grid, lcd=lcd, big_d=5.0)
    assert rep.premise_failures > 0
    with pytest.raises(InputError):
        verify_pointwise_chain(a, grid, lcd=lcd)


def test_chain_violation_error_carries_location():
    err = ChainViolationError("cosine_quadratic", 1.0, 2.0, 1.5)
    assert err.label == "cosine_quadratic"
    assert err.lhs == 2.0 and err.rhs == 1.5


# --- full reports -------------------------------------------------------------

def _small_report(**kw):
    a = WeightVector(np.ones((6, 1)))
    args = dict(
        tau=1.5,
        kappa=1.0,
        delta=0.5,
        r=1,
        m=3,
        s=3,
        lcd=LcdParams(gamma=0.5, alpha=2.0),
        instance="unit",
        seed=0,
        mc_samples=2000,
    )
    args.update(kw)
    return build_bound_report(RAD, a, **args)


def test_report_tags_targets_and_guards():
    rep = _small_report()
    assert set(rep.bounds) == {
        "cp_cgap", "cp_gap", "ws_cgap_p", "ws_cgap_lambda", "ws_gap_lambda",
        "transfer_plain", "transfer_window", "transfer_refined",
        "lcd_cp", "lcd_lambda", "lcd_p", "lcd_m2",
    }
    assert "q" in rep.references
    assert "q_h_p_kappa" in rep.references
    assert rep.guards["lcd_certified"]
    obj = rep.to_json_obj()
    assert obj["instance"] == "unit"
    for entry in obj["bounds"].values():
        assert set(entry) == {"value", "vacuous", "target"}
        if entry["value"] is not None:
            assert math.isfinite(entry["value"])


def test_report_csv_layout():
    rep = _small_report()
    text = bound_report_csv([rep])
    lines = text.strip().split("\n")
    assert lines[0] == (
        "instance,tag,value,vacuous,target,target_value,"
        "target_method,target_stderr"
    )
    assert len(lines) == 1 + len(rep.bounds)
    assert all(line.startswith("unit,") for line in lines[1:])


def test_report_seed_changes_mc_not_exact():
    rep1 = _small_report(seed=1)
    rep2 = _small_report(seed=2)
    assert rep1.references["q"]["value"] == rep2.references["q"]["value"]
    assert (
        rep1.references["q_h_p_kappa"]["value"]
        != rep2.references["q_h_p_kappa"]["value"]
    )


def test_report_seed_is_a_64_bit_integer():
    # one seed rule for the library: an integer in [0, 2^64), never masked
    assert (
        _small_report(seed=np.uint64(3)).to_json_obj()
        == _small_report(seed=3).to_json_obj()
    )
    assert _small_report(seed=2**64 - 1).parameters["seed"] == 2**64 - 1
    for bad in (-1, 2**64, 3.0, True, "3"):
        with pytest.raises(DomainError, match="seed must be an integer"):
            _small_report(seed=bad)


def test_report_records_failed_esseen_cross_check():
    # the 3-D dual-ball quadrature does not converge at the delta window
    a = WeightVector(np.random.default_rng(0).uniform(0.3, 2, (8, 3)))
    rep = build_bound_report(
        RAD, a, tau=0.1, kappa=0.1, delta=0.05, r=1, m=3, s=3,
        mc_samples=2000,
    )
    ref = rep.references["q_h_p_delta"]
    assert ref["esseen_upper"] is None
    assert ref["esseen_error"] == "spherical quadrature did not converge"
    assert 0.0 <= ref["value"] <= 1.0
    assert rep.references["q_h_p_kappa"]["esseen_upper"] > 0.0
    json.dumps(rep.to_json_obj())


@pytest.mark.parametrize(
    "x, calls", [(RAD, 2), (DiscreteDistribution.from_shorthand("uniform{-1,0,1}"), 3)]
)
def test_report_computes_equal_kappa_references_once(x, calls):
    # Rademacher steps give p == lambda at tau/kappa = 1.5; uniform{-1,0,1} does not
    a = WeightVector(np.ones((6, 1)))
    args = dict(tau=1.5, kappa=1.0, delta=0.5, seed=4, mc_samples=2000)
    with mock.patch.object(
        bounds, "_smoothed_reference", wraps=bounds._smoothed_reference
    ) as spy:
        rep = build_bound_report(x, a, **args)
    assert spy.call_count == calls
    assert (rep.guards["lambda_tau_over_kappa"] == rep.guards["p_tau_over_kappa"]) == (
        calls == 2
    )
    # the entry the report would hold had the kappa reference been recomputed
    direct = bounds._smoothed_reference(
        a, rep.guards["lambda_tau_over_kappa"], 1.0, 2000, derive_seed(4, 2),
        ConstantsConfig(),
    )
    assert rep.references["q_h_lambda_kappa"] == direct
    assert rep.references["q_h_lambda_kappa"] is not rep.references["q_h_p_kappa"]


_GENERIC = WeightVector(np.array([[0.7], [1.3], [1.9], [0.45], [2.6], [3.3]]))


@pytest.mark.parametrize(
    "m, s, delta, searches", [(3, 3, 0.05, 2), (3, 9, 0.05, 4), (5, 5, 1.0, 1)]
)
def test_report_runs_one_coverage_search_per_window_and_cap(m, s, delta, searches):
    # gamma* at cap s is read from the beta search at cap s; kappa = 1.0
    args = dict(tau=1.5, kappa=1.0, delta=delta, r=2, m=m, s=s, mc_samples=2000)
    with mock.patch.object(bounds, "beta_rm", wraps=beta_rm) as beta_spy, mock.patch.object(
        progressions, "gamma_rs", wraps=gamma_rs
    ) as gamma_spy:
        rep = build_bound_report(RAD, _GENERIC, **args)
    assert beta_spy.call_count == searches
    assert gamma_spy.call_count == 0
    w = spectral_measure(_GENERIC.rows)
    for name, window in (("delta", delta), ("kappa", 1.0)):
        assert rep.guards[f"beta_star_{name}"] == beta_rm(w, window, 2, m).value
        assert rep.guards[f"gamma_star_{name}"] == gamma_rs(w, window, 2, s).value


def test_report_without_lcd_params_drops_lcd_tags():
    rep = _small_report(lcd=None)
    assert not any(tag.startswith("lcd") for tag in rep.bounds)


def test_report_caps_default_to_the_instance_defaults():
    rep = build_bound_report(
        RAD, WeightVector(np.ones((6, 1))), tau=1.5, kappa=1.0, delta=0.5, mc_samples=2000
    )
    assert tuple(rep.parameters[k] for k in "rms") == tuple(DEFAULT_CAPS.values())


def test_report_above_dim_three_has_no_lcd_bracket():
    # no LCD search runs in 4-D, so every lcd tag is vacuous
    rep = build_bound_report(
        RAD, WeightVector(np.eye(4)), tau=1.0, kappa=1.0, delta=0.5,
        lcd=LcdParams(gamma=0.5, alpha=10.0), seed=0, mc_samples=20000,
    )
    for tag in ("lcd_cp", "lcd_lambda", "lcd_p", "lcd_m2"):
        assert rep.bounds[tag] == math.inf
    assert rep.guards["lcd_d_lower"] == 0.0
    assert rep.guards["lcd_certified"] is False
    assert rep.guards["lcd_converged"] is False


def test_report_above_dim_three_records_skipped_esseen_cross_check():
    rep = build_bound_report(
        RAD, WeightVector(np.eye(4)), tau=1.0, kappa=1.0, delta=0.5, mc_samples=2000,
    )
    for name in ("q_h_p_kappa", "q_h_lambda_kappa", "q_h_p_delta"):
        ref = rep.references[name]
        assert ref["esseen_upper"] is None
        assert ref["esseen_skipped"] == "the dual-ball quadrature supports dimensions 1 to 3"
        assert 0.0 <= ref["value"] <= 1.0
    json.dumps(rep.to_json_obj())
