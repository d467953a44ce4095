import json
import math
from fractions import Fraction
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
    h_char_fn,
    smoothing_law,
    verify_pointwise_chain,
)
from anticonc.concentration import WeightVector, mc_q
from anticonc.distributions import DiscreteDistribution, spectral_measure
from anticonc.errors import ChainViolationError, DomainError, InputError
from anticonc.instances import load_corpus
from anticonc.lcd import LcdParams
from anticonc.progressions import DEFAULT_CAPS, beta_rm, gamma_rs

RAD = DiscreteDistribution.rademacher()
UNIFORM3 = DiscreteDistribution.from_shorthand("uniform{-1,0,1}")


# --- frozen arithmetic of the three bound forms -------------------------------

_LCD = LcdParams(0.5, 1.0)


def _lcd_form(b, big_d=2.0, det_gram=4.0, exp_coeff=4.0):
    return bounds._lcd_core(b, _LCD, big_d, det_gram, 1, 1.0, exp_coeff)


def test_cp_cgap_unit_mass_case():
    # rank 0, single point, mass product 4: both terms are 1/2
    assert bounds._two_term(1.0, 1, 4.0 * 1.0, 0) == 1.0
    assert bounds._two_term(1.0, 1, 8.0 * 0.5, 0) == 1.0


def test_cp_cgap_rank_one_case():
    want = 0.5 + 2.0 ** 2.5
    assert abs(bounds._two_term(1.0, 2, 1.0, 1) - want) < 1e-12


def test_ws_cgap_equal_windows_is_vacuous():
    # kappa = delta doubles the leading factor; mass product 4 gives 1 + 1
    assert bounds._window(1.0, 1.0, 1) * bounds._two_term(1.0, 1, 8 * 0.5 * 1.0, 0) == 2.0


def test_bound_forms_past_the_float_range_are_infinite():
    two_term, window = bounds._two_term, bounds._window
    assert two_term(1.0, 3, 1e-20, 40) == math.inf  # a zero denominator
    assert window(1e200, 1.0, 2) == math.inf
    assert window(1e300, 1e-300, 1) == math.inf
    assert two_term(1e10, 3, 0.5, 40) == math.inf
    assert two_term(1.0, 3, 5.0 * 0.5, 14, 1.0) == math.inf
    assert window(1.0, 0.5, 1) * two_term(1.0, 3, 10 * 0.5, 14, 1.0) == math.inf
    assert bounds._lcd_core(1e-300, _LCD, 1.0, 1.0, 3, 1.0, 4.0) == math.inf
    # (c6 r + 1)^(3 r^2 / 2) is 1.6e290 at r = 13: still finite
    assert math.isfinite(two_term(1.0, 3, 5.0 * 0.5, 13, 1.0))


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
    def two_term(inflated, m):
        first_num = (inflate * r + 1.0) ** (1.5 * r * r) if inflated else 1.0
        return O.oracle_two_term(c ** (r + 1), first_num, cap, m, r)

    def windowed(inflated, m):
        return (1 + math.floor(kappa / delta)) * two_term(inflated, m)

    two, win = bounds._two_term, bounds._window
    cases = [
        (two(c, cap, alpha * mass, r), lambda: two_term(False, alpha * mass)),
        (two(c, cap, alpha * mass, r, inflate), lambda: two_term(True, alpha * mass)),
        (win(kappa, delta, 1) * two(c, cap, n * mass * 0.5, r),
         lambda: windowed(False, n * mass * 0.5)),
        (win(kappa, delta, 1) * two(c, cap, n * mass, r, inflate),
         lambda: windowed(True, n * mass)),
        (win(kappa, delta, d), lambda: float((1 + math.floor(kappa / delta)) ** d)),
    ]
    for got, form in cases:
        assert np.float64(got).tobytes() == np.float64(_or_inf(form)).tobytes()


def test_lcd_cp_frozen_example():
    want = 0.5 + math.exp(-4.0)
    assert abs(_lcd_form(1.0) - want) < 1e-12


def test_zero_mass_degenerates_to_inf():
    assert bounds._two_term(1.0, 1, 0.0, 0) == math.inf
    assert bounds._two_term(1.0, 1, 0.0, 0, 1.0) == math.inf
    assert _lcd_form(0.0, 1.0, 1.0) == math.inf
    assert _lcd_form(1.0, det_gram=0.0) == math.inf
    # a step law at one point: p, lambda and every lcd mass are 0
    rep = build_bound_report(
        DiscreteDistribution([[1.0]], [1.0]), WeightVector(np.ones((4, 1))),
        tau=1.0, kappa=1.0, delta=0.5, lcd=LcdParams(0.5, 1.0), mc_samples=2000,
    )
    assert rep.guards["p_tau_over_kappa"] == rep.guards["lambda_tau_over_kappa"] == 0.0
    for tag in ("cp_cgap", "cp_gap", "ws_cgap_p", "transfer_refined",
                "lcd_lambda", "lcd_p", "lcd_m2"):
        assert rep.bounds[tag] == math.inf, tag


def test_monotone_decreasing_in_mass_slot():
    masses = np.linspace(0.05, 1.0, 20)
    window = bounds._window(1.0, 0.5, 1)
    for fn in (
        lambda b: bounds._two_term(1.0, 2, 3.0 * b, 1),
        lambda b: window * bounds._two_term(1.0, 2, 12 * 0.4 * b, 1),
        lambda b: window * bounds._two_term(1.0, 2, 12 * b, 1),
        lambda b: bounds._two_term(1.0, 4, 3.0 * b, 2, 1.0),
        lambda b: window * bounds._two_term(1.0, 4, 12 * b, 2, 1.0),
        _lcd_form,
    ):
        vals = [fn(float(b)) for b in masses]
        diffs = np.diff(vals)
        assert np.all(diffs <= 1e-12), fn


def test_rank_inflation_factors():
    # the richer class costs (c6 r + 1)^(3 r^2 / 2) in the first term only
    r, s, mass = 2, 3, 0.7
    plain = bounds._two_term(1.0, s, mass, r)
    rich = bounds._two_term(1.0, s, mass, r, 1.0)
    inflation = (1.0 * r + 1.0) ** (1.5 * r * r)
    first_plain = 1.0 / (s * math.sqrt(mass))
    assert abs((rich - plain) - (inflation - 1.0) * first_plain) < 1e-12


def test_transfer_bounds():
    assert bounds._window(1.0, 0.5, 1) == 3.0
    assert bounds._window(1.0, 0.5, 2) == 9.0
    with pytest.raises(DomainError, match="kappa: expected a positive number, got -1.0"):
        _small_report(kappa=-1.0)


def test_lcd_m2_dominates_p_route():
    # with the default exponent coefficient, a larger mass slot can only help
    for p, m2 in ((0.2, 0.2), (0.2, 0.5), (0.05, 1.0)):
        via_p, via_m2 = _lcd_form(p), _lcd_form(m2)
        assert via_m2 <= via_p + 1e-12
        if m2 == p:
            assert via_m2 == via_p


def test_lcd_lambda_prefactor():
    rep = _small_report()
    lam = rep.guards["lambda_tau_d"]
    assert 0.0 < lam < 1.0
    _, det_gram = WeightVector(np.ones((6, 1))).gram()
    form = bounds._lcd_core(
        lam, LcdParams(gamma=0.5, alpha=2.0), rep.parameters["D"], det_gram, 1, 1.0, 4.0
    )
    assert rep.bounds["lcd_lambda"] == form / lam


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
    got = O.oracle_cp_char_fn(law.intensity, law.base.atoms, law.base.weights, ts)
    np.testing.assert_allclose(got.real, f(ts) ** 0.5, atol=1e-12)
    np.testing.assert_allclose(got.imag, 0.0, atol=1e-12)


def test_chain_equality_points_pass_at_tiny_slack():
    a = WeightVector([[1.0]])
    grid = np.array([[-math.pi], [math.pi], [0.5], [2.0], [0.0]])
    rep = verify_pointwise_chain(a, grid)
    assert (rep.n_points, rep.lcd_checks, rep.premise_failures) == (5, 0, 0)


def test_chain_reads_one_reduced_phase_at_large_weights():
    # at t = -6.5527 the phase of 1e12 lies next to +-pi, where the cosine
    # bound is tight, so both of its sides must read the same reduced phase
    a = WeightVector([[1.0], [1e12]])
    grid = np.concatenate([[-6.552702526055613], np.linspace(-10.0, 10.0, 20001)])
    rep = verify_pointwise_chain(a, grid)
    assert rep.n_points == grid.size


def test_chain_refuses_a_nan_grid_point():
    # every comparison with a NaN phase is false: the chain passed
    with pytest.raises(DomainError, match="^expected finite numbers, got nan$"):
        verify_pointwise_chain(WeightVector([[1.0], [2.0]]), [math.nan])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("weight", [5e307, 1e308])
def test_chain_refuses_phases_past_the_float_range(weight):
    # 8 * 5e307 overflows: every comparison on the inf phase ran on NaN, and the chain passed
    with pytest.raises(DomainError, match=r"^phases <t, a_k>: expected finite numbers, got -inf$"):
        verify_pointwise_chain(WeightVector([[weight], [1.0]]), np.linspace(-8.0, 8.0, 17))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_report_skips_the_esseen_cross_check_where_phases_overflow():
    # at window 0.01 the quadrature reads t up to about 628: 628 * 1e307 is past the float range
    a = WeightVector([[1e307], [1.0]])
    rep = build_bound_report(RAD, a, tau=0.01, kappa=0.01, delta=0.01, mc_samples=2000)
    for name in ("q_h_p_kappa", "q_h_lambda_kappa", "q_h_p_delta"):
        ref = rep.references[name]
        assert ref["esseen_upper"] is None
        assert ref["esseen_skipped"].startswith("phases <t, a_k>: expected finite numbers, got ")
        assert 0.0 <= ref["value"] <= 1.0


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
    # the all-ones weights lie on Z: like the exact q, every smoothed
    # reference is a lattice bracket, the same under every seed
    rep1 = _small_report(seed=1)
    rep2 = _small_report(seed=2)
    assert rep1.references == rep2.references
    smoothed = [name for name in rep1.references if name.startswith("q_h_")]
    assert len(smoothed) == 4  # with q_h_b_invd of the lcd tags
    assert all(rep1.references[name]["method"] == "lattice_fft" for name in smoothed)
    # off the lattice (09-irr-04) they are Monte Carlo estimates that move with the seed
    spec = next(spec for spec in load_corpus() if spec.id == "09-irr-04")
    irr1, irr2 = (
        build_bound_report(
            spec.x, spec.a, *spec.require("tau", "kappa", "delta"), seed=seed, mc_samples=2000
        )
        for seed in (1, 2)
    )
    assert irr1.references["q"] == irr2.references["q"]
    for name in ("q_h_p_kappa", "q_h_p_delta"):
        assert irr1.references[name]["method"] == "monte_carlo"
        assert irr1.references[name]["value"] != irr2.references[name]["value"]


def test_report_seed_is_a_64_bit_integer():
    # the count rule for the library's seeds: an integer in [0, 2^64), never masked
    assert (
        _small_report(seed=np.uint64(3)).to_json_obj()
        == _small_report(seed=3).to_json_obj()
    )
    assert _small_report(seed=2**64 - 1).parameters["seed"] == 2**64 - 1
    for bad in (-1, 2**64, 3.0, True, "3"):
        with pytest.raises(DomainError, match=f"^seed: expected an integer from 0 to {2**64 - 1}, got "):
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
    "x, calls", [(RAD, 2), (UNIFORM3, 3)]
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
        a, smoothing_law(a), h_char_fn(a), rep.guards["lambda_tau_over_kappa"], 1.0, 2000,
        derive_seed(4, 2), ConstantsConfig(),
    )
    assert rep.references["q_h_lambda_kappa"] == direct
    assert rep.references["q_h_lambda_kappa"] is not rep.references["q_h_p_kappa"]


def test_report_builds_its_smoothing_law_once():
    # uniform{-1,0,1} gives three distinct references (p != lambda at kappa),
    # all drawn from one H; the coverage searches read H's spectral measure
    a = WeightVector(np.ones((6, 1)))
    spies = {
        name: mock.patch.object(bounds, name, wraps=getattr(bounds, name))
        for name in ("spectral_measure", "smoothing_law", "h_char_fn", "_smoothed_reference")
    }
    with spies["spectral_measure"] as measure, spies["smoothing_law"] as law, \
         spies["h_char_fn"] as char_fn, spies["_smoothed_reference"] as refs:
        build_bound_report(UNIFORM3, a, tau=1.5, kappa=1.0, delta=0.5, mc_samples=2000)
    assert refs.call_count == 3
    assert (measure.call_count, law.call_count, char_fn.call_count) == (1, 1, 1)


@pytest.mark.parametrize("power", [0.0, 0.25, 1.0, 1.7, 3.0])
def test_smoothed_reference_draws_from_the_scaled_smoothing_law(power):
    # H with its intensity scaled by power is smoothing_law(a, power) bit for bit
    a = WeightVector(np.array([[0.7], [1.3], [1.9]]))
    h = smoothing_law(a)
    scaled = smoothing_law(a, power)
    entry = bounds._smoothed_reference(a, h, h_char_fn(a), power, 0.5, 2000, 9, ConstantsConfig())
    assert h.intensity * power == scaled.intensity
    assert entry["value"] == mc_q(scaled, 0.5, 2000, 9).value
    with pytest.raises(DomainError, match="^power: "):
        bounds._smoothed_reference(a, h, h_char_fn(a), -power - 1.0, 0.5, 2000, 9, ConstantsConfig())


_STEPS = st.lists(st.integers(-8, 8), min_size=1, max_size=5).filter(any)


@settings(max_examples=120, deadline=None)
@given(
    lattice=st.one_of(
        # integer and dyadic weights m_k / 2^shift
        st.tuples(_STEPS, st.integers(0, 3).map(lambda shift: 2.0**-shift)),
        # weights m_k u whose gcd is not a power of two: units whose products
        # with every m_k are exact, and power-of-two multiples of decimal units
        st.tuples(_STEPS, st.sampled_from([3.0, 5.0, 2.5, 0.375, 7.0])),
        st.tuples(
            st.lists(st.sampled_from([-8, -4, -2, -1, 1, 2, 4, 8]), min_size=1, max_size=5),
            st.sampled_from([0.1, 0.3, 1 / 3]),
        ),
    ),
    power=st.floats(0.0, 3.0, exclude_min=True),
    window=st.sampled_from([0.5, 1.0, 1.5, 2.75]),
)
def test_lattice_bracket_holds_the_window_mass_of_the_law(lattice, power, window):
    # the tolerance is the oracle's own rounding, the bracket's width its a
    # priori rounding bound
    steps, unit = lattice
    assert all(Fraction(m * unit) == m * Fraction(unit) for m in steps)
    a = WeightVector([[m * unit] for m in steps])
    assert bounds._lattice_steps(a)[0] == math.gcd(*steps) * unit
    lower, upper = bounds._lattice_fft_q(a, power, window)
    points, masses = O.oracle_cp_law_1d(steps, unit, 0.5 * len(steps) * power)
    q = O.oracle_max_window_mass(points, masses, window)
    assert lower - 1e-14 <= q <= upper + 1e-14
    assert 0.0 <= upper - lower <= 1e-10


def test_lattice_reference_at_power_zero_is_one():
    # H^0 is the point mass at 0, whatever the weights
    for a in (WeightVector([[1.0], [2.0]]), WeightVector([[1.0], [2**0.5]])):
        entry = bounds._smoothed_reference(
            a, smoothing_law(a), h_char_fn(a), 0.0, 0.5, 2000, 9, ConstantsConfig()
        )
        assert (entry["method"], entry["lower"], entry["value"]) == ("lattice_fft", 1.0, 1.0)


def test_lattice_is_the_gcd_of_the_weights_as_rationals():
    # 0.1 is 3602879701896397 / 2^55: the largest power of two dividing it is
    # 2^-55, but every weight is one multiple of that one double
    a = WeightVector([[0.1]] * 10)
    assert bounds._lattice_steps(a) == (0.1, [(1, 10)])
    assert bounds._lattice_steps(WeightVector([[3.0], [6.0], [9.0]])) == (
        3.0, [(1, 1), (2, 1), (3, 1)]
    )
    rep = build_bound_report(RAD, a, tau=0.1, kappa=0.2, delta=0.1, mc_samples=2000)
    smoothed = [name for name in rep.references if name.startswith("q_h_")]
    assert len(smoothed) == 3
    for name in smoothed:
        ref = rep.references[name]
        assert ref["method"] == "lattice_fft", name
        assert 0.0 <= ref["lower"] <= ref["value"] <= ref["lower"] + 1e-9, name


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lattice_grid_past_its_cap_falls_back_to_monte_carlo():
    # weights [1e308, 1] lie on Z, but their span needs about 1e308 grid
    # points: the references are Monte Carlo, whose samples leave the float range
    a = WeightVector([[1e308], [1.0]])
    assert bounds._lattice_fft_q(a, 1.0, 1.0) is None
    with pytest.raises(DomainError, match="^samples: expected finite numbers"):
        build_bound_report(RAD, a, tau=0.5, kappa=1.0, delta=0.5, mc_samples=2000)


def test_corpus_references_on_the_line_and_a_lattice_are_brackets():
    for spec in load_corpus():
        rep = build_bound_report(
            spec.x, spec.a, *spec.require("tau", "kappa", "delta"), lcd=spec.lcd,
            seed=0, mc_samples=2000,
        )
        lattice = spec.a.dim == 1 and np.all(spec.a.rows == np.rint(spec.a.rows))
        for name, ref in rep.references.items():
            if name == "q":
                continue
            if lattice:
                assert ref["method"] == "lattice_fft", (spec.id, name)
                assert 0.0 <= ref["lower"] <= ref["value"] <= 1.0, (spec.id, name)
                assert ref["value"] - ref["lower"] < 1e-9, (spec.id, name)
            else:
                assert ref["method"] == "monte_carlo", (spec.id, name)


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


_DISTINCT = ConstantsConfig(
    c2=2.5, c3=0.7, c4=1.3, c5=3.1, c6=0.4, c7=1.9, c8=2.2, c_esseen=1.1, c_d=1.7,
    c_exp_m2=3.0,
)


def _rebuilt_tags(rep, a):
    """Every tag of ``rep`` rebuilt by the oracle forms from the report's own
    guards, parameters, references and constants, and the Gram matrix of ``a``."""
    gd, par, c = rep.guards, rep.parameters, rep.constants
    ref = {name: entry["value"] for name, entry in rep.references.items()}
    n, d, r, m, s = (par[k] for k in "ndrms")
    window = _or_inf(lambda: float((1 + math.floor(par["kappa"] / par["delta"])) ** d))
    lam = gd["lambda_tau_over_kappa"]
    want = {
        "transfer_plain": c.c_d * ref["q_h_p_kappa"],
        "transfer_window": (
            window if math.isinf(window) else c.c_d * window * ref["q_h_p_delta"]
        ),
        "transfer_refined": c.c_d * ref["q_h_lambda_kappa"] / lam if lam > 0 else math.inf,
    }
    if d == 1:
        def two_term(lead, cap, mass, inflate=None):
            def form():
                first = 1.0 if inflate is None else (inflate * r + 1.0) ** (1.5 * r * r)
                return O.oracle_two_term(lead ** (r + 1), first, cap, mass, r)
            return _or_inf(form)

        def unit(name):
            return min(gd[name], 1.0)

        p = gd["p_tau_over_kappa"]
        want.update(
            cp_cgap=two_term(c.c2, m, 0.5 * n * p * unit("beta_star_kappa")),
            cp_gap=two_term(c.c5, s, 0.5 * n * p * unit("gamma_star_kappa"), c.c6),
            ws_cgap_p=window * two_term(c.c3, m, n * min(p, 1.0) * unit("beta_star_delta")),
            ws_cgap_lambda=window * two_term(c.c4, m, n * unit("beta_star_delta")),
            ws_gap_lambda=window * two_term(c.c7, s, n * unit("gamma_star_delta"), c.c8),
        )
    if "lcd_d_lower" in gd:
        big_d = gd["lcd_d_lower"]
        assert par["D"] == big_d
        _, det = a.gram()

        def lcd(b, coeff=4.0):
            def form():
                first = (1.0 / (par["gamma"] * big_d * math.sqrt(b))) ** d / math.sqrt(det)
                return c.c_d * (first + math.exp(-coeff * b * par["alpha"] * par["alpha"]))
            return _or_inf(form) if big_d > 0 and b > 0 and det > 0 else math.inf

        lam_td = gd.get("lambda_tau_d", 0.0)
        want.update(
            lcd_cp=lcd(par["b"]),
            lcd_lambda=lcd(lam_td) / lam_td if lam_td > 0 else math.inf,
            lcd_p=lcd(gd.get("p_tau_d", 0.0)),
            lcd_m2=lcd(gd.get("m2_tau_d", 0.0), c.c_exp_m2),
        )
    return want


@pytest.mark.parametrize("constants", [ConstantsConfig(), _DISTINCT], ids=["default", "distinct"])
def test_every_tag_reads_its_own_constant_cap_and_mass(constants):
    cases = [
        (spec.x, spec.a, *spec.require("tau", "kappa", "delta"), *spec.caps, spec.lcd, spec.id)
        for spec in sorted(load_corpus(), key=lambda spec: spec.id)
    ]
    # the corpus sets m = s and has p = lambda = M at tau D: two more reports
    # tell the caps, the windows and the three lcd masses apart
    cases += [
        (UNIFORM3, _GENERIC, 0.5, 0.3, 0.1, 2, 3, 9, LcdParams(0.5, 2.0), "caps"),
        (UNIFORM3, _GENERIC, 1.0, 0.4, 0.1, 2, 3, 9, LcdParams(0.9, 0.5), "lcd-masses"),
    ]
    for x, a, tau, kappa, delta, r, m, s, lcd, name in cases:
        rep = build_bound_report(
            x, a, tau, kappa, delta, r, m, s, lcd=lcd, constants=constants,
            instance=name, seed=0, mc_samples=2000,
        )
        want = _rebuilt_tags(rep, a)
        assert set(rep.bounds) == set(want), name
        wrong = [
            tag for tag, v in rep.bounds.items()
            if np.float64(v).tobytes() != np.float64(want[tag]).tobytes()
        ]
        assert not wrong, (name, wrong)


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


def test_report_records_skipped_esseen_past_the_dual_radius_limit():
    # a 2-D delta window of 1e-160 puts the dual radius past 3e152: refused, not overflowed
    rep = build_bound_report(
        RAD, WeightVector([[1.0, 0.5], [0.5, 1.0]]), tau=1.0, kappa=1.0, delta=1e-160,
        mc_samples=2000,
    )
    ref = rep.references["q_h_p_delta"]
    assert ref["esseen_upper"] is None
    assert ref["esseen_skipped"] == (
        "tau: in dimension 2 the dual radius 1/tau must not exceed 3e+152, got 1e-160"
    )
    assert rep.references["q_h_p_kappa"]["esseen_upper"] > 0.0


def test_report_records_skipped_esseen_past_the_tau_limit():
    # a 3-D kappa window of 1e120 puts tau^3 past the float range: both kappa
    # references record the skip, and the report completes
    rep = build_bound_report(
        RAD, WeightVector(np.eye(3)), tau=1.0, kappa=1e120, delta=0.5, mc_samples=2000,
    )
    for name in ("q_h_p_kappa", "q_h_lambda_kappa"):
        ref = rep.references[name]
        assert ref["esseen_upper"] is None
        assert ref["esseen_skipped"] == "tau: in dimension 3 tau must not exceed 5.6e+102, got 1e+120"
    assert rep.references["q_h_p_delta"]["esseen_upper"] > 0.0
