import math
import time

import numpy as np
import pytest

import _oracles as O
from anticonc.concentration import WeightVector
from anticonc.errors import DomainError
from anticonc.lcd import (
    LcdParams,
    compute_lcd,
    violation_condition,
)


def test_params_validation():
    with pytest.raises(DomainError):
        LcdParams(gamma=0.0, alpha=1.0)
    with pytest.raises(DomainError):
        LcdParams(gamma=1.0, alpha=1.0)
    with pytest.raises(DomainError):
        LcdParams(gamma=0.5, alpha=0.0)
    with pytest.raises(DomainError):
        LcdParams(gamma=0.5, alpha=1.0, theta_max=-1.0)


def test_gram_matrix_matches_outer_sum():
    rows = np.array([[1.0, 2.0], [0.0, 3.0]])
    mat, det = WeightVector(rows).gram()
    np.testing.assert_allclose(mat, rows.T @ rows)
    assert abs(det - np.linalg.det(rows.T @ rows)) < 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_violation_condition_past_the_float_range():
    # t = 4e10 puts the phase 1e300 * t past the float range, where it counts as
    # an integer, and 0.25 * t on one: the lattice distance is 0, the bar alpha
    a = WeightVector([[1e300], [0.25]])
    assert violation_condition(np.array([4e10]), a, LcdParams(gamma=0.5, alpha=1.0))
    # the phases 1e154 are finite but the sum of their squares is not: the scaled
    # norm puts the bar at gamma * 1.4e154 = 1.4e-6, below the lattice distance 0.5
    # of the phase 0.5 (an infinite norm put it at alpha = 1, a violation)
    a = WeightVector([[1e154], [1e154], [0.5]])
    assert not violation_condition(np.array([1.0]), a, LcdParams(gamma=1e-160, alpha=1.0))


@pytest.mark.parametrize(
    "n,gamma,alpha",
    [(4, 0.3, 10.0), (9, 0.5, 10.0), (16, 0.9, 0.02), (9, 0.9, 0.02)],
)
def test_equal_weights_closed_form(n, gamma, alpha):
    closed = O.oracle_lcd_ones(n, gamma, alpha)
    res = compute_lcd(WeightVector(np.ones((n, 1))), LcdParams(gamma, alpha))
    assert res.certified and res.converged
    assert res.d_lower - 1e-6 <= closed <= res.d_upper + 1e-6
    assert res.d_upper - res.d_lower <= 1e-5


def test_witness_actually_violates():
    a = WeightVector(np.arange(1.0, 9.0)[:, None])
    params = LcdParams(0.5, 10.0)
    res = compute_lcd(a, params)
    assert res.witness_t is not None
    assert violation_condition(res.witness_t, a, params)
    # nothing violates strictly below the certified floor
    for t in np.linspace(1e-4, res.d_lower * 0.999, 200):
        assert not violation_condition(np.array([t]), a, params)


def test_scaling_inverse_law():
    # substituting a -> s*a rescales every violating radius by 1/s
    params = LcdParams(0.4, 5.0)
    base = compute_lcd(WeightVector(np.ones((4, 1))), params)
    scaled = compute_lcd(WeightVector(2.0 * np.ones((4, 1))), params)
    assert abs(scaled.d_lower - base.d_lower / 2.0) < 1e-5


def test_theta_ceiling_reported():
    # alpha so large and gamma tiny that no violation exists below the ceiling
    a = WeightVector(np.array([[1.0], [math.sqrt(2.0)]]))
    res = compute_lcd(a, LcdParams(1e-4, 1e-6, theta_max=0.5))
    assert res.ceiling_hit
    assert res.d_lower >= 0.5 - 1e-9
    assert math.isinf(res.d_upper)


def test_dim_two_certified():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    params = LcdParams(0.5, 10.0)
    res = compute_lcd(WeightVector(rows), params)
    assert res.certified
    assert res.d_lower <= res.d_upper
    if res.witness_t is not None:
        assert violation_condition(res.witness_t, WeightVector(rows), params)


def test_high_dim_returns_no_bracket():
    # above dimension three no search runs: the bracket is the trivial [0, inf)
    for rows in (np.eye(4), np.ones((6, 5))):
        res = compute_lcd(WeightVector(rows), LcdParams(0.5, 10.0))
        assert res.d_lower == 0.0 and math.isinf(res.d_upper)
        assert res.witness_t is None
        assert not res.certified and not res.converged
        assert res.ceiling_hit and res.iterations == 0


def test_tiny_weight_bracket_closes_relative_to_its_scale():
    # the LCD of [1e-12] is (2/3) 1e12, where the absolute 1e-6 is below one
    # ulp: the search ran to its node cap (about 80 s)
    a, params = WeightVector([1e-12]), LcdParams(0.5, 10.0)
    start = time.perf_counter()
    res = compute_lcd(a, params)
    assert time.perf_counter() - start < 1.0
    assert res.converged and res.certified and not res.ceiling_hit
    assert res.d_lower <= 2e12 / 3 <= res.d_upper
    assert res.d_upper - res.d_lower <= 2.0**-40 * res.d_lower
    assert violation_condition(res.witness_t, a, params)


def test_violation_condition_refuses_a_nan_point():
    # every comparison with NaN is false: it said "no violation"
    with pytest.raises(DomainError, match="^expected finite numbers, got nan$"):
        violation_condition([math.nan], WeightVector([1.0]), LcdParams(0.5, 10.0))


def test_result_json_obj():
    res = compute_lcd(WeightVector(np.ones((4, 1))), LcdParams(0.5, 10.0))
    obj = res.to_json_obj()
    assert set(obj) >= {"d_lower", "d_upper", "certified", "converged"}
