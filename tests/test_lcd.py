import math

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


def test_result_json_obj():
    res = compute_lcd(WeightVector(np.ones((4, 1))), LcdParams(0.5, 10.0))
    obj = res.to_json_obj()
    assert set(obj) >= {"d_lower", "d_upper", "certified", "converged"}
