import numpy as np
import pytest

from hypctrl.core import DimensionMismatch, QuadratureNonConvergent, build_system
from hypctrl.times import (
    _adaptive_simpson,
    cumulative_travel,
    legacy_times,
    optimal_time,
    optimal_time_argmax,
    time_report,
    travel_times,
)


def _spec_with_speed(expr):
    return build_system(1, 1, [expr, 5.0], b=[[0.0]])


def test_constant_speed():
    spec = build_system(1, 1, [2.0, 3.0], b=[[0.0]])
    tau = travel_times(spec)
    assert tau[0] == pytest.approx(0.5, abs=1e-12)


def test_affine_speed_log():
    tau = travel_times(_spec_with_speed("1 + x"))
    assert tau[0] == pytest.approx(np.log(2.0), abs=1e-10)


def test_reciprocal_speed():
    tau = travel_times(_spec_with_speed("1 / (1 + x)"))
    assert tau[0] == pytest.approx(1.5, abs=1e-10)


def test_sampled_speed_trapezoid():
    xs = np.linspace(0.0, 1.0, 2001)
    spec = build_system(1, 1, [(xs, 1.0 + xs), 5.0], b=[[0.0]])
    tau = travel_times(spec)
    assert tau[0] == pytest.approx(np.log(2.0), abs=1e-6)


def _brute_force_topt(tau, k, m):
    if m >= k:
        terms = [tau[i - 1] + tau[m + i - 1] for i in range(1, k + 1)] + [tau[k]]
    else:
        terms = [tau[k - m + j - 1] + tau[k + j - 1] for j in range(1, m + 1)]
    return max(terms)


def test_optimal_time_examples():
    assert optimal_time(np.array([1.0, 1.0]), 1, 1) == pytest.approx(2.0)
    assert optimal_time(np.array([1.0, 0.6, 0.4]), 1, 2) == pytest.approx(1.4)
    assert optimal_time(np.array([1.0, 0.5, 0.8]), 2, 1) == pytest.approx(1.3)


def test_legacy_examples():
    assert legacy_times(np.array([1.0, 0.6, 0.4]), 1, 2) == pytest.approx((2.0, 1.6))
    assert legacy_times(np.array([1.0, 1.0]), 1, 1) == pytest.approx((2.0, 2.0))
    assert legacy_times(np.array([1.0, 0.5, 0.8]), 2, 1) == pytest.approx((1.3, 1.3))


def _ordered_tau(rng, k, m):
    # consistent with the speed ordering: increasing on the negative block,
    # decreasing on the positive block
    neg = np.sort(rng.uniform(0.1, 3.0, size=k))
    pos = np.sort(rng.uniform(0.1, 3.0, size=m))[::-1]
    return np.concatenate([neg, pos])


def test_topt_matches_brute_force_and_bounds():
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        tau = _ordered_tau(rng, k, m)
        topt = optimal_time(tau, k, m)
        assert topt == _brute_force_topt(tau, k, m)
        t1, t2 = legacy_times(tau, k, m)
        assert topt <= t1 + 1e-12
        assert t2 <= t1 + 1e-12


def test_m_equal_one_reduces_to_t2():
    rng = np.random.default_rng(11)
    for k in (1, 2, 3):
        tau = _ordered_tau(rng, k, 1)
        _, t2 = legacy_times(tau, k, 1)
        assert optimal_time(tau, k, 1) == pytest.approx(t2)


def test_argmax_reported():
    value, kind, index = optimal_time_argmax(np.array([1.0, 0.6, 0.4]), 1, 2)
    assert (value, kind, index) == (pytest.approx(1.4), "pair", 1)
    value, kind, index = optimal_time_argmax(np.array([0.2, 5.0, 0.1]), 1, 2)
    assert (kind, index) == ("single", 2)


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        optimal_time(np.array([1.0, 1.0]), 2, 1)
    with pytest.raises(DimensionMismatch):
        legacy_times(np.array([1.0]), 1, 1)


def test_subdivision_order_invariance():
    f = lambda x: 1.0 / (1.0 + x)
    tol = 1e-10
    left_first = _adaptive_simpson(f, 0.0, 1.0, tol)
    right_first = _adaptive_simpson(f, 0.0, 1.0, tol, reverse=True)
    assert abs(left_first - right_first) <= tol


def test_quadrature_failure_reported():
    def singular(x):
        return x ** -0.5 if x > 0 else float("inf")

    with pytest.raises(QuadratureNonConvergent):
        _adaptive_simpson(singular, 0.0, 1.0, 1e-12)


def test_time_report_fields():
    spec = build_system(1, 1, ["1 + x", 2.0], b=[[0.5]])
    rep = time_report(spec)
    assert rep.Topt == pytest.approx(np.log(2.0) + 0.5, abs=1e-9)
    d = rep.as_dict()
    assert d["tau_1"] == pytest.approx(np.log(2.0), abs=1e-9)
    assert d["T_opt"] == pytest.approx(d["T1"])


def test_cumulative_travel_monotone():
    spec = build_system(1, 1, ["1 + x", 2.0], b=[[0.0]])
    xs, ts = cumulative_travel(spec, 0)
    assert ts[0] == 0.0
    assert np.all(np.diff(ts) > 0)
    assert ts[-1] == pytest.approx(np.log(2.0), abs=1e-7)
