import numpy as np
import pytest

from hypctrl.core import DimensionMismatch, ValidationError, build_system
from hypctrl.times import (
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


def test_constant_speeds_exact():
    # the Simpson sum in the order (f0 + 4 odd + 2 even + fN) h / 3 is exact here
    spec = build_system(1, 1, [1.0, 2.0], b=[[0.0]])
    assert list(travel_times(spec)) == [1.0, 0.5]


def test_sampled_speed_is_piecewise_linear():
    # samples (0, 1), (0.5, 2), (1, 1.5): the profile the solvers and the tables
    # use; a trapezoid rule on the three samples gives 2/3
    spec = build_system(1, 1, [([0.0, 0.5, 1.0], [1.0, 2.0, 1.5]), 5.0], b=[[0.0]])
    exact = 0.5 * np.log(2.0) + np.log(4.0 / 3.0)
    assert travel_times(spec)[0] == pytest.approx(exact, abs=1e-13)
    assert cumulative_travel(spec, 0)[1][-1] == pytest.approx(exact, abs=1e-7)


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


def test_vanishing_speed_refused():
    # 1/lambda_1 is inf at the node x = 2050/4096, which the validation grid misses;
    # the kernel tables held that inf until the shared sampler refused it
    spec = _spec_with_speed("abs(x - 0.50048828125)")
    for primitive in (travel_times, lambda s: cumulative_travel(s, 0)):
        with pytest.raises(ValidationError, match="lambda_1 .* x = 0.50048828125"):
            primitive(spec)


def test_time_report_fields():
    spec = build_system(1, 1, ["1 + x", 2.0], b=[[0.5]])
    d = time_report(spec)
    assert list(d) == ["k", "m", "tau_1", "tau_2", "T1", "T2", "T_opt", "argmax_kind",
                       "argmax_index"]
    assert d["T_opt"] == pytest.approx(np.log(2.0) + 0.5, abs=1e-9)
    assert d["tau_1"] == pytest.approx(np.log(2.0), abs=1e-9)
    assert d["T_opt"] == pytest.approx(d["T1"])


def test_cumulative_travel_monotone():
    spec = build_system(1, 1, ["1 + x", 2.0], b=[[0.0]])
    xs, ts = cumulative_travel(spec, 0)
    assert ts[0] == 0.0
    assert np.all(np.diff(ts) > 0)
    assert ts[-1] == pytest.approx(np.log(2.0), abs=1e-7)
