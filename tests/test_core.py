import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypctrl
from hypctrl.core import (
    ControlSignal,
    CouplingField,
    DimensionMismatch,
    GridSpec,
    NonFiniteEntry,
    OrderingViolated,
    StateField,
    ValidationError,
    build_system,
)


def test_validate_constant_system():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    assert spec.lambda_max == 1.0
    assert spec.k == spec.m == 1


def test_validate_sign_change_rejected():
    with pytest.raises(OrderingViolated):
        build_system(1, 1, ["1", "1 - 2*x"], b=[[0.5]])


def test_validate_constant_coupling_bound():
    spec = build_system(2, 1, [2.0, 1.0, 3.0], coupling=np.ones((3, 3)), b=[[0.1], [0.2]])
    assert spec.coupling_bound == pytest.approx(1.0)


def test_ordering_within_blocks_enforced():
    # negative block must be strictly decreasing in index
    with pytest.raises(OrderingViolated):
        build_system(2, 1, [1.0, 2.0, 3.0], b=[[0.0], [0.0]])
    # positive block strictly increasing
    with pytest.raises(OrderingViolated):
        build_system(1, 2, [1.0, 3.0, 2.0], b=[[0.0, 0.0]])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="reflection matrix must be 1x1"):
        build_system(1, 1, [1.0, 2.0], b=np.zeros((2, 1)))
    with pytest.raises(DimensionMismatch, match="coupling field must be 2x2"):
        build_system(1, 1, [1.0, 2.0], coupling=CouplingField(3), b=[[0.0]])


@pytest.mark.parametrize("k, m, b, expected", [
    (2, 3, None, np.zeros((2, 3))),
    (1, 1, 0.5, [[0.5]]),
    (1, 2, [1, 2], [[1.0, 2.0]]),
])
def test_reflection_matrix_coerced_to_float_k_by_m(k, m, b, expected):
    """b = None is the zero k x m matrix; a scalar and a 1-D row are made 2-D."""
    speeds = [float(i) for i in range(k, 0, -1)] + [float(p) for p in range(1, m + 1)]
    spec = build_system(k, m, speeds, b=b)
    assert spec.B.dtype == np.float64
    assert spec.B.shape == (k, m)
    assert np.array_equal(spec.B, expected)


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteEntry):
        build_system(1, 1, [1.0, 2.0], b=[[np.nan]])


def test_sampled_speed_interpolation():
    xs = np.array([0.0, 0.5, 1.0])
    vals = np.array([1.0, 2.0, 1.5])
    spec = build_system(1, 1, [3.0, (xs, vals)], b=[[0.0]])
    # midpoint of two samples is the linear interpolant
    assert spec.signed_speeds([0.25])[1, 0] == pytest.approx(1.5)
    # sample points reproduce samples exactly
    assert np.array_equal(spec.signed_speeds(xs)[1], vals)


def test_validation_idempotent():
    coupling = CouplingField(2, constant=[[0.0, 0.2], [0.1, 0.0]])
    s1 = build_system(1, 1, ["1 + x", 2.0], coupling, b=[[0.5]])
    s2 = build_system(s1.k, s1.m, s1.speeds, s1.coupling, s1.B)
    assert s1.lambda_max == s2.lambda_max
    assert s1.coupling_bound == s2.coupling_bound


def test_sign_pattern_property():
    rng = np.random.default_rng(42)
    xs = np.linspace(0.0, 1.0, 33)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        base = np.sort(rng.uniform(0.5, 3.0, size=k + m))
        # negative block decreasing, positive block increasing
        speeds = list(base[:k][::-1]) + list(base[k:])
        spec = build_system(k, m, speeds, b=rng.standard_normal((k, m)))
        s = spec.signed_speeds(xs)
        assert np.all(s[:k] < 0)
        assert np.all(s[k:] > 0)


def test_grid_and_state_validation():
    with pytest.raises(ValidationError):
        GridSpec(N=4)
    with pytest.raises(ValidationError):
        GridSpec(N=100, cfl=1.5)
    grid = GridSpec(N=100, cfl=0.5, T=2.0)
    assert grid.dt_for(2.0) == pytest.approx(0.5 * 0.01 / 2.0)
    with pytest.raises(NonFiniteEntry):
        StateField(np.full((2, 101), np.nan), 0.0, grid.xs)


def test_control_signal():
    with pytest.raises(ValidationError):
        ControlSignal(times=[0.0, 0.0, 1.0], values=np.zeros((1, 3)))
    sig = ControlSignal(times=[0.0, 1.0, 2.0], values=[[0.0, 2.0, 0.0]])
    assert sig(0.5) == pytest.approx([1.0])
    assert sig(2.0) == pytest.approx([0.0])


def test_coupling_piecewise_constant_samples():
    xs = np.array([0.0, 0.5, 1.0])
    mats = np.array([np.eye(2) * 1.0, np.eye(2) * 2.0, np.eye(2) * 3.0])
    cf = CouplingField(2, samples=(xs, mats))
    out = cf.evaluate(np.array([0.1, 0.6, 1.0]))
    assert out[0, 0, 0] == 1.0  # left sample rules the cell
    assert out[0, 0, 1] == 2.0
    assert out[0, 0, 2] == 3.0


_C = np.array([[0.0, 1.5, -2.0], [0.25, 0.0, 3.0], [1.0, -0.5, 0.0]])
_SAMPLE_XS = np.linspace(0.0, 1.0, 7)
_SAMPLE_MATS = np.arange(63.0).reshape(7, 3, 3) / 7


def _expression_coupling(x):
    out = np.zeros((3, 3, x.size))
    out[0, 1] = np.sin(3 * x) + 1
    out[1, 0] = 0.25
    out[2, 1] = x**2 - 0.5
    return 1.3 * out


def _sampled_coupling(x):
    # the sample to the left of each x rules its cell; the first one left of 0
    left = [max([s for s, xs in enumerate(_SAMPLE_XS) if xs <= xq], default=0) for xq in x]
    return -0.3 * np.moveaxis(_SAMPLE_MATS[left], 0, 2)


@pytest.mark.parametrize("coupling, expected", [
    (CouplingField(3, constant=_C, gamma=0.7),
     lambda x: np.repeat(0.7 * _C[:, :, None], x.size, axis=2)),
    (CouplingField(3, entries={(0, 1): "sin(3*x) + 1", (1, 0): 0.25, (2, 1): "x**2 - 0.5"},
                   gamma=1.3), _expression_coupling),
    (CouplingField(3, samples=(_SAMPLE_XS, _SAMPLE_MATS), gamma=-0.3), _sampled_coupling),
], ids=["constant", "expression", "sampled"])
def test_coupling_column_matches_evaluate(coupling, expected):
    x = np.concatenate([np.linspace(-0.1, 1.1, 41), [1 / 3, 0.5]])
    full = expected(x)
    assert np.array_equal(coupling.evaluate(x), full)
    for j in range(3):
        assert np.array_equal(coupling.column(x, j), full[:, j])


def test_coupling_entry_is_zero_read_from_representation():
    # exact: only absent entries and 0.0 count, never an expression that is zero
    mats = np.zeros((3, 2, 2))
    mats[1, 0, 1] = 0.5
    cases = [
        (CouplingField(2, constant=[[0.0, 0.3], [0.0, 0.0]]), False),
        (CouplingField(2, entries={(0, 1): "0*x", (1, 0): 0.0}), False),
        (CouplingField(2, samples=(np.linspace(0.0, 1.0, 3), mats)), False),
        (CouplingField(2, constant=[[0.0, 0.3], [0.2, 0.0]], gamma=0.0), True),
    ]
    for coupling, zero in cases:
        # only entry (0, 1) can be nonzero in these cases
        assert [coupling.entry_is_zero(i, j) for i in range(2) for j in range(2)] == [
            True, zero, True, True]


def test_public_functions_take_b_from_the_system_and_t_from_the_grid():
    # a second copy of B or of the horizon could disagree with the first
    for name in hypctrl.__all__:
        obj = getattr(hypctrl, name)
        if not inspect.isfunction(obj):
            continue
        params = inspect.signature(obj).parameters
        assert not ("spec" in params and "B" in params), name
        assert not ("grid" in params and "T" in params), name
