"""Property tests on random admissible systems with k, m <= 2: a batched run
is the same computation as its runs done one at a time, and the forward
solver's reused buffers compute what a fresh-array reference loop does."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hypctrl.core import ControlSignal, GridSpec, StateField, build_system
from hypctrl.simulator import solve_dual, solve_forward

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def systems(draw):
    k, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n = k + m
    # magnitudes: the negative block decreases, the positive block increases;
    # a common factor (1 + slope*x) keeps both orderings on [0, 1]
    neg = sorted(draw(st.lists(st.integers(2, 8), min_size=k, max_size=k, unique=True)))[::-1]
    pos = sorted(draw(st.lists(st.integers(2, 8), min_size=m, max_size=m, unique=True)))
    slope = draw(st.sampled_from([0.0, 0.25, 0.5]))
    speeds = [f"{v / 4} * (1 + {slope}*x)" for v in neg + pos]
    entries = st.floats(-1.5, 1.5, allow_nan=False)
    B = np.array(draw(st.lists(entries, min_size=k * m, max_size=k * m))).reshape(k, m)
    C = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    return build_system(k, m, speeds, coupling=C, b=B, gamma=draw(st.sampled_from([0.0, 1.0])))


class _Source:
    """Stands in for a SourceMatrix: fixed node values with zero first k columns."""

    def __init__(self, values):
        self.values = values

    def value_nodes(self, xs):
        return self.values


def _random_controls(rng, shape, T):
    return ControlSignal(times=np.linspace(0.0, T, 5), values=rng.standard_normal(shape + (5,)))


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.floats(-0.5, 1.5))
def test_control_signal_rows_match_np_interp(seed, t):
    sig = _random_controls(np.random.default_rng(seed), (3, 2), 1.0)
    expected = [[np.interp(t, sig.times, row) for row in member] for member in sig.values]
    assert np.array_equal(sig(t), expected)


@settings(max_examples=30, deadline=None)
@given(systems(), st.integers(2, 4), st.integers(8, 24), st.floats(0.1, 1.0), SEEDS)
def test_batched_forward_equals_single_runs(spec, b, N, T, seed):
    rng = np.random.default_rng(seed)
    grid = GridSpec(N=N, cfl=0.9, T=T)
    inits = rng.standard_normal((b, spec.n, N + 1))
    controls = _random_controls(rng, (b, spec.m), T)
    batch = solve_forward(spec, inits, controls.as_closure(), grid, snapshot_stride=1)
    for i in range(b):
        one = ControlSignal(controls.times, controls.values[i])
        w0 = StateField(inits[i], 0.0, grid.xs)
        single = solve_forward(spec, w0, one.as_closure(), grid, snapshot_stride=1)
        for name in ("snapshots", "boundary_left", "boundary_right", "norms_l2",
                     "norms_linf", "controls"):
            assert np.array_equal(getattr(batch, name)[i], getattr(single, name)), name


@settings(max_examples=30, deadline=None)
@given(systems(), st.integers(2, 4), st.integers(8, 24), st.floats(0.1, 1.0), SEEDS,
       st.booleans())
def test_batched_dual_equals_single_runs(spec, b, N, T, seed, with_source):
    rng = np.random.default_rng(seed)
    grid = GridSpec(N=N, cfl=0.9, T=T)
    S = None
    if with_source:
        values = rng.standard_normal((spec.n, spec.n, N + 1))
        values[:, : spec.k] = 0.0
        S = _Source(values)
    data = rng.standard_normal((b, spec.n, N + 1))
    batch = solve_dual(spec, S, spec.B, data, T, grid, snapshot_stride=1)
    energies = batch.observation_energy()
    for i in range(b):
        v0 = StateField(data[i], 0.0, grid.xs)
        single = solve_dual(spec, S, spec.B, v0, T, grid, snapshot_stride=1)
        for name in ("snapshots", "observation", "norms_l2"):
            assert np.array_equal(getattr(batch, name)[i], getattr(single, name)), name
        assert energies[i] == single.observation_energy()


def _reference_forward(spec, w0, control, grid):
    """States of the upwind scheme stepped with fresh arrays: the update with its
    reflection, then every entry below the smallest normal double set to zero,
    then the control column."""
    k, h = spec.k, grid.h
    n_steps = max(1, int(np.ceil(grid.T / grid.dt_for(spec.lambda_max) - 1e-12)))
    dt = grid.T / n_steps
    lam = spec.signed_speeds(grid.xs)
    w = w0[None].copy()
    states = [w]
    for step in range(1, n_steps + 1):
        dx = np.zeros_like(w)
        dx[:, :k, 1:] = (w[:, :k, 1:] - w[:, :k, :-1]) / h
        dx[:, k:, :-1] = (w[:, k:, 1:] - w[:, k:, :-1]) / h
        rhs = lam * dx
        if not spec.coupling.is_zero:
            rhs += np.einsum("ijq,bjq->biq", spec.coupling_nodes(grid.xs), w)
        w = w + dt * rhs
        w[:, :k, 0] = spec.reflection.apply(w[:, k:, 0])
        w[np.abs(w) < np.finfo(float).tiny] = 0.0
        w[:, k:, -1] = control(step * dt)
        states.append(w)
    return np.concatenate(states)


@settings(max_examples=40, deadline=None)
@given(systems(), st.integers(8, 24), st.floats(0.1, 1.0), SEEDS,
       st.sampled_from([1.0, 1e-300, 1e-306, 1e-308]))
def test_forward_matches_fresh_array_reference(spec, N, T, seed, scale):
    rng = np.random.default_rng(seed)
    grid = GridSpec(N=N, cfl=0.9, T=T)
    w0 = scale * rng.standard_normal((spec.n, N + 1))
    control = _random_controls(rng, (spec.m,), T)
    control.values *= scale
    traj = solve_forward(spec, StateField(w0, 0.0, grid.xs), control.as_closure(), grid,
                         snapshot_stride=1)
    states = _reference_forward(spec, w0, control, grid)
    sq = states * states
    expected = {
        "snapshots": states,
        "boundary_left": states[:, :, 0],
        "boundary_right": states[:, :, -1],
        "norms_l2": np.sqrt(grid.h * (np.sum(sq, axis=-1) - 0.5 * (sq[..., 0] + sq[..., -1]))),
        "norms_linf": np.max(np.abs(states), axis=-1),
        "controls": states[:, spec.k:, -1],
    }
    for name, value in expected.items():
        assert np.array_equal(getattr(traj, name), value), name
