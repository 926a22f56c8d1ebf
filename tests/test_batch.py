"""Property tests on random admissible systems with k, m <= 2: a batched run
is the same computation as its runs done one at a time, and the solvers,
with their reused buffers and their records taken one chunk of steps at a
time, compute what fresh-array reference loops do, bit for bit; and they stay within roundoff of the grouping their
arithmetic had before the step constants were built once per run."""

import numpy as np
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from hypctrl import simulator
from hypctrl.core import ControlSignal, CouplingField, GridSpec, StateField, build_system
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
    C = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    gamma = draw(st.sampled_from([0.0, 1.0]))
    # the constant matrix through build_system, or per-entry coupling of which
    # each entry is constant or varies in x
    if draw(st.booleans()):
        coupling = CouplingField(n, constant=np.array(C).reshape(n, n), gamma=gamma)
        return build_system(k, m, speeds, coupling=coupling, b=B)
    varies = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    coupling = CouplingField(
        n,
        entries={divmod(e, n): f"{c!r}*(1 + 0.5*x)" if v else c
                 for e, (c, v) in enumerate(zip(C, varies))},
        gamma=gamma,
    )
    return build_system(k, m, speeds, coupling=coupling, b=B)


def _entry_kinds(spec):
    """How solve_forward multiplies each coupling entry nonzero on a grid:
    "scalar" where it is constant there, "nodes" where it varies."""
    C = spec.coupling.evaluate(GridSpec(N=8).xs)
    return {"scalar" if (c == c[0]).all() else "nodes" for c in C.reshape(-1, 9) if c.any()}


def test_systems_draw_both_coupling_branches():
    """systems() draws coupling whose every entry is a scalar (as the
    constant-matrix form gives) and per-entry coupling that mixes entries
    constant and varying in x, so the bit-for-bit properties below meet both
    branches of the step."""
    quiet = settings(database=None, derandomize=True, max_examples=200,
                     phases=[Phase.generate])
    find(systems(), lambda s: _entry_kinds(s) == {"scalar"}, settings=quiet)
    find(systems(), lambda s: _entry_kinds(s) == {"scalar", "nodes"}, settings=quiet)


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
        for name in ("snapshots", "norms_l2", "norms_linf", "controls"):
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
    batch = solve_dual(spec, S, data, grid, snapshot_stride=1)
    energies = batch.observation_energy()
    for i in range(b):
        v0 = StateField(data[i], 0.0, grid.xs)
        single = solve_dual(spec, S, v0, grid, snapshot_stride=1)
        for name in ("snapshots", "observation"):
            assert np.array_equal(getattr(batch, name)[i], getattr(single, name)), name
        assert energies[i] == single.observation_energy()


# states per chunk buffer for every run below but the large batch: the
# chunk's byte budget holds more than 64 of their states
K = 64
STEPS = st.one_of(st.sampled_from([1, K - 1, K, K + 1, 2 * K, 2 * K + 1]),
                  st.integers(1, 2 * K + 2))
STRIDES = st.sampled_from([1, 3, 7, None, 10**9])


def _grid(spec, N, steps, cfl=0.9):
    """A grid on which both solvers take exactly ``steps`` steps (the dual over grid.T)."""
    return GridSpec(N=N, cfl=cfl, T=steps * GridSpec(N=N, cfl=cfl).dt_for(spec.lambda_max))


def _snapshot_steps(steps, stride):
    stride = steps if stride is None else stride  # the default keeps the two ends
    return sorted(set(range(0, steps + 1, stride)) | {steps})


def _l2_rows(states, h):
    sq = states * states
    return np.sqrt(h * (np.sum(sq, axis=-1) - 0.5 * (sq[..., 0] + sq[..., -1])))


def _bits(a):
    """Bit patterns, which tell -0.0 from 0.0 where np.array_equal does not."""
    return np.asarray(a, dtype=float).view(np.int64)


def _differences(w, k):
    """Upwind differences: backward for rows < k, forward for the rest, 0 where
    no difference reaches."""
    dw = np.zeros_like(w)
    dw[:, :k, 1:] = w[:, :k, 1:] - w[:, :k, :-1]
    dw[:, k:, :-1] = w[:, k:, 1:] - w[:, k:, :-1]
    return dw


def _reference_forward(spec, w0, control, grid, before=False):
    """States (b, n_steps+1, n, N+1) of the upwind scheme stepped with fresh
    arrays: the update with its reflection, then every entry below the
    smallest normal double set to zero, then the control column.  Speeds that
    depend on the state (a single run) are taken at the state before each
    sub-step: as the solver does, a step is split into 2^d sub-steps, for the
    least d that keeps every sub-step's CFL number within 1 + 1e-12.

    The update is w + coef*dw + sum of dt*C_ij*w_j with coef = lam*dt/h, over
    the entries C_ij nonzero on the grid, grouped as the solver groups it;
    ``before`` groups it as w + dt*(lam*(dw/h) + C w) instead."""
    k, h, xs = spec.k, grid.h, grid.xs
    n_steps = max(1, int(np.ceil(grid.T / grid.dt_for(spec.lambda_max) - 1e-12)))
    dt = grid.T / n_steps
    C = spec.coupling.evaluate(xs)

    def update(w, lam, dt):
        if before:
            rhs = lam * (_differences(w, k) / h)
            rhs += np.einsum("ijq,bjq->biq", C, w)
            w = w + dt * rhs
        else:
            inc = _differences(w, k) * (lam * (dt / h))
            for i, j in np.ndindex(C.shape[:2]):
                if C[i, j].any():
                    inc[:, i] = inc[:, i] + (dt * C[i, j]) * w[:, j]
            w = w + inc
        w[:, :k, 0] = np.matmul(spec.B, w[:, k:, 0, None])[..., 0]
        return w

    def split_step(w):
        for doubled in range(13):
            sub_dt, part = dt / 2**doubled, w
            for _ in range(2**doubled):
                lam = spec.signed_speeds(xs, part[0])
                if np.max(np.abs(lam)) * sub_dt / h > 1.0 + 1e-12:
                    break
                part = update(part, lam, sub_dt)
            else:
                return part
        raise AssertionError("no split restores the CFL condition")

    w = w0.copy()
    states = [w]
    for step in range(1, n_steps + 1):
        if spec.state_dependent:
            w = split_step(w)
        else:
            w = update(w, spec.signed_speeds(xs), dt)
        w[np.abs(w) < np.finfo(float).tiny] = 0.0
        w[:, k:, -1] = control(step * dt)
        states.append(w)
    return np.stack(states, axis=1)


def _check_forward(traj, spec, w0, control, grid, steps, stride, chunk):
    """Every record of ``traj`` equals the reference run's, bit for bit; returns
    the reference states."""
    states = _reference_forward(spec, w0, control, grid)
    snap = _snapshot_steps(steps, stride)
    expected = {
        "snapshots": states[:, snap],
        "snapshot_times": np.array(snap) * traj.dt,
        "norms_l2": _l2_rows(states, grid.h),
        "norms_linf": np.max(np.abs(states), axis=-1),
        "controls": states[:, :, spec.k:, -1],
    }
    assert traj.diagnostics["steps"] == steps and traj.diagnostics["chunk"] == chunk
    for name, value in expected.items():
        got = getattr(traj, name)
        if name != "snapshot_times" and got.ndim < value.ndim:
            got = got[None]
        assert np.array_equal(_bits(got), _bits(value)), name
    return states


@settings(max_examples=40, deadline=None)
@given(systems(), st.integers(8, 24), STEPS, STRIDES, SEEDS,
       st.sampled_from([1.0, 1e-300, 1e-306, 1e-308]))
def test_forward_matches_fresh_array_reference(spec, N, steps, stride, seed, scale):
    rng = np.random.default_rng(seed)
    grid = _grid(spec, N, steps)
    w0 = scale * rng.standard_normal((spec.n, N + 1))
    control = _random_controls(rng, (spec.m,), grid.T)
    control.values *= scale
    traj = solve_forward(spec, StateField(w0, 0.0, grid.xs), control.as_closure(), grid,
                         snapshot_stride=stride)
    _check_forward(traj, spec, w0[None], control, grid, steps, stride, K)


@settings(max_examples=8, deadline=None)
@given(systems(), st.integers(1, 5), STRIDES, SEEDS, st.sampled_from([1.0, 1e-306]))
def test_large_batch_one_state_per_chunk_matches_reference(spec, steps, stride, seed, scale):
    rng = np.random.default_rng(seed)
    N = 24
    # one batch state exceeds the chunk's byte budget
    b = simulator._CHUNK_BYTES // (spec.n * (N + 1) * 8) + 1
    grid = _grid(spec, N, steps)
    inits = scale * rng.standard_normal((b, spec.n, N + 1))
    controls = _random_controls(rng, (b, spec.m), grid.T)
    controls.values *= scale
    traj = solve_forward(spec, inits, controls.as_closure(), grid, snapshot_stride=stride)
    _check_forward(traj, spec, inits, controls, grid, steps, stride, 1)


def _signed_zeros(rng, shape):
    return np.where(rng.random(shape) < 0.5, 0.0, -0.0)


def _by_step(values, dt):
    """A closure (also callable with the time alone) that returns values[step]."""
    return lambda t, *_: values[round(t / dt)]


@st.composite
def transports(draw):
    """1x1 systems with one constant speed both ways: at CFL 1 a step moves each
    component one node, so a run comes back to zero once its waves have left,
    after it has written (and the solver reused) chunk slots."""
    v = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return build_system(1, 1, [v, v], b=[[draw(st.floats(-1.5, 1.5))]])


@settings(max_examples=40, deadline=None)
@given(st.one_of(systems(), transports()), st.integers(1, 3), st.integers(8, 24),
       st.integers(1, 4 * K), SEEDS, st.data())
def test_forward_from_zero_data_matches_reference_bit_for_bit(spec, b, N, steps, seed, data):
    """Zero data and +-0.0 controls up to a drawn step, random controls up to a
    second one, then +-0.0 again; systems() covers coupling on and off."""
    rng = np.random.default_rng(seed)
    grid = _grid(spec, N, steps, cfl=1.0)
    on = data.draw(st.integers(1, steps + 1), label="first step with random controls")
    off = data.draw(st.integers(on, steps + 1), label="first step with zero controls again")
    values = _signed_zeros(rng, (steps + 1, b, spec.m))
    values[on:off] = rng.standard_normal((off - on, b, spec.m))
    control = _by_step(values, grid.T / steps)
    w0 = _signed_zeros(rng, (b, spec.n, N + 1))
    traj = solve_forward(spec, w0, control, grid, snapshot_stride=1)
    _check_forward(traj, spec, w0, control, grid, steps, 1, K)


@st.composite
def quasilinear_systems(draw):
    """(spec, split): a system of systems() with k, m <= 2, its coupling and B,
    whose speeds are constant, vary in x, or read a state component; at least
    one reads the state, in either block.  The magnitudes v/4 (v = 2..8)
    stay 0.25 apart and x adds at most 0.1, so the ordering holds at w = 0.
    A state-dependent speed adds a*tanh(w_j)^2: a = 20 with ``split``, so a
    step on a state with |w_j| = 2 needs CFL halving, else a = 0.05, within
    the margin lambda_max/0.9 - lambda_max >= 0.055 of the grid, so no step
    is split while the speeds still change with the state."""
    base = draw(systems())
    k, n = base.k, base.n
    split = draw(st.booleans())
    a = 20.0 if split else 0.05
    neg = sorted(draw(st.lists(st.integers(2, 8), min_size=k, max_size=k, unique=True)))[::-1]
    pos = sorted(draw(st.lists(st.integers(2, 8), min_size=n - k, max_size=n - k,
                               unique=True)))
    kinds = draw(st.lists(st.sampled_from(["constant", "x", "state"]), min_size=n, max_size=n))
    kinds[draw(st.integers(0, n - 1))] = "state"
    speeds = []
    for v, kind in zip(neg + pos, kinds):
        if kind == "constant":
            speeds.append(v / 4)
        elif kind == "x":
            speeds.append(f"{v / 4} + 0.1*x")
        else:
            j = draw(st.integers(1, n))
            speeds.append(f"{v / 4} + 0.1*x + {a}*tanh(w{j})**2")
    return build_system(k, base.m, speeds, coupling=base.coupling, b=base.B), split


@settings(max_examples=30, deadline=None)
@given(quasilinear_systems(), st.integers(8, 24), st.integers(1, K + 2), STRIDES, SEEDS)
def test_state_dependent_forward_matches_reference_bit_for_bit(system, N, steps, stride, seed):
    """Only the speeds that read the state are evaluated on each sub-step,
    into a buffer held for the run, and a step that is not split writes its
    chunk slot directly: the records equal the fresh-array reference's, which
    evaluates every speed on every sub-step, bit for bit."""
    spec, split = system
    rng = np.random.default_rng(seed)
    grid = _grid(spec, N, steps)
    w0 = rng.standard_normal((spec.n, N + 1))
    w0 *= 2.0 / np.max(np.abs(w0), axis=1, keepdims=True)  # |w_j| = 2 somewhere
    control = _random_controls(rng, (spec.m,), grid.T)
    traj = solve_forward(spec, StateField(w0, 0.0, grid.xs), control.as_closure(), grid,
                         snapshot_stride=stride)
    _check_forward(traj, spec, w0[None], control, grid, steps, stride, K)
    assert (traj.diagnostics["max_substep_doublings"] > 0) == split


def test_state_dependent_run_from_zero_data_matches_reference():
    spec = build_system(1, 1, [1.0, "1 + w2**2"], b=[[0.5]])
    grid = _grid(spec, 16, 40)
    values = np.zeros((41, 1))
    values[20:] = 0.1 * np.random.default_rng(0).standard_normal((21, 1))
    control = _by_step(values, grid.T / 40)
    w0 = StateField(np.zeros((spec.n, 17)), 0.0, grid.xs)
    traj = solve_forward(spec, w0, control, grid, snapshot_stride=1)
    assert traj.diagnostics["max_substep_doublings"] == 0
    _check_forward(traj, spec, w0.values[None], control, grid, 40, 1, K)


def _transposed_differences(G, k):
    """D^T G for the upwind differences D of _differences."""
    out = np.zeros_like(G)
    out[:, :k, 1:] += G[:, :k, 1:]
    out[:, :k, :-1] -= G[:, :k, 1:]
    out[:, k:, 1:] += G[:, k:, :-1]
    out[:, k:, :-1] -= G[:, k:, :-1]
    return out


def _reference_dual(spec, S, v0, grid, before=False):
    """(states, observations) of the dual run stepped with fresh arrays: the
    states (b, n_steps+1, n, N+1) of v = z / W and the observations y / (dt
    lambda_+(1)), y = z_+(1), of the weighted state z = W v stepped by the
    transpose of the forward step w <- Z_1 R M w + E u: zero the control
    column (Z_1^T), add B^T z_-(0) into z_+(0) and zero z_-(0) (R^T), then M^T.

    M^T is z - (the flux differences of G = coef*z, with -G at z_-(1) and +G
    at z_+(0)) + dt*C_ij*z_i into row j, grouped as the solver groups it; a
    source matrix S (then without coupling) enters as one operator
    dt*S_{i,k+p}(x_q) on each run's flattened state, its product subtracted
    from G at z_+(0); ``before`` groups it as
    z + dt*(D^T(sig*z)/h + C^T z + the source einsum) instead."""
    k, h, xs = spec.k, grid.h, grid.xs
    n_steps = max(1, int(np.ceil(grid.T / grid.dt_for(spec.lambda_max) - 1e-12)))
    dt = grid.T / n_steps
    sig = spec.signed_speeds(xs)
    W = np.where(np.arange(xs.size) % grid.N == 0, h / 2, h)
    C = spec.coupling.evaluate(xs) if S is None else np.zeros((spec.n, spec.n, xs.size))
    vals = None if S is None else S.value_nodes(xs)
    if vals is not None:
        op = np.zeros((spec.n, xs.size, spec.m))
        for i, p in np.ndindex(spec.n, spec.m):
            op[i, :, p] = dt * vals[i, k + p]
        op = op.reshape(-1, spec.m)
    z = v0 * W
    states, observations = [v0], [z[:, k:, -1] / (dt * sig[k:, -1])]
    for _ in range(n_steps):
        z = z.copy()
        z[:, k:, -1] = 0.0
        z[:, k:, 0] = z[:, k:, 0] + np.matmul(spec.B.T, z[:, :k, 0, None])[..., 0]
        z[:, :k, 0] = 0.0
        if before:
            rhs = _transposed_differences(sig * z, k) / h
            rhs += np.einsum("ijq,biq->bjq", C, z)
            new = z + dt * rhs
            if vals is not None:
                new[:, k:, 0] += dt * np.einsum("ipq,biq->bp", vals[:, k:], z)
        else:
            G = sig * (dt / h) * z
            diff = np.empty_like(z)
            diff[:, :k, :-1] = G[:, :k, 1:] - G[:, :k, :-1]
            diff[:, :k, -1] = -G[:, :k, -1]
            diff[:, k:, 1:] = G[:, k:, 1:] - G[:, k:, :-1]
            diff[:, k:, 0] = G[:, k:, 0]
            if vals is not None:  # one product per run, as the solver makes it
                diff[:, k:, 0] = diff[:, k:, 0] - (z.reshape(z.shape[0], 1, -1) @ op)[:, 0]
            for i, j in np.ndindex(C.shape[:2]):
                if C[i, j].any():
                    diff[:, j] = diff[:, j] - (dt * C[i, j]) * z[:, i]
            new = z - diff
        z = new
        states.append(z / W)
        observations.append(z[:, k:, -1] / (dt * sig[k:, -1]))
    return np.stack(states, axis=1), np.stack(observations, axis=1)


@settings(max_examples=30, deadline=None)
@given(systems(), st.integers(1, 3), st.integers(8, 24), STEPS, STRIDES, SEEDS, st.booleans())
def test_dual_matches_fresh_array_reference(spec, b, N, steps, stride, seed, with_source):
    rng = np.random.default_rng(seed)
    grid = _grid(spec, N, steps)
    S = None
    if with_source:
        values = rng.standard_normal((spec.n, spec.n, N + 1))
        values[:, : spec.k] = 0.0
        S = _Source(values)
    data = rng.standard_normal((b, spec.n, N + 1))
    dual = solve_dual(spec, S, data, grid, snapshot_stride=stride)
    states, observations = _reference_dual(spec, S, data, grid)
    snap = _snapshot_steps(steps, stride)
    expected = {
        "snapshots": states[:, snap],
        "snapshot_times": np.array(snap) * dual.dt,
        "observation": observations,
    }
    assert dual.diagnostics == {"steps": steps, "dt": dual.dt}
    for name, value in expected.items():
        assert np.array_equal(_bits(getattr(dual, name)), _bits(value)), name


# largest relative gap allowed between the solvers and the pre-change grouping
# of their arithmetic (measured maximum over 4,000 drawn cases: see CHANGES.md)
PRE_CHANGE_BOUND = 1e-12


def _relative_gap(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@settings(max_examples=40, deadline=None)
@given(systems(), st.integers(1, 3), st.integers(8, 24), STEPS, SEEDS, st.booleans())
def test_solvers_stay_within_roundoff_of_pre_change_grouping(spec, b, N, steps, seed,
                                                             with_source):
    """The step constants built once per run only regroup the arithmetic of
    w + dt*(lam*(dw/h) + C w) and of the einsum source integral."""
    rng = np.random.default_rng(seed)
    grid = _grid(spec, N, steps)
    data = rng.standard_normal((b, spec.n, N + 1))
    controls = _random_controls(rng, (b, spec.m), grid.T)
    traj = solve_forward(spec, data, controls.as_closure(), grid, snapshot_stride=1)
    ref = _reference_forward(spec, data, controls, grid, before=True)
    assert _relative_gap(traj.snapshots, ref) <= PRE_CHANGE_BOUND
    S = None
    if with_source:
        values = rng.standard_normal((spec.n, spec.n, N + 1))
        values[:, : spec.k] = 0.0
        S = _Source(values)
    dual = solve_dual(spec, S, data, grid, snapshot_stride=1)
    ref, _ = _reference_dual(spec, S, data, grid, before=True)
    assert _relative_gap(dual.snapshots, ref) <= PRE_CHANGE_BOUND


@settings(max_examples=40, deadline=None)
@given(systems(), st.sampled_from([None, 1, 3]), st.integers(8, 24), STEPS, SEEDS)
def test_dual_pairs_with_forward_runs_to_roundoff(spec, b, N, steps, seed):
    """The dual steps the transpose of the forward step: for a forward run from
    w0 under controls u_j and a dual run from v0, each a single run (b None)
    or a batch, <w(T), v0>_W - <w0, v(-T)>_W = sum_j u_j . y_{n-j}, y the
    dual's observations times dt lambda_+(1), to roundoff, coupled or not."""
    rng = np.random.default_rng(seed)
    grid = _grid(spec, N, steps)
    shape = (spec.n, N + 1) if b is None else (b, spec.n, N + 1)
    w0, v0 = rng.standard_normal(shape), rng.standard_normal(shape)
    controls = _random_controls(rng, shape[:-2] + (spec.m,), grid.T)
    run = (lambda a: StateField(a, 0.0, grid.xs)) if b is None else (lambda a: a)
    forward = solve_forward(spec, run(w0), controls.as_closure(), grid)
    dual = solve_dual(spec, None, run(v0), grid)
    W = grid.weights
    y = dual.observation * (dual.dt * spec.signed_speeds(grid.xs)[spec.k:, -1])
    terms = [W * forward.snapshots[..., -1, :, :] * v0,
             -W * w0 * dual.snapshots[..., -1, :, :],
             -forward.controls[..., 1:, :] * y[..., -2::-1, :]]  # u_j y_{n-j}, j = 1..n
    gap = sum(np.sum(t, axis=(-2, -1)) for t in terms)
    scale = sum(np.sum(np.abs(t), axis=(-2, -1)) for t in terms)
    assert np.all(np.abs(gap) <= 1e-13 * scale), np.max(np.abs(gap) / scale)
