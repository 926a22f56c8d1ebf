import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypctrl.core import (
    ControlSignal,
    CouplingField,
    DimensionMismatch,
    GridSpec,
    OutOfDomain,
    SingularBoundarySpeed,
    StateField,
    ValidationError,
    build_system,
    state_from_exprs,
)
from hypctrl.simulator import (
    FlowLeftDomain,
    characteristic_flow,
    solve_dual,
    solve_forward,
    zero_control,
)


def _bump(xs, c, w):
    u = (xs - c) / w
    return np.where(np.abs(u) < 1.0, np.cos(np.pi * u / 2.0) ** 2, 0.0)


def test_leftward_shift_solution():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.0]])
    grid = GridSpec(N=2000, cfl=0.9, T=0.5)
    g = lambda x: np.exp(-(((x - 0.5) / 0.1) ** 2))
    w0 = StateField(np.vstack([np.zeros(grid.N + 1), g(grid.xs)]), 0.0, grid.xs)
    traj = solve_forward(spec, w0, zero_control(1), grid)
    term = traj.terminal_state()
    exact = np.where(grid.xs + 0.5 <= 1.0, g(grid.xs + 0.5), 0.0)
    assert np.max(np.abs(term.values[1] - exact)) < 0.02 * np.max(np.abs(g(grid.xs)))
    assert term.t == pytest.approx(0.5)


def test_state_shape_message_names_what_is_taken():
    # a plain (n, N+1) array is neither a StateField nor a (b, n, N+1) batch
    spec = build_system(1, 2, [1.0, 1.0, 2.0], b=[[1, 2]])
    grid = GridSpec(N=100, cfl=0.9, T=0.1)
    taken = r"StateField of shape \(3, 101\) or a batch array of shape \(b, 3, 101\)"
    with pytest.raises(DimensionMismatch, match=taken + r", got an array of shape \(3, 101\)"):
        solve_forward(spec, np.zeros((3, 101)), zero_control(2), grid)
    with pytest.raises(DimensionMismatch, match=taken + r", got an array of shape \(3, 101\)"):
        solve_dual(spec, None, np.zeros((3, 101)), grid)
    wrong = StateField(np.zeros((3, 51)), 0.0, np.linspace(0.0, 1.0, 51))
    with pytest.raises(DimensionMismatch, match=r"got a StateField of shape \(3, 51\)"):
        solve_forward(spec, wrong, zero_control(2), grid)


@pytest.mark.parametrize("stride", [0, -1])
def test_snapshot_stride_below_one_refused(stride):
    spec = build_system(1, 1, [1.0, 2.0], b=[[0.5]])
    grid = GridSpec(N=16, cfl=0.9, T=0.2)
    w0 = StateField(np.zeros((2, 17)), 0.0, grid.xs)
    for solve in (lambda: solve_forward(spec, w0, zero_control(1), grid, stride),
                  lambda: solve_dual(spec, None, w0, grid, stride)):
        with pytest.raises(ValidationError) as info:
            solve()
        assert type(info.value) is ValidationError
        assert str(info.value) == "snapshot stride must be >= 1"


def test_zero_data_stays_exactly_zero():
    spec = build_system(1, 1, [1.0, 2.0], coupling=[[0.0, 1.0], [1.0, 0.0]], b=[[0.7]])
    grid = GridSpec(N=64, cfl=0.9, T=1.0)
    w0 = StateField(np.zeros((2, 65)), 0.0, grid.xs)
    traj = solve_forward(spec, w0, zero_control(1), grid, snapshot_stride=1)
    assert np.all(traj.snapshots == 0.0)


def test_first_snapshot_is_initial_datum():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.3]])
    grid = GridSpec(N=64, cfl=0.8, T=0.3)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((2, 65))
    w0 = StateField(vals.copy(), 0.0, grid.xs)
    traj = solve_forward(spec, w0, zero_control(1), grid, snapshot_stride=1)
    assert np.array_equal(traj.snapshots[0], vals)
    assert np.allclose(np.diff(traj.times), traj.dt)


def test_self_convergence_order():
    errs = []
    terminal = {}
    for N in (500, 1000, 2000):
        spec = build_system(1, 1, [1.0, 1.0], coupling=[[0.0, 1.0], [1.0, 0.0]], b=[[1.0]])
        grid = GridSpec(N=N, cfl=0.9, T=0.5)
        w0 = StateField(
            np.vstack([_bump(grid.xs, 0.5, 0.2), _bump(grid.xs, 0.5, 0.25)]), 0.0, grid.xs
        )
        traj = solve_forward(spec, w0, zero_control(1), grid)
        terminal[N] = traj.terminal_state().values
    for N in (500, 1000):
        coarse = terminal[N]
        fine = terminal[2 * N][:, ::2]
        errs.append(np.max(np.abs(coarse - fine)))
    order = np.log2(errs[0] / errs[1])
    assert order >= 0.9


def test_linearity_superposition():
    spec = build_system(1, 1, [1.0, 1.5], coupling=[[0.0, 0.5], [0.5, 0.0]], b=[[0.4]])
    grid = GridSpec(N=128, cfl=0.9, T=0.8)
    rng = np.random.default_rng(2)
    wa = StateField(rng.standard_normal((2, 129)), 0.0, grid.xs)
    wb = StateField(rng.standard_normal((2, 129)), 0.0, grid.xs)
    siga = ControlSignal(times=[0.0, 0.4, 0.8], values=[[0.0, 1.0, -1.0]])
    sigb = ControlSignal(times=[0.0, 0.4, 0.8], values=[[1.0, 0.0, 2.0]])
    a, b = 2.0, -3.0
    combo = StateField(a * wa.values + b * wb.values, 0.0, grid.xs)

    def combo_ctrl(t, state):
        return a * siga(t) + b * sigb(t)

    ta = solve_forward(spec, wa, siga.as_closure(), grid)
    tb = solve_forward(spec, wb, sigb.as_closure(), grid)
    tc = solve_forward(spec, combo, combo_ctrl, grid)
    lhs = tc.terminal_state().values
    rhs = a * ta.terminal_state().values + b * tb.terminal_state().values
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_finite_propagation_support():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.0]])
    grid = GridSpec(N=200, cfl=0.8, T=0.25)
    a_supp, b_supp = 0.4, 0.6
    vals = np.vstack([_bump(grid.xs, 0.5, 0.1), _bump(grid.xs, 0.5, 0.1)])
    vals[:, (grid.xs < a_supp) | (grid.xs > b_supp)] = 0.0
    w0 = StateField(vals, 0.0, grid.xs)
    traj = solve_forward(spec, w0, zero_control(1), grid, snapshot_stride=1)
    n_steps = traj.times.size - 1
    cells = n_steps  # at most one cell of smearing per step
    lo = max(0, int(np.floor(a_supp * grid.N)) - cells)
    hi = min(grid.N, int(np.ceil(b_supp * grid.N)) + cells)
    outside = np.ones(grid.N + 1, dtype=bool)
    outside[lo : hi + 1] = False
    assert np.all(traj.snapshots[-1][:, outside] == 0.0)


def test_boundary_traces_recorded():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    grid = GridSpec(N=100, cfl=0.9, T=0.5)
    w0 = state_from_exprs([None, "exp(-((x-0.5)/0.1)**2)"], grid, 2)
    traj = solve_forward(spec, w0, zero_control(1), grid, snapshot_stride=1)
    # reflection at x=0 holds on the recorded trace at every step after the first
    left = traj.snapshots[1:, :, 0]
    assert np.allclose(left[:, 0], 0.5 * left[:, 1])


@settings(max_examples=25, deadline=None)
@given(st.integers(8, 64), st.floats(0.2, 1.0), st.floats(0.01, 2.0),
       st.floats(0.25, 2.0), st.floats(0.25, 2.0))
def test_grid_steps_is_the_step_rule_of_both_solvers(N, cfl, T, speed_minus, speed_plus):
    spec = build_system(1, 1, [speed_minus, speed_plus], b=[[0.5]])
    grid = GridSpec(N=N, cfl=cfl, T=T)
    n_steps, dt = grid.steps(spec.lambda_max)
    # the fewest equal steps over [0, T] that keep the CFL number
    dt_cfl = grid.dt_for(spec.lambda_max)
    assert dt <= dt_cfl * (1 + 1e-12)
    assert n_steps == 1 or (n_steps - 1) * dt_cfl < T * (1 + 1e-12)
    w0 = StateField(np.zeros((2, N + 1)), 0.0, grid.xs)
    for run in (solve_forward(spec, w0, zero_control(1), grid), solve_dual(spec, None, w0, grid)):
        assert (run.times.size - 1, run.dt) == (n_steps, dt)


# --------------------------------------------------------------------------- #
# dual solver
# --------------------------------------------------------------------------- #

def test_dual_zero_data():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.0]])
    grid = GridSpec(N=64, cfl=0.9, T=1.0)
    v0 = StateField(np.zeros((2, 65)), 0.0, grid.xs)
    dual = solve_dual(spec, None, v0, grid, snapshot_stride=1)
    assert np.all(dual.snapshots == 0.0)
    assert dual.observation_energy() == 0.0


def test_dual_decoupled_transport_and_flux_balance():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.0]])
    grid = GridSpec(N=400, cfl=0.9, T=0.4)
    vals = np.vstack([np.zeros(grid.N + 1), _bump(grid.xs, 0.5, 0.15)])
    v0 = StateField(vals, 0.0, grid.xs)
    dual = solve_dual(spec, None, v0, grid, snapshot_stride=1)
    # v_+ transports rightward in reversed time
    term = dual.terminal_state().values[1]
    exact = np.where(grid.xs - 0.4 >= 0.0, _bump(grid.xs - 0.4, 0.5, 0.15), 0.0)
    assert np.max(np.abs(term - exact)) < 0.05
    # discrete flux balance: d/ds int v = boundary fluxes, O(h) per unit time
    h = grid.h
    sig = spec.signed_speeds(grid.xs)
    for s in range(1, 6):
        old, new = dual.snapshots[s - 1], dual.snapshots[s]
        mass_change = np.sum(new - old, axis=1) * h / dual.dt
        G_old = sig * old
        flux = G_old[:, 0] - G_old[:, -1]
        assert np.max(np.abs(mass_change - flux)) < 5 * h


def test_dual_reflection_trace_oracle():
    b = 0.7
    spec = build_system(1, 1, [1.0, 1.0], b=[[b]])
    grid = GridSpec(N=2000, cfl=0.9, T=2.0)
    prof_1 = lambda x: _bump(x, 0.6, 0.15)
    prof_2 = lambda x: _bump(x, 0.4, 0.15)
    v0 = StateField(np.vstack([prof_1(grid.xs), prof_2(grid.xs)]), 0.0, grid.xs)
    dual = solve_dual(spec, None, v0, grid)
    ss = dual.times
    # hand-traced: v2 trace at x=1 is the initial v2 profile for s < 1, then
    # the v1 profile reflected at x=0 with factor b*lambda1/lambda2
    expected = np.where(ss < 1.0, prof_2(np.clip(1.0 - ss, 0.0, 1.0)), b * prof_1(np.clip(ss - 1.0, 0.0, 1.0)))
    err = np.max(np.abs(dual.observation[:, 0] - expected))
    assert err < 0.02 * 1.0  # within 2% of the unit amplitude


def test_dual_minus_trace_pinned_to_zero():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    grid = GridSpec(N=100, cfl=0.9, T=0.5)
    rng = np.random.default_rng(4)
    v0 = StateField(rng.standard_normal((2, 101)), 0.0, grid.xs)
    dual = solve_dual(spec, None, v0, grid, snapshot_stride=1)
    assert np.all(dual.snapshots[1:, 0, -1] == 0.0)


def test_dual_refuses_a_non_finite_state_by_name():
    import re

    from hypctrl.core import NonFiniteState

    # StateField refuses NaN, so it enters as the second run of a batch
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    grid = GridSpec(N=32, cfl=0.9, T=0.5)
    data = np.zeros((2, 2, 33))
    data[1, 1, 16] = np.nan
    ds = solve_dual(spec, None, data[:1], grid).dt
    with pytest.raises(NonFiniteState, match=re.escape(f"dual state blew up at t = {-ds:.6g}")):
        solve_dual(spec, None, data, grid)


# --------------------------------------------------------------------------- #
# characteristic flow
# --------------------------------------------------------------------------- #

def test_flow_start_outside_domain_refused():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.0]])
    with pytest.raises(OutOfDomain, match="start position 1.5"):
        characteristic_flow(spec, 1, s=0.0, xi=1.5, t=0.1)


def test_flow_constant_leftward():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.0]])
    res = characteristic_flow(spec, 2, s=0.0, xi=1.0, t=1.0)
    assert res.position == pytest.approx(0.0, abs=1e-9)
    assert not res.exited


def test_flow_affine_rightward_exponential():
    spec = build_system(1, 1, ["1 + x", 3.0], b=[[0.0]])
    res = characteristic_flow(spec, 1, s=0.0, xi=0.0, t=np.log(2.0))
    assert res.position == pytest.approx(1.0, abs=1e-7)


def test_flow_quasilinear_zero_state_reduction():
    spec = build_system(1, 1, [1.0, "1 + w2**2"], b=[[0.0]])
    accessor = lambda t, x: np.zeros(2)
    res = characteristic_flow(spec, 2, s=0.0, xi=1.0, t=0.5, state=accessor)
    assert res.position == pytest.approx(0.5, abs=1e-9)


def test_flow_exit_reporting():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.0]])
    res = characteristic_flow(spec, 2, s=0.0, xi=0.5, t=1.0)
    assert res.exited and res.exit_side == 0.0
    assert res.exit_time == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(FlowLeftDomain):
        characteristic_flow(spec, 2, s=0.0, xi=0.5, t=1.0, clip=False)


def test_flow_backward_in_time():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.0]])
    # leftward component reaching x=0 at time 0.5 was at 0.5 at time 0
    res = characteristic_flow(spec, 2, s=0.5, xi=0.0, t=0.0)
    assert res.position == pytest.approx(0.5, abs=1e-9)


# --------------------------------------------------------------------------- #
# quasilinear forward
# --------------------------------------------------------------------------- #

def test_quasilinear_matches_linear_for_zero_data_region():
    lin = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    ql = build_system(1, 1, [1.0, "1 + 0.0*w2"], b=[[0.5]])
    grid = GridSpec(N=200, cfl=0.9, T=0.6)
    w0 = state_from_exprs([None, "exp(-((x-0.5)/0.1)**2)"], grid, 2)
    t_lin = solve_forward(lin, w0, zero_control(1), grid)
    t_ql = solve_forward(ql, w0, zero_control(1), grid)
    assert np.allclose(t_lin.terminal_state().values, t_ql.terminal_state().values, atol=1e-12)


def test_quasilinear_small_data_runs():
    spec = build_system(1, 1, [1.0, "1 + 0.1*w2**2"], b=[[0.5]])
    grid = GridSpec(N=200, cfl=0.9, T=0.5)
    w0 = state_from_exprs([None, "0.1*exp(-((x-0.5)/0.1)**2)"], grid, 2)
    traj = solve_forward(spec, w0, zero_control(1), grid)
    assert np.all(np.isfinite(traj.terminal_state().values))


@pytest.mark.parametrize("shape", [(3, 33), (4, 3, 33)], ids=["single", "batch"])
def test_closure_receives_the_state_array(shape):
    # a single run's closure gets the (n, N+1) values, a batch's (b, n, N+1):
    # the step's state before its controls are written, which here are the
    # initial trace at x = 1 on every step, so it equals the step's snapshot
    spec = build_system(1, 2, [1.0, 1.0, 2.0], b=[[1.0, 2.0]])
    grid = GridSpec(N=32, cfl=0.9, T=0.4)
    inits = np.random.default_rng(3).standard_normal(shape)
    batched = len(shape) == 3
    seen = []

    def closure(t, values):
        assert type(values) is np.ndarray and values.shape == shape
        seen.append(values.copy())
        return inits[..., 1:, -1]

    w0 = inits if batched else StateField(inits, 0.0, grid.xs)
    traj = solve_forward(spec, w0, closure, grid, snapshot_stride=1)
    snapshots = np.moveaxis(traj.snapshots, 1, 0) if batched else traj.snapshots
    assert len(seen) == traj.diagnostics["steps"] > 1
    assert np.array_equal(seen, snapshots[1:])


def test_boundary_closure_failure_wrapped():
    from hypctrl.core import BoundaryClosureFailure

    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    grid = GridSpec(N=64, cfl=0.9, T=0.5)
    w0 = StateField(np.zeros((2, 65)), 0.0, grid.xs)

    def broken(t, state):
        raise RuntimeError("boom")

    with pytest.raises(BoundaryClosureFailure, match="boom"):
        solve_forward(spec, w0, broken, grid)

    def wrong_shape(t, state):
        return np.zeros(3)

    with pytest.raises(BoundaryClosureFailure):
        solve_forward(spec, w0, wrong_shape, grid)

    # a batch of 3 runs needs shape (3, 1); one row per channel is not enough
    with pytest.raises(BoundaryClosureFailure, match=r"\(3, 1\)"):
        solve_forward(spec, np.zeros((3, 2, 65)), zero_control(1), grid)

    # one entry that is not finite, from step 10 on, in a single run of a 1x2
    # and in one row of a batch of 51: refused at that step's time
    wide = build_system(1, 2, [1.0, 1.0, 2.0], b=[[1.0, 2.0]])
    _, dt = grid.steps(wide.lambda_max)
    at_step_10 = rf"at t={10 * dt:.6g}$"
    for bad in (np.nan, np.inf, -np.inf):
        for shape, entry in (((2,), (1,)), ((51, 2), (17, 0))):

            def closure(t, state, shape=shape, entry=entry, bad=bad):
                ctrl = np.zeros(shape)
                if t >= 10 * dt:
                    ctrl[entry] = bad
                return ctrl

            inits = np.zeros((3, 65)) if len(shape) == 1 else np.zeros((51, 3, 65))
            w0 = StateField(inits, 0.0, grid.xs) if len(shape) == 1 else inits
            with pytest.raises(BoundaryClosureFailure, match=at_step_10):
                solve_forward(wide, w0, closure, grid)


def test_batch_refused_for_state_dependent_speeds():
    spec = build_system(1, 1, [1.0, "1 + 0.1*w2**2"], b=[[0.5]])
    grid = GridSpec(N=16, cfl=0.9, T=0.2)
    with pytest.raises(ValidationError, match="single run"):
        solve_forward(spec, np.zeros((2, 2, 17)), zero_control(1), grid)


def test_batch_results_refuse_single_state_accessors():
    # a batch holds one state per run: each single-state accessor refuses it
    # by name and points to the snapshots of every run
    spec = build_system(1, 1, [1.0, 2.0], b=[[0.5]])
    grid = GridSpec(N=16, cfl=0.9, T=0.2)
    states = np.zeros((3, 2, 17))
    forward = solve_forward(spec, states, lambda t, w: np.zeros((3, 1)), grid)
    dual = solve_dual(spec, None, states, grid)
    batch = r"a batch of 3 runs has no single state: read snapshots\[:, {}\]"
    with pytest.raises(DimensionMismatch, match=batch.format(-1)):
        forward.terminal_state()
    with pytest.raises(DimensionMismatch, match=batch.format(0)):
        forward.state_at(0.0)
    with pytest.raises(DimensionMismatch, match=batch.format(-1)):
        dual.terminal_state()


def test_blowup_detected():
    from hypctrl.core import NonFiniteState

    spec = build_system(
        1, 1, [1.0, 1.0], coupling=[[0.0, 300.0], [300.0, 0.0]], b=[[1.0]]
    )
    grid = GridSpec(N=64, cfl=0.9, T=8.0)
    w0 = state_from_exprs(["exp(-((x-0.5)/0.1)**2)", "exp(-((x-0.5)/0.1)**2)"], grid, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState):
            solve_forward(spec, w0, zero_control(1), grid)


def test_dual_self_convergence_order():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.6]])
    terminal = {}
    for N in (250, 500, 1000):
        grid = GridSpec(N=N, cfl=0.9, T=0.5)
        vals = np.vstack([_bump(grid.xs, 0.6, 0.2), _bump(grid.xs, 0.4, 0.2)])
        v0 = StateField(vals, 0.0, grid.xs)
        dual = solve_dual(spec, None, v0, grid)
        terminal[N] = dual.terminal_state().values
    errs = [
        np.max(np.abs(terminal[N] - terminal[2 * N][:, ::2])) for N in (250, 500)
    ]
    order = np.log2(errs[0] / errs[1])
    assert 0.8 <= order <= 1.2


def test_dual_with_source_matrix_runs():
    from hypctrl.backstepping import solve_kernel, source_matrix

    spec = build_system(1, 1, [1.0, 1.0], coupling=[[0.0, 0.6], [0.4, 0.0]], b=[[0.5]])
    kernel = solve_kernel(spec, NK=32)
    S = source_matrix(kernel, spec)
    grid = GridSpec(N=200, cfl=0.9, T=1.5)
    vals = np.vstack([_bump(grid.xs, 0.6, 0.2), _bump(grid.xs, 0.4, 0.2)])
    dual = solve_dual(spec, S, StateField(vals, 0.0, grid.xs), grid, snapshot_stride=1)
    assert np.all(np.isfinite(dual.snapshots))
    # the nonlocal boundary term keeps feeding the system: v(-T) is nonzero
    assert np.max(np.abs(dual.terminal_state().values)) > 1e-6


def test_snapshots_are_not_held_twice():
    import tracemalloc

    spec = build_system(1, 2, [1.0, 1.0, 2.0], b=[[1.0, 2.0]])
    grid = GridSpec(N=2000, cfl=0.9, T=1.7)
    w0 = state_from_exprs([None, "exp(-((x-0.5)/0.1)**2)", "exp(-((x-0.3)/0.1)**2)"], grid, 3)
    tracemalloc.start()
    try:
        traj = solve_forward(spec, w0, zero_control(2), grid, snapshot_stride=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in vars(traj).values() if isinstance(a, np.ndarray))
    assert traj.snapshots.nbytes > 36e6
    assert peak < 1.3 * held


def test_solvers_hold_two_states_and_a_chunk_of_abs_values():
    # both solvers step between two state buffers; the forward run also keeps
    # each step's |w| for its chunk's norms, K of them: 64 for the small
    # coupled 2x2, fewer for the 1x2 at N = 4000, whose K slots fill the
    # chunk's byte budget.  Beyond that, 20 states' worth covers the run's
    # constants (speeds, coupling values, coefficients), the dual's flux
    # buffer, the per-chunk norm temporaries and the bound views; chunks of
    # states would take 3K
    import tracemalloc

    coupling = CouplingField(2, constant=[[0.0, 1.0], [1.0, 0.0]], gamma=0.1)
    coupled = build_system(1, 1, [1.0, 1.0], coupling=coupling, b=[[0.5]])
    small = GridSpec(N=128, cfl=0.95, T=2.2)
    one_by_two = build_system(1, 2, [1.0, 1.0, 2.0], b=[[1.0, 2.0]])
    large = GridSpec(N=4000, cfl=0.9, T=0.02)
    cases = [
        (coupled, small, ["exp(-((x-0.4)/0.1)**2)", "exp(-((x-0.6)/0.1)**2)"]),
        (one_by_two, large, [f"exp(-((x-{c})/0.08)**2)" for c in (0.3, 0.5, 0.7)]),
    ]
    for spec, grid, exprs in cases:
        w0 = state_from_exprs(exprs, grid, spec.n)
        control = np.full(spec.m, 0.1)
        runs = {
            "forward": lambda: solve_forward(spec, w0, lambda t, values: control, grid),
            "dual": lambda: solve_dual(spec, None, w0, grid),
        }
        for name, solve in runs.items():
            tracemalloc.start()
            try:
                run = solve()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held = sum(a.nbytes for a in vars(run).values() if isinstance(a, np.ndarray))
            K = 0  # the dual keeps no |w| slots
            if name == "forward":
                K = run.diagnostics["chunk"]
                if grid is small:
                    assert K == 64
                else:
                    assert 1 < K < 64 and run.diagnostics["steps"] > K
            assert peak - held <= (2 + K + 20) * w0.values.nbytes, (name, grid.N)


def test_diagnostics_report_steps_dt_chunk_and_doublings():
    lin = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    grid = GridSpec(N=64, cfl=0.9, T=0.5)
    w0 = state_from_exprs([None, "exp(-((x-0.5)/0.1)**2)"], grid, 2)
    traj = solve_forward(lin, w0, zero_control(1), grid)
    assert traj.diagnostics == {
        "steps": traj.times.size - 1, "dt": traj.dt, "chunk": 64, "max_substep_doublings": 0,
    }
    # speed 1 + w2^2 reaches 2 on this unit bump: the CFL check halves the step once
    quasi = build_system(1, 1, [1.0, "1 + w2**2"], b=[[0.5]])
    assert solve_forward(quasi, w0, zero_control(1), grid).diagnostics["max_substep_doublings"] == 1
    dual = solve_dual(lin, None, w0, grid)
    assert dual.diagnostics == {"steps": dual.times.size - 1, "dt": dual.dt}


def test_cfl_violation_raised_when_halving_cannot_restore_it():
    from hypctrl.core import CFLViolation

    # dt is set by the speeds at w = 0 (lambda_max = 1); the unit bump in w2
    # makes lambda_2 about 1e6, beyond 2**12 halvings of the first step
    spec = build_system(1, 1, [1.0, "1 + 1e6*w2**2"], b=[[0.5]])
    grid = GridSpec(N=64, cfl=0.9, T=0.2)
    w0 = state_from_exprs([None, "exp(-((x-0.5)/0.1)**2)"], grid, 2)
    with pytest.raises(CFLViolation, match=r"by halving at t = 0\.0133333$"):
        solve_forward(spec, w0, zero_control(1), grid)


def test_state_dependent_speed_that_is_not_positive_is_refused_at_once():
    from hypctrl.core import CFLViolation

    # lambda_2 = 1 - 0.7 w2^2 is -0.183 at the peak of this bump already at
    # t = 0; upwinding against that flow used to run on and fail late, at
    # t = 0.0982143, once 2**12 halvings could not restore the CFL condition
    spec = build_system(1, 1, [1.0, "1.0 - 0.7*w2**2"], b=[[0.5]])
    grid = GridSpec(N=200, cfl=0.9, T=0.5)
    w0 = state_from_exprs([None, "1.3*exp(-((x - 0.5)/0.1)**2)"], grid, 2)
    with pytest.raises(CFLViolation, match=r"^lambda_2 = -0\.183 is not finite and positive "
                       r"at t = 0, x = 0\.5$"):
        solve_forward(spec, w0, zero_control(1), grid)
    # a rightward speed, positive at t = 0: the bump in w2 reaches x = 0 and
    # reflects into w1 = 0.5 w2, about 1 at its peak, where 2 - 4 w1^2 < 0
    spec = build_system(1, 1, ["2.0 - 4*w1**2", 1.0], b=[[0.5]])
    w0 = state_from_exprs([None, "2.5*exp(-((x - 0.25)/0.05)**2)"], grid, 2)
    with pytest.raises(CFLViolation, match=r"^lambda_1 = -0\.0140256 is not finite and "
                       r"positive at t = 0\.213004, x = 0$"):
        solve_forward(spec, w0, zero_control(1), grid)


def test_dual_refuses_vanishing_boundary_speed():
    # lambda_2(0) = 1e-13 passes validation, but the dual divides by it at x = 0
    spec = build_system(1, 1, [1.0, "1e-13 + x"], b=[[0.5]])
    grid = GridSpec(N=32, cfl=0.9, T=0.5)
    with pytest.raises(SingularBoundarySpeed):
        solve_dual(spec, None, StateField(np.zeros((2, 33)), 0.0, grid.xs), grid)
