import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypctrl.controller import (
    CubicRamp,
    _read,
    _read_cells,
    check_compatibility,
    null_control_openloop,
    optimality_witness,
    run_closed_loop,
    synthesize_feedback,
    verify_observability,
    verify_witness,
)
from hypctrl.core import (
    BoundaryClosureFailure,
    ControlSignal,
    GridSpec,
    NotApplicable,
    NotInClassB,
    StateField,
    TimeTooShort,
    ValidationError,
    build_system,
    state_from_exprs,
)
from hypctrl.simulator import characteristic_flow, solve_dual, solve_forward, zero_control
from hypctrl.times import cumulative_travel, frozen_state, optimal_time_argmax, travel_times


def _bump_exprs(scale=1.0):
    return [
        f"{0.8 * scale}*exp(-((x-0.5)/0.08)**2)",
        f"{scale}*exp(-((x-0.4)/0.09)**2)",
    ]


def test_ramp_exact_zero_after_half():
    ramp = CubicRamp(value0=1.3, slope0=-0.7, half=0.1)
    assert ramp(0.0) == pytest.approx(1.3)
    eps = 1e-6
    assert (ramp(eps) - ramp(0.0)) / eps == pytest.approx(-0.7, rel=1e-3)
    for t in (0.1, 0.1000001, 0.5, 100.0):
        assert ramp(t) == 0.0
    eta = CubicRamp(1.0, 0.0, 0.05)
    assert eta(0.0) == 1.0
    assert eta(0.05) == 0.0


def test_synthesize_rejects_bad_inputs():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    grid = GridSpec(N=128, cfl=0.9, T=2.2)
    w0 = state_from_exprs(_bump_exprs(), grid, 2)
    with pytest.raises(TimeTooShort):
        synthesize_feedback(spec, 1.9, w0)
    spec2 = build_system(1, 2, [1.0, 1.0, 2.0], b=[[1.0, 0.0]])
    w02 = state_from_exprs([None, None, None], grid, 3)
    with pytest.raises(NotInClassB):
        synthesize_feedback(spec2, 2.0, w02)


def test_synthesize_refuses_coupling():
    # the law ignores C(x) and uses the linear elimination maps of B
    grid = GridSpec(N=128, cfl=0.9, T=2.2)
    coupled = build_system(1, 1, [1.0, 1.0], coupling=[[0.0, 0.1], [0.1, 0.0]], b=[[0.5]])
    w0 = state_from_exprs(_bump_exprs(), grid, 2)
    with pytest.raises(NotApplicable, match="zero coupling"):
        synthesize_feedback(coupled, 2.2, w0)
    # coupling below the threshold the witness uses is taken as zero
    faint = build_system(1, 1, [1.0, 1.0], coupling=[[0.0, 1e-15], [0.0, 0.0]], b=[[0.5]])
    assert synthesize_feedback(faint, 2.2, w0).Topt == pytest.approx(2.0)


def test_feedback_on_sampled_speed_just_above_topt():
    # T_opt = 0.5 ln 2 + ln(4/3) + 1 = 1.63426 on the piecewise-linear profile; a
    # trapezoid rule on the three samples put it at 1.6667 and refused T = 1.65
    spec = build_system(1, 1, [([0.0, 0.5, 1.0], [1.0, 2.0, 1.5]), 1.0], b=[[0.5]])
    grid = GridSpec(N=256, cfl=0.9, T=1.8)
    w0 = state_from_exprs(_bump_exprs(), grid, 2)
    law = synthesize_feedback(spec, 1.65, w0)
    assert law.Topt == pytest.approx(0.5 * np.log(2.0) + np.log(4.0 / 3.0) + 1.0, abs=1e-13)
    _, rep = run_closed_loop(law, w0, grid)
    assert rep.terminal_rel < 1e-12


def test_compatibility_warning():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    grid = GridSpec(N=128, cfl=0.9, T=2.2)
    bad = state_from_exprs(["1 + 0*x", "0*x"], grid, 2)  # w_-(0,0) != B w_+(0,0)
    r0, r1, tol = check_compatibility(spec, bad)
    assert r0 > tol
    with pytest.warns(UserWarning, match="corner compatibility"):
        synthesize_feedback(spec, 2.2, bad)


def test_delays_and_arg_positions_linear():
    spec = build_system(1, 2, [1.0, 1.0, 2.0], b=[[1.0, 2.0]])
    grid = GridSpec(N=200, cfl=0.9, T=1.7)
    w0 = state_from_exprs([None, None, None], grid, 3)
    law = synthesize_feedback(spec, 1.7, w0)
    # the delay is the end of the controlled component's own travel table
    delay = cumulative_travel(spec, 2)[1][-1]
    assert delay == pytest.approx(0.5)
    ((position,),) = law.read_positions().values()
    assert position == np.interp(delay, *cumulative_travel(spec, 1)[::-1])
    # component 2 (speed 1, leftward) reaching x=0 at t+0.5 sits at x=0.5 now
    ((level, component, position),) = law.reads
    assert (level, component) == (1, 2) and position == pytest.approx(0.5, abs=1e-6)
    # a call reads there, through the cells found when the law was built
    law(0.05, w0.values)
    assert law.last_reads == law.reads


def test_fixed_and_state_dependent_laws_take_one_delay_rule():
    # at the zero state the quasilinear speeds equal the fixed ones bit for bit,
    # and both laws take every travel time from the same tables
    fixed = build_system(1, 2, [1.2, "1 + 0.3*x", "2 - 0.25*x"], b=[[1.0, 2.0]])
    quasi = build_system(1, 2, [1.2, "1 + 0.3*x + 0.1*w2**2", "2 - 0.25*x + 0.1*w3**2"],
                         b=[[1.0, 2.0]])
    grid = GridSpec(N=64, cfl=0.9, T=2.2)
    w0 = state_from_exprs([None, None, None], grid, 3)
    ((position,),) = synthesize_feedback(fixed, 2.2, w0).read_positions().values()
    ((frozen,),) = synthesize_feedback(quasi, 2.2, w0).read_positions(w0.values).values()
    assert position == frozen


def test_law_refuses_a_state_on_another_grid():
    # the law is bound to the grid of the state it was built from
    spec = build_system(1, 2, [1.0, 1.0, 2.0], b=[[1.0, 2.0]])
    exprs = ["0.3*exp(-((x-0.5)/0.1)**2)", "exp(-((x-0.45)/0.1)**2)", "0*x"]
    coarse, fine = (GridSpec(N=N, cfl=0.9, T=1.7) for N in (200, 400))
    law = synthesize_feedback(spec, 1.7, state_from_exprs(exprs, coarse, 3))
    with pytest.raises(BoundaryClosureFailure, match=r"shape \(3, 401\).*N = 200"):
        solve_forward(spec, state_from_exprs(exprs, fine, 3), law, fine)


@settings(max_examples=80, deadline=None)
@given(st.integers(8, 400), st.integers(0, 2**32 - 1), st.data())
def test_cell_read_equals_np_interp_bit_for_bit(N, seed, data):
    """The law's read through its precomputed cell is np.interp's value, for
    positions inside cells, on nodes, at 0.0 and 1.0, and on finite rows of
    any scale, signed zeros included."""
    xs = np.linspace(0.0, 1.0, N + 1)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((3, N + 1)) * 10.0 ** rng.integers(-300, 300, (3, N + 1))
    values[rng.random((3, N + 1)) < 0.1] = -0.0
    position = st.one_of(
        st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]), st.integers(0, N).map(xs.item)
    )
    positions = {
        1: np.array(data.draw(st.lists(position, min_size=2, max_size=2))),
        2: np.array(data.draw(st.lists(position, min_size=1, max_size=1))),
    }
    cells, reads = _read_cells(positions, 1, xs)
    expected_reads = [(1, 2, positions[1][0]), (1, 3, positions[1][1]), (2, 2, positions[2][0])]
    assert list(reads) == expected_reads
    for (j, component, pos), cell in zip(reads, cells[1] + cells[2]):
        got = np.float64(_read(values, cell))
        want = np.interp(pos, xs, values[component - 1])
        assert got.view(np.int64) == want.view(np.int64), (pos, cell)


def test_zero_state_stays_zero_under_feedback():
    spec = build_system(1, 2, [1.0, 1.0, 2.0], b=[[1.0, 2.0]])
    grid = GridSpec(N=128, cfl=0.9, T=1.7)
    w0 = StateField(np.zeros((3, 129)), 0.0, grid.xs)
    law = synthesize_feedback(spec, 1.7, w0)
    traj = solve_forward(spec, w0, law, grid, snapshot_stride=1)
    assert np.all(traj.snapshots == 0.0)
    assert np.all(traj.controls == 0.0)


def test_feedback_never_reads_the_boundary_it_sets():
    spec = build_system(1, 2, [1.0, 1.0, 2.0], b=[[1.0, 2.0]])
    grid = GridSpec(N=200, cfl=0.9, T=1.7)
    w0 = state_from_exprs(
        ["0.3*exp(-((x-0.5)/0.1)**2)", "exp(-((x-0.45)/0.1)**2)", "0.5*exp(-((x-0.55)/0.1)**2)"],
        grid,
        3,
    )
    law = synthesize_feedback(spec, 1.7, w0)
    run_closed_loop(law, w0, grid)
    assert law.last_reads, "the level map should have read interior values"
    for level, comp, pos in law.last_reads:
        assert pos < 1.0


def test_scaling_equivariance():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    grid = GridSpec(N=256, cfl=0.9, T=2.2)
    w0 = state_from_exprs(_bump_exprs(), grid, 2)
    w0s = StateField(3.0 * w0.values, 0.0, grid.xs)
    law = synthesize_feedback(spec, 2.2, w0)
    laws = synthesize_feedback(spec, 2.2, w0s)
    t1, _ = run_closed_loop(law, w0, grid)
    t2, _ = run_closed_loop(laws, w0s, grid)
    assert np.max(np.abs(t2.snapshots[-1] - 3.0 * t1.snapshots[-1])) < 1e-10
    assert np.max(np.abs(t2.controls - 3.0 * t1.controls)) < 1e-10


def test_closed_loop_stabilizes_2x2():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    grid = GridSpec(N=600, cfl=0.9, T=2.2)
    w0 = state_from_exprs(_bump_exprs(), grid, 2)
    law = synthesize_feedback(spec, 2.2, w0)
    traj, rep = run_closed_loop(law, w0, grid)
    assert rep.terminal_rel <= 1e-2
    assert rep.first_below_1e2 is not None and rep.first_below_1e2 < 2.2


def test_closed_loop_tail_is_flushed_not_subnormal():
    # the upwind tail behind the finite-time decay shrinks by a constant factor
    # per step; without the flush it ends in 2,346 subnormal entries among the
    # snapshots of every third step
    spec = build_system(1, 2, [1.0, 1.0, 2.0], b=[[1.0, 2.0]])
    grid = GridSpec(N=400, cfl=0.9, T=1.7)
    w0 = state_from_exprs(
        [
            "0.5*exp(-((x-0.5)/0.08)**2)",
            "exp(-((x-0.45)/0.08)**2)",
            "0.7*exp(-((x-0.55)/0.08)**2)",
        ],
        grid,
        3,
    )
    law = synthesize_feedback(spec, 1.7, w0)
    traj = solve_forward(spec, w0, law, grid, snapshot_stride=3)
    subnormal = (traj.snapshots != 0.0) & (np.abs(traj.snapshots) < np.finfo(float).tiny)
    assert not np.any(subnormal)
    _, rep = run_closed_loop(law, w0, grid)
    assert rep.terminal_rel == pytest.approx(0.0013501505614244233, rel=1e-12)


def test_closed_loop_keeps_initial_and_terminal_state():
    spec = build_system(1, 2, [1.0, 1.0, 2.0], b=[[1.0, 2.0]])
    grid = GridSpec(N=200, cfl=0.9, T=1.7)
    w0 = state_from_exprs(
        ["0.3*exp(-((x-0.5)/0.1)**2)", "exp(-((x-0.45)/0.1)**2)", "0.5*exp(-((x-0.55)/0.1)**2)"],
        grid,
        3,
    )
    law = synthesize_feedback(spec, 1.7, w0)
    traj, _ = run_closed_loop(law, w0, grid)
    full = solve_forward(spec, w0, law, grid, snapshot_stride=1)
    assert traj.snapshots.shape == (2, 3, 201)
    assert np.array_equal(traj.snapshot_times, [0.0, full.times[-1]])
    assert np.array_equal(traj.snapshots[0], w0.values)
    assert np.array_equal(traj.snapshots[-1], full.snapshots[-1])
    assert np.array_equal(traj.norms_linf, full.norms_linf)


def test_closed_loop_quasilinear_small_data():
    base = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    ql = build_system(1, 1, [1.0, "1 + 0.1*w2**2"], b=[[0.5]])
    T = 2.0 + 0.4
    rels = {}
    for N in (200, 400):
        grid = GridSpec(N=N, cfl=0.9, T=T)
        w0 = state_from_exprs(
            ["0.08*exp(-((x-0.5)/0.08)**2)", "0.1*exp(-((x-0.4)/0.09)**2)"], grid, 2
        )
        law = synthesize_feedback(ql, T, w0)
        traj, rep = run_closed_loop(law, w0, grid)
        rels[N] = rep.terminal_rel
    assert rels[400] <= 5e-2
    # grid refinement consistency: both resolutions agree the state is small
    assert rels[200] <= 1e-1


def exact_closed_loop(spec, law, initial):
    """w(c, t, x), component c of an uncoupled linear system with constant
    speeds under ``law``, by the delay recursion along characteristics: no grid.

    Each component is constant on its characteristic.  A leftward one is its
    initial datum ``initial[c - 1]`` at x + lambda t until that passes x = 1,
    then the control emitted (1 - x)/lambda earlier; a rightward one is its
    datum at x - lambda t until that passes x = 0, then (B w_+)_c there x/lambda
    earlier.  The control of component c at time t is the law's: its zeta
    ramp, plus, for the channel of a level j, (1 - eta(t)) times ``coefs[j-1]``
    applied to the arguments at the positions of ``law.reads`` at time t.
    """
    k, m, B = spec.k, spec.m, spec.B
    lam = spec.lambdas(0.0)[:, 0].tolist()
    reads = {}
    for level, comp, pos in law.reads:
        reads.setdefault(level, []).append((comp, pos))

    def control(c, t):
        u, j = law.zetas[c - k - 1](t), k + m + 1 - c  # j: the level of channel c
        if j <= law.levels:
            args = np.array([w(comp, t, pos) for comp, pos in reads[j]])
            u += (1.0 - law.eta(t)) * float(law.coefs[j - 1] @ args)
        return u

    def w(c, t, x):
        speed = lam[c - 1]
        if c > k:
            foot = x + speed * t
            return initial[c - 1](foot) if foot <= 1.0 else control(c, t - (1.0 - x) / speed)
        foot = x - speed * t
        if foot >= 0.0:
            return initial[c - 1](foot)
        return float(B[c - 1] @ [w(comp, t - x / speed, 0.0) for comp in range(k + 1, k + m + 1)])

    return w


@pytest.mark.parametrize("gap", [0.4, 0.1, 0.02])
def test_exact_closed_loop_is_zero_from_half_past_topt(gap):
    # the paper's finite-time claim without a grid: under the law the 1x2 is
    # exactly 0.0 from (T + T_opt)/2 on, T_opt after the law is fully on
    spec = build_system(1, 2, [1.0, 1.0, 2.0], b=[[1.0, 2.0]])
    T = 1.5 + gap
    bumps = [(0.3, 0.45), (1.0, 0.5), (0.6, 0.55)]
    initial = [lambda x, a=a, c=c: a * math.exp(-(((x - c) / 0.1) ** 2)) for a, c in bumps]
    grid = GridSpec(N=200, cfl=0.9, T=T)
    w0 = StateField(np.array([[f(x) for x in grid.xs] for f in initial]), 0.0, grid.xs)
    law = synthesize_feedback(spec, T, w0)
    w = exact_closed_loop(spec, law, initial)
    settled = (T + law.Topt) / 2
    xs = np.linspace(0.0, 1.0, 51)
    assert law.Topt == 1.5 and law.reads == ((1, 2, 0.5),)
    for t in np.linspace(settled, T, 101):
        assert all(w(c, t, x) == 0.0 for c in (1, 2, 3) for x in xs)
    for t in settled - gap * np.array([1e-3, 1e-2, 1e-1]):
        assert any(w(c, t, x) != 0.0 for c in (1, 2, 3) for x in xs)


QL_SPEEDS = [1.0, "1 + 0.1*w2**2", "2 + 0.1*w3**2"]  # 1x2, T_opt = 1.5 at w = 0
QL_B = [[1.0, 2.0]]


def _ql_state(grid, amps, centres):
    xs = grid.xs
    vals = np.array([a * np.exp(-(((xs - c) / 0.08) ** 2)) for a, c in zip(amps, centres)])
    return StateField(vals, 0.0, xs)


@settings(max_examples=15, deadline=None)
@given(
    amps=st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3),
    centres=st.lists(st.floats(0.3, 0.7), min_size=3, max_size=3),
    N=st.sampled_from([24, 100]),
)
def test_quasilinear_read_positions_match_characteristic_flow(amps, centres, N):
    # the law reads w2 where its characteristic reaches x = 0 after the
    # travel time of w3; on a frozen state the RK4 tracer is the reference
    spec = build_system(1, 2, QL_SPEEDS, b=QL_B)
    grid = GridSpec(N=N, cfl=0.9, T=1.8)
    state = _ql_state(grid, amps, centres)
    law = synthesize_feedback(spec, 1.8, state)
    (position,) = law.read_positions(state.values)[1]
    delay = cumulative_travel(spec, 2, state=frozen_state(state.xs, state.values))[1][-1]

    def frozen(time, x):
        return np.array([np.interp(x, state.xs, row) for row in state.values])

    ref = characteristic_flow(spec, 2, s=delay, xi=0.0, t=0.0, state=frozen)
    assert abs(position - ref) <= 1e-6


def test_quasilinear_law_interpolates_the_state_once_per_call(monkeypatch):
    import hypctrl.controller as controller

    spec = build_system(1, 2, QL_SPEEDS, b=QL_B)
    state = _ql_state(GridSpec(N=24, cfl=0.9, T=1.8), [0.7, 0.9, 0.6], [0.5, 0.45, 0.55])
    law = synthesize_feedback(spec, 1.8, state)
    frozen = []
    monkeypatch.setattr(controller, "frozen_state",
                        lambda *a: frozen.append(a) or frozen_state(*a))
    (position,) = law.read_positions(state.values)[1]
    assert len(frozen) == 1
    # the same bits as the travel-time tables of each call's own frozen state
    xs2, T2 = cumulative_travel(spec, 1, state=frozen_state(state.xs, state.values))
    T3 = cumulative_travel(spec, 2, state=frozen_state(state.xs, state.values))[1]
    assert position == np.interp(T3[-1], T2, xs2)


def test_closed_loop_quasilinear_reads_state_and_refines():
    # 1x2 has one elimination level, so the law reads w2 at state-dependent
    # positions on every step before the switch-off (unlike the 1x1 case)
    spec = build_system(1, 2, QL_SPEEDS, b=QL_B)
    T = 1.8
    rels = {}
    for N in (100, 400):
        grid = GridSpec(N=N, cfl=0.9, T=T)
        w0 = _ql_state(grid, [0.7, 0.9, 0.6], [0.5, 0.45, 0.55])
        law = synthesize_feedback(spec, T, w0)
        assert law.levels == 1
        traj, rep = run_closed_loop(law, w0, grid)
        rels[N] = rep.terminal_rel
    assert rels[100] <= 1e-2
    assert rels[400] <= 0.1 * rels[100]


def test_null_control_zero_data():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    grid = GridSpec(N=64, cfl=0.9, T=2.2)
    w0 = StateField(np.zeros((2, 65)), 0.0, grid.xs)
    res = null_control_openloop(spec, w0, grid, segments=8)
    assert res.residual == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(res.signal.values)) < 1e-9


def test_null_control_needs_fewer_segments_than_steps():
    # 5 steps: the closure is first called at t = dt, already in segment 1 of
    # 5, so a fifth segment would leave segment 0 without a step
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    grid = GridSpec(N=8, cfl=0.9, T=0.5)
    w0 = state_from_exprs(["0", "sin(pi*x)"], grid, 2)
    assert grid.steps(spec.lambda_max)[0] == 5
    with pytest.raises(ValidationError, match="segments = 5 for 5 steps"):
        null_control_openloop(spec, w0, grid, segments=5)
    assert null_control_openloop(spec, w0, grid, segments=4).condition == 3.4225109212496103


@st.composite
def _linear_systems(draw):
    """Admissible k, m <= 2 systems with constant speeds, random B, and a
    random constant coupling or none."""
    k, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    neg = sorted(draw(st.lists(st.integers(2, 8), min_size=k, max_size=k, unique=True)))[::-1]
    pos = sorted(draw(st.lists(st.integers(2, 8), min_size=m, max_size=m, unique=True)))
    entries = st.floats(-1.5, 1.5, allow_nan=False)
    B = np.array(draw(st.lists(entries, min_size=k * m, max_size=k * m))).reshape(k, m)
    n = k + m
    coupling = None
    if draw(st.booleans()):
        coupling = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
        coupling = coupling.reshape(n, n) * (1 - np.eye(n))
    return build_system(k, m, [v / 4 for v in neg + pos], coupling=coupling, b=B)


def _recorded_forward(call):
    """(w0, grid, Trajectory) of each forward run the controller makes while
    call() runs, in the order it makes them."""
    import hypctrl.controller as controller
    from unittest import mock

    runs = []

    def recorded(*args, **kwargs):
        runs.append((args[1], args[3], solve_forward(*args, **kwargs)))
        return runs[-1][2]

    with mock.patch.object(controller, "solve_forward", recorded):
        call()
    return runs


def _recorded_runs(spec, w0, grid, segments):
    """The forward runs of one null_control_openloop call, as _recorded_forward."""
    return _recorded_forward(lambda: null_control_openloop(spec, w0, grid, segments=segments))


@settings(max_examples=25, deadline=None)
@given(_linear_systems(), st.integers(8, 16), st.floats(0.5, 1.0), st.data())
def test_basis_runs_chain_by_pulse_length(spec, N, T, data):
    """The basis runs of null_control_openloop go channel by channel, from the
    last segment to the first.  Each continues, under zero control on a grid
    of step dt, the terminal state of the nearest later segment with a pulse
    of as many steps whose gap has such a grid; a segment with none starts
    from zero at its first step j0, or at the latest step before it whose
    tail grid steps by dt itself.  Either way its terminal state is that of
    the full-horizon run from zero, unit on the segment's steps, bit for
    bit."""
    grid = GridSpec(N=N, cfl=0.9, T=T)
    n_steps, dt = grid.steps(spec.lambda_max)
    segments = data.draw(st.integers(1, n_steps - 1), label="segments")
    w0 = StateField(np.ones((spec.n, N + 1)), 0.0, grid.xs)
    basis = _recorded_runs(spec, w0, grid, segments)[1:-1]  # the free and assembled runs aside
    assert len(basis) == spec.m * segments

    def steps_of_dt(count):
        """Whether the grid of horizon count*dt steps by dt itself."""
        return GridSpec(N=N, cfl=0.9, T=count * dt).steps(spec.lambda_max) == (count, dt)

    seg = [min(int(j * dt / T * segments), segments - 1) for j in range(1, n_steps + 1)]
    zero = StateField(np.zeros((spec.n, N + 1)), 0.0, grid.xs)
    for c in range(spec.m):
        unit = np.eye(spec.m)[c]
        terminal = {}
        for s in reversed(range(segments)):
            assert s in seg  # every segment gets at least one step
            j0, length = seg.index(s) + 1, seg.count(s)
            initial, run_grid, run = basis[c * segments + segments - 1 - s]
            n_run, dt_run = run_grid.steps(spec.lambda_max)
            assert dt_run == dt
            # the later segments of as many steps whose gap has a grid of step dt
            sources = [later for later in range(s + 1, segments)
                       if seg.count(later) == length and steps_of_dt(seg.index(later) - j0 + 1)]
            if sources:
                nearest = sources[0]
                assert n_run == seg.index(nearest) + 1 - j0
                assert np.array_equal(initial.values, terminal[nearest])
                assert not run.controls[1:].any()
            else:
                start = n_steps - n_run + 1
                assert 1 <= start <= j0
                assert all(not steps_of_dt(n_steps - later + 1)
                           for later in range(start + 1, j0 + 1))
                on = j0 - start + 1  # the run's first step with the unit control
                assert not run.controls[:on].any() and not run.controls[on + length:].any()
                assert np.array_equal(run.controls[on:on + length], np.tile(unit, (length, 1)))
            terminal[s] = run.terminal_state().values

            def full_control(t, state, s=s, unit=unit):
                return unit if seg[round(t / dt) - 1] == s else 0.0 * unit

            full = solve_forward(spec, zero, full_control, grid)
            assert np.array_equal(run.terminal_state().values, full.terminal_state().values)


@pytest.mark.parametrize("T, most", [(2.2, 1500), (1.0, 320)])
def test_basis_runs_take_few_steps(T, most):
    # the coupled 2x2 of the benchmark's nullctrl tasks (N = 128, CFL 0.95,
    # 64 segments): the chained basis runs take 1,331 steps at T = 2.2 and
    # 277 at T = 1.0, where runs from zero at each segment took 9,702 and 4,442
    spec = build_system(1, 1, [1.0, 1.0], coupling=[[0.0, 0.1], [0.1, 0.0]], b=[[0.5]])
    grid = GridSpec(N=128, cfl=0.95, T=T)
    w0 = state_from_exprs(_bump_exprs(), grid, 2)
    runs = _recorded_runs(spec, w0, grid, 64)
    assert len(runs) == 64 + 2
    assert sum(run.diagnostics["steps"] for *_, run in runs[1:-1]) <= most


def test_null_control_residual_ladder():
    spec = build_system(1, 1, [1.0, 1.0], coupling=[[0.0, 0.2], [0.2, 0.0]], b=[[0.5]])
    grid = GridSpec(N=128, cfl=0.9, T=2.4)
    w0 = state_from_exprs(_bump_exprs(), grid, 2)
    residuals = [
        null_control_openloop(spec, w0, GridSpec(N=128, cfl=0.9, T=T), segments=24).residual
        for T in (1.4, 1.9, 2.4)
    ]
    assert residuals[0] >= residuals[1] - 1e-9
    assert residuals[1] >= residuals[2] - 1e-9


def test_null_control_exact_target():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    grid = GridSpec(N=96, cfl=0.9, T=2.4)
    w0 = state_from_exprs(_bump_exprs(), grid, 2)
    target = state_from_exprs(
        ["0.2*exp(-((x-0.6)/0.15)**2)", "0.3*exp(-((x-0.4)/0.15)**2)"], grid, 2
    )
    res = null_control_openloop(spec, w0, grid, segments=48, target=target)
    assert res.residual <= 5e-2


def test_witness_not_applicable_cases():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    grid = GridSpec(N=128, cfl=0.9, T=1.0)
    with pytest.raises(NotApplicable):
        optimality_witness(spec, GridSpec(N=128, cfl=0.9, T=2.5))  # T >= T_opt
    coupled = build_system(1, 1, [1.0, 1.0], coupling=[[0.0, 0.5], [0.5, 0.0]], b=[[0.5]])
    with pytest.raises(NotApplicable):
        optimality_witness(coupled, grid)
    degenerate = build_system(1, 1, [1.0, 1.0], b=[[0.0]])
    with pytest.raises(NotApplicable):
        optimality_witness(degenerate, grid)


def test_witness_probe_unreachable():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    grid = GridSpec(N=400, cfl=0.9, T=1.0)
    wit = optimality_witness(spec, grid)
    assert wit.expected == pytest.approx(0.5)
    dev, values = verify_witness(spec, wit, grid, n_controls=20, rng=np.random.default_rng(8))
    assert dev < 0.1
    # the zero-control probe value is the expected one
    assert values[0] == pytest.approx(wit.expected, rel=0.05)


def test_witness_pair_candidate_through_reflection():
    # B = [1 2] has no zero entry: a bump in the fast positive component 3
    # reflects at x = 0 into component 1 before any control reaches x = 0
    spec = build_system(1, 2, [1.0, 1.0, 2.0], b=[[1.0, 2.0]])
    grid = GridSpec(N=256, cfl=0.9, T=0.5)
    wit = optimality_witness(spec, grid)
    assert wit.probe_component == 1
    assert "reflects at x=0" in wit.description
    pinned = (wit.bump_component, wit.probe_x, wit.bump_center, wit.bump_halfwidth, wit.expected)
    assert pinned == (3, 0.25, 0.5, 0.35, 2.0)
    dev, _ = verify_witness(spec, wit, grid, n_controls=10, rng=np.random.default_rng(9))
    assert dev < 0.1
    # x-dependent speeds; the probe reads B_12 = -0.5 times the bump in component 3
    spec = build_system(1, 2, ["1 + 0.5*x", "0.8 + 0.2*x", "2 + x"], b=[[1.5, -0.5]])
    wit = optimality_witness(spec, GridSpec(N=256, cfl=0.9, T=0.6))
    assert (wit.probe_component, wit.bump_component, wit.probe_x, wit.bump_center,
            wit.bump_halfwidth, wit.expected) == (
        1, 3, 0.4394702460356261, 0.4494897429602251, 0.3240750179970221, -0.5)


@st.composite
def _witness_systems(draw):
    """(spec, grid, witness) of an admissible uncoupled k, m <= 2 system
    below its optimal time, with constant or x-dependent speeds, N <= 96."""
    k, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    neg = sorted(draw(st.lists(st.integers(2, 8), min_size=k, max_size=k, unique=True)))[::-1]
    pos = sorted(draw(st.lists(st.integers(2, 8), min_size=m, max_size=m, unique=True)))
    slope = draw(st.sampled_from([0.0, -0.5, 0.5, 1.0]))  # one profile keeps the order
    speeds = [v / 4 if slope == 0.0 else f"{v / 4}*(1 + {slope}*x)" for v in neg + pos]
    entries = st.floats(-1.5, 1.5, allow_nan=False)
    B = np.array(draw(st.lists(entries, min_size=k * m, max_size=k * m))).reshape(k, m)
    spec = build_system(k, m, speeds, b=B)
    topt = optimal_time_argmax(travel_times(spec), k, m)[0]
    grid = GridSpec(N=draw(st.integers(16, 96)), cfl=0.9, T=draw(st.floats(0.3, 0.95)) * topt)
    try:
        return spec, grid, optimality_witness(spec, grid)
    except NotApplicable:
        assume(False)


@settings(max_examples=25, deadline=None)
@given(_witness_systems(), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_witness_basis_values_equal_one_run_per_draw(case, n_controls, seed):
    """The probe values through the 1 + 9m knot responses equal those of a
    batch of one run per draw, from the same draws, to roundoff; value 0 is
    the free run's, bit for bit."""
    spec, grid, wit = case
    dev, values = verify_witness(spec, wit, grid, n_controls, rng=np.random.default_rng(seed))
    scale = max(abs(wit.expected), 1e-12)
    amps = np.zeros((n_controls + 1, spec.m, 9))
    amps[1:] = np.random.default_rng(seed).normal(0.0, scale, size=(n_controls, spec.m, 9))
    controls = ControlSignal(times=np.linspace(0.0, grid.T, 9), values=amps)
    inits = np.broadcast_to(wit.w0.values, amps.shape[:1] + wit.w0.values.shape)
    probes = solve_forward(spec, inits, controls.as_closure(), grid).snapshots[
        :, -1, wit.probe_component - 1]
    direct = np.array([np.interp(wit.probe_x, grid.xs, row) for row in probes])
    assert len(values) == n_controls + 1
    tol = 1e-12 * max(1.0, np.max(np.abs(direct)))
    assert np.max(np.abs(np.array(values) - direct)) <= tol
    assert dev == pytest.approx(np.max(np.abs(direct - wit.expected)) / scale, abs=tol / scale)
    free = solve_forward(spec, wit.w0, zero_control(spec.m), grid).terminal_state()
    assert values[0] == np.interp(wit.probe_x, grid.xs, free.values[wit.probe_component - 1])


@pytest.mark.parametrize("n_controls", [1, 50, 500])
def test_witness_makes_one_batch_of_knot_runs(n_controls):
    """One solve_forward call of 1 + 9m runs, whatever the number of draws."""
    spec = build_system(1, 2, [1.0, 1.0, 2.0], b=[[1.0, 2.0]])
    grid = GridSpec(N=64, cfl=0.9, T=1.3)
    wit = optimality_witness(spec, grid)
    rng = np.random.default_rng(3)
    runs = _recorded_forward(lambda: verify_witness(spec, wit, grid, n_controls, rng=rng))
    assert len(runs) == 1
    inits, run_grid, _ = runs[0]
    assert inits.shape == (1 + 9 * spec.m, spec.n, grid.N + 1)
    assert run_grid is grid


@pytest.mark.parametrize(
    "k, m, speeds, B, T, expected",
    [
        # rightward bump (component 2 of k = 2)
        (2, 2, [4.0, 1.0, 1.0, 4.0], [[0.0, 1.0], [1.0, 1.0]], 0.62,
         (2, 0.81, 0.19, 0.13299999999999995)),
        # leftward bump (component 2 of k = 1), x-dependent speed
        (1, 2, ["2 - x", "0.4 + 0.1*x", 0.7], [[0.0, 1.0]], 2.0,
         (2, 0.04655595216525395, 0.9424746000313035, 0.0398735354808607)),
    ],
)
def test_witness_direct_candidate_exact_values(k, m, speeds, B, T, expected):
    wit = optimality_witness(build_system(k, m, speeds, b=B), GridSpec(N=200, cfl=0.9, T=T))
    assert "travels for time" in wit.description  # the direct candidate
    assert wit.probe_component == wit.bump_component
    assert (wit.bump_component, wit.probe_x, wit.bump_center, wit.bump_halfwidth) == expected


def test_observability_scale_invariance():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.0]])
    grid = GridSpec(N=200, cfl=0.9, T=0.6)
    vals = np.vstack(
        [np.sin(np.pi * grid.xs), np.cos(np.pi * grid.xs)]
    )
    ratios = []
    for scale in (1.0, 5.0):
        v0 = StateField(scale * vals, 0.0, grid.xs)
        dual = solve_dual(spec, None, v0, grid)
        num = dual.observation_energy()
        h = grid.h
        term = dual.terminal_state().values
        sq = np.sum(term**2, axis=0)
        den = h * (np.sum(sq) - 0.5 * (sq[0] + sq[-1]))
        ratios.append(num / den)
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)


def test_observability_dichotomy_small():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.0]])
    rng = np.random.default_rng(10)
    high = verify_observability(spec, 4, GridSpec(N=300, cfl=0.9, T=2.5), rng=rng)
    assert high.estimate > 0.1
    low = verify_observability(spec, 4, GridSpec(N=300, cfl=0.9, T=0.3), rng=rng)
    assert low.estimate < 1e-3


def test_closed_loop_two_levels_m_greater_k():
    # k=2, m=3: two elimination levels plus one pure-ramp channel
    B = [[0.5, 0.3, 0.2], [0.1, 0.4, 0.6]]
    spec = build_system(2, 3, [2.0, 1.0, 1.2, 1.8, 2.5], b=B)
    from hypctrl.times import optimal_time, travel_times

    tau = travel_times(spec)
    topt = optimal_time(tau, 2, 3)
    T = topt + 0.2
    grid = GridSpec(N=600, cfl=0.9, T=T)
    exprs = [f"{0.2 + 0.1 * i}*exp(-((x - {0.35 + 0.06 * i})/0.07)**2)" for i in range(5)]
    w0 = state_from_exprs(exprs, grid, 5)
    law = synthesize_feedback(spec, T, w0)
    assert len(law.coefs) == law.levels == 2
    traj, rep = run_closed_loop(law, w0, grid)
    assert rep.terminal_rel <= 5e-2


def test_closed_loop_m_equals_k():
    B = [[0.3, 0.4], [0.2, 0.5]]
    spec = build_system(2, 2, [2.0, 1.0, 1.5, 3.0], b=B)
    from hypctrl.times import optimal_time, travel_times

    tau = travel_times(spec)
    T = optimal_time(tau, 2, 2) + 0.25
    grid = GridSpec(N=600, cfl=0.9, T=T)
    exprs = [f"{0.3 + 0.1 * i}*exp(-((x - {0.4 + 0.05 * i})/0.07)**2)" for i in range(4)]
    w0 = state_from_exprs(exprs, grid, 4)
    law = synthesize_feedback(spec, T, w0)
    traj, rep = run_closed_loop(law, w0, grid)
    assert rep.terminal_rel <= 5e-2


def test_closed_loop_m_less_than_k_pure_ramp():
    # m = 1: the feedback has no state-fed term, only the ramp channel
    B = [[0.4], [0.7]]
    spec = build_system(2, 1, [2.0, 1.0, 1.5], b=B)
    from hypctrl.times import optimal_time, travel_times

    tau = travel_times(spec)
    T = optimal_time(tau, 2, 1) + 0.3
    grid = GridSpec(N=600, cfl=0.9, T=T)
    exprs = [f"{0.3 + 0.1 * i}*exp(-((x - {0.4 + 0.05 * i})/0.08)**2)" for i in range(3)]
    w0 = state_from_exprs(exprs, grid, 3)
    law = synthesize_feedback(spec, T, w0)
    assert law.levels == 0
    traj, rep = run_closed_loop(law, w0, grid)
    assert rep.terminal_rel <= 5e-2


def test_null_control_multichannel():
    B = [[1.0, 2.0]]
    spec = build_system(1, 2, [1.0, 1.0, 2.0], coupling=np.zeros((3, 3)), b=B)
    grid = GridSpec(N=128, cfl=0.9, T=1.7)
    w0 = state_from_exprs(
        ["0.4*exp(-((x-0.5)/0.1)**2)", "exp(-((x-0.45)/0.1)**2)", "0.6*exp(-((x-0.55)/0.1)**2)"],
        grid,
        3,
    )
    res = null_control_openloop(spec, w0, grid, segments=24)
    assert res.signal.m == 2
    assert res.residual <= 1e-2
