"""Finite-time stabilizing feedback, open-loop null controls, observability.

The feedback prescribes the m incoming values at x = 1.  Elimination level j
(outermost level first) controls component k+m+1-j through

    w_{k+m+1-j}(t, 1) = zeta(t) + (1 - eta(t)) * M_j(args),

where the arguments are the current values of components k+1..k+m-j at the
positions whose characteristics reach x = 0 exactly when the emitted control
arrives there (after the travel time of the controlled component); the
remaining controlled components follow their zeta ramp alone.  The law holds
one zeta ramp per channel, which matches that channel's initial trace at
x = 1, and one eta ramp, which switches the state-fed part on smoothly; all
are C^1 and equal exactly zero from (T - T_opt)/2 on.  A call starts from
the m zeta values and, while eta < 1, adds (1 - eta) M_j to each level's
channel; only then does it find the positions.  They invert the cumulative
travel time, on the current state frozen in time when the speeds depend on
it, and each is read through its grid cell, found when the law is built for
fixed positions; no characteristic is integrated (the RK4
``characteristic_flow``, which reads the state through a callable accessor,
is public API and the tests' reference).

Every entry point reads B from ``spec.B`` and the run horizon from ``grid.T``;
the ``T`` of ``synthesize_feedback`` is the law's target time, not a horizon.
The law is a boundary closure ``law(t, values)`` bound to its system and grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bmatrix import boundary_elimination, trailing_minor_invertible
from .core import (
    ControlSignal,
    DimensionMismatch,
    GridSpec,
    NotApplicable,
    StateField,
    SystemSpec,
    TimeTooShort,
    ValidationError,
)
from .simulator import solve_dual, solve_forward, zero_control
from .times import cumulative_travel, frozen_state, optimal_time_argmax, travel_times

RATIO_CAP = 1e12


# --------------------------------------------------------------------------- #
# ramps
# --------------------------------------------------------------------------- #

class CubicRamp:
    """C^1 cubic Hermite from (value, slope) at 0 to (0, 0) at t = half.

    Evaluates to exactly 0.0 for every t >= half, not merely something small.
    """

    def __init__(self, value0: float, slope0: float, half: float):
        self.value0 = float(value0)
        self.slope0 = float(slope0)
        self.half = float(half)

    def __call__(self, t: float) -> float:
        if t >= self.half or (self.value0 == 0.0 and self.slope0 == 0.0):
            return 0.0
        s = t / self.half
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        return self.value0 * h00 + self.slope0 * self.half * h10


# --------------------------------------------------------------------------- #
# feedback law
# --------------------------------------------------------------------------- #

def _read_cells(positions: dict, k: int, xs: np.ndarray) -> tuple:
    """The cells of the reads at ``positions`` (level -> positions of its
    arguments) on nodes xs, and the (level, component, position) of each read.

    cells[j] holds one cell (row, q, off, span) per argument l of level j:
    row = l - 1, q the node with xs[q] <= pos < xs[q+1], off = pos - xs[q]
    and span = xs[q+1] - xs[q], as np.interp finds them; off is None where
    np.interp returns v[q]: pos on a node, left of xs[0] (q = 0) or from
    xs[-1] on (q = N).
    """
    last = xs.size - 1
    cells, reads = {}, []
    for j, level_positions in positions.items():
        cells[j] = []
        for row, pos in enumerate(map(float, level_positions), start=k):
            q = min(max(int(np.searchsorted(xs, pos, side="right")) - 1, 0), last)
            node = xs.item(q)
            if q == last or pos <= node:
                cells[j].append((row, q, None, None))
            else:
                cells[j].append((row, q, pos - node, xs.item(q + 1) - node))
            reads.append((j, row + 1, pos))
    return cells, tuple(reads)


def _read(values: np.ndarray, cell: tuple) -> float:
    """The value at a cell's position, by np.interp's own formula: bit for bit
    np.interp(pos, xs, values[row]) for a finite position and row."""
    row, q, off, span = cell
    lo = values.item(row, q)
    return lo if off is None else (values.item(row, q + 1) - lo) / span * off + lo


@dataclass
class FeedbackLaw:
    """Boundary closure of the feedback; read positions are fixed unless speeds depend on w.

    The law reads (n, N+1) state values on ``xs``, its initial state's grid,
    and refuses to read other shapes.  Fixed positions get their cells (node,
    offset, width) when the law is built, state-dependent ones on every call,
    through the same helper.
    """

    spec: SystemSpec
    coefs: tuple  # row j-1 is level j's map: m-j coefficients of its arguments
    zetas: list  # a CubicRamp per channel: zetas[p] feeds component k+1+p
    eta: CubicRamp
    delays: dict  # controlled component -> travel time across [0, 1]
    xs: np.ndarray  # the grid the law reads the state on
    T: float = 0.0
    Topt: float = 0.0
    # for fixed positions, set when the law is built: their cells on xs and
    # the (level, component, position) of each read
    cells: dict = field(init=False, default_factory=dict, repr=False)
    reads: tuple = field(init=False, default=())
    last_reads: tuple = ()  # (level, component, position) of each read of the last call

    def __post_init__(self):
        if not self.spec.state_dependent:
            self.cells, self.reads = _read_cells(self.read_positions(), self.spec.k, self.xs)

    @property
    def levels(self) -> int:
        return len(self.coefs)

    def read_positions(self, values: Optional[np.ndarray] = None) -> dict:
        """level -> positions T_l^{-1}(delay) of the arguments l of that level.

        The delay is the controlled component's travel time; with state
        ``values`` (n, N+1) on ``xs`` both travel times are taken on them
        frozen in time.  np.interp returns 1.0 past T_l(1), where the
        characteristic would leave the domain.
        """
        k, m = self.spec.k, self.spec.m
        # interpolated onto the tables' nodes once, for every table of the call
        state = None if values is None else frozen_state(self.xs, values)
        tables = {}

        def table(comp):
            if comp not in tables:
                tables[comp] = cumulative_travel(self.spec, comp - 1, state=state)
            return tables[comp]

        positions = {}
        for j in range(1, self.levels + 1):
            comp = k + m + 1 - j
            delay = self.delays[comp] if values is None else table(comp)[1][-1]
            positions[j] = np.array(
                [np.interp(delay, table(l)[1], table(l)[0]) for l in range(k + 1, k + m - j + 1)]
            )
        return positions

    def __call__(self, t: float, values: np.ndarray) -> np.ndarray:
        m = self.spec.m
        ctrl = np.array([zeta(t) for zeta in self.zetas])
        self.last_reads = ()
        eta = self.eta(t)
        if eta < 1.0:
            if values.shape != (self.spec.n, self.xs.size):
                raise DimensionMismatch(
                    f"state of shape {values.shape}, the law reads on N = {self.xs.size - 1}"
                )
            cells, self.last_reads = self.cells, self.reads
            if self.spec.state_dependent:
                positions = self.read_positions(values)
                cells, self.last_reads = _read_cells(positions, self.spec.k, self.xs)
            # outermost level first; each line only reads interior state values
            for j in range(1, self.levels + 1):
                args = np.array([_read(values, cell) for cell in cells[j]])
                ctrl[m - j] += (1.0 - eta) * float(self.coefs[j - 1] @ args)
        return ctrl


def check_compatibility(spec: SystemSpec, w0: StateField):
    """Residuals of the corner conditions at (t, x) = (0, 0).

    Order zero: w_-(0,0) = B w_+(0,0).  Order one: the spatial derivatives
    must satisfy the differentiated relation with the diagonal speed blocks.
    Returns (r0, r1, tolerance); the tolerance is 10 h max(1, max |dw/dx|).
    """
    k = spec.k
    h = float(w0.xs[1] - w0.xs[0])
    d0 = (w0.values[:, 1] - w0.values[:, 0]) / h
    deriv_scale = float(np.max(np.abs((w0.values[:, 1:] - w0.values[:, :-1]) / h), initial=0.0))
    tolerance = 10.0 * h * max(1.0, deriv_scale)
    corner = w0.values[:, 0]
    r0 = float(np.max(np.abs(corner[:k] - spec.B @ corner[k:]), initial=0.0))
    sig0 = spec.signed_speeds(
        np.array([0.0]), corner if spec.state_dependent else None
    )[:, 0]
    r1 = float(
        np.max(
            np.abs(sig0[:k] * d0[:k] - spec.B @ (sig0[k:] * d0[k:])),
            initial=0.0,
        )
    )
    return r0, r1, tolerance


def synthesize_feedback(
    spec: SystemSpec,
    T: float,
    w0: StateField,
) -> FeedbackLaw:
    """Build the finite-time feedback for target time T > T_opt.

    The ramp initial data come from the trace of w0 at x = 1 (value and
    one-sided slope), so the closed-loop boundary trace starts without a jump.
    For state-independent speeds the argument positions are time-invariant and
    are found once here by inverting the cumulative travel times.

    The law ignores the coupling C(x) and applies the elimination rows of B
    for levels 1..min{k, m-1}, so a coupled system is refused
    (``NotApplicable``) instead of being driven to a state the law misses,
    and a B outside class B (``NotInClassB``) before T is checked.  Initial
    data that violate the corner compatibility conditions
    (``check_compatibility``) draw a UserWarning.
    """
    if spec.coupling_bound > 1e-14:
        raise NotApplicable(
            f"finite-time feedback requires zero coupling, got max |C| = {spec.coupling_bound:.3g}"
        )
    k, m = spec.k, spec.m
    coefs = boundary_elimination(spec.B)[: min(k, m - 1)]
    tau = travel_times(spec)
    topt, _, _ = optimal_time_argmax(tau, k, m)
    if T <= topt:
        raise TimeTooShort(f"target time {T} must exceed T_opt = {topt:.6g}")

    r0, r1, tol = check_compatibility(spec, w0)
    if max(r0, r1) > tol:
        warnings.warn(
            f"initial data violates the corner compatibility conditions "
            f"(residuals {r0:.3g}, {r1:.3g} > {tol:.3g})",
            stacklevel=2,
        )

    h = float(w0.xs[1] - w0.xs[0])
    corner1 = w0.values[:, -1]
    lam1 = spec.lambdas(np.array([1.0]), corner1 if spec.state_dependent else None)[:, 0]
    half = (T - topt) / 2.0
    zetas = [
        CubicRamp(
            float(w0.values[comp, -1]),
            lam1[comp] * float((w0.values[comp, -1] - w0.values[comp, -2]) / h),
            half,
        )
        for comp in range(k, k + m)
    ]
    delays = {k + p + 1: float(tau[k + p]) for p in range(m)}
    return FeedbackLaw(
        spec=spec, coefs=coefs, zetas=zetas, eta=CubicRamp(1.0, 0.0, half), delays=delays,
        xs=w0.xs, T=T, Topt=float(topt),
    )


@dataclass
class StabilizationReport:
    initial_linf: float
    terminal_linf: float
    terminal_rel: float
    first_below_1e2: Optional[float]
    first_below_1e3: Optional[float]


def run_closed_loop(law: FeedbackLaw, w0: StateField, grid: GridSpec):
    """Run the law's system from w0 under the law over [0, grid.T].  The
    trajectory keeps the initial and the terminal state only."""
    traj = solve_forward(law.spec, w0, law, grid)
    total = np.max(traj.norms_linf, axis=1)
    initial = float(total[0])
    report = StabilizationReport(
        initial_linf=initial,
        terminal_linf=float(total[-1]),
        terminal_rel=float(total[-1] / initial) if initial > 0 else 0.0,
        first_below_1e2=_first_time(traj.times, total, 1e-2 * initial),
        first_below_1e3=_first_time(traj.times, total, 1e-3 * initial),
    )
    return traj, report


def _first_time(times, series, threshold):
    hits = np.nonzero(series <= threshold)[0]
    return float(times[hits[0]]) if hits.size else None


# --------------------------------------------------------------------------- #
# open-loop least-squares control
# --------------------------------------------------------------------------- #

@dataclass
class NullControlResult:
    signal: ControlSignal
    residual: float
    condition: float
    ill_conditioned: bool


def check_null_control(spec: SystemSpec, grid: GridSpec, reg: float, segments: int):
    """Refuse a system or least-squares settings the open-loop solve cannot
    take.  The closure is first called at t = dt, so with as many segments as
    time steps (or more) segment 0 gets no step: its basis response stays
    zero, the condition is inf and the Gram matrix grows as segments^2 for
    nothing."""
    if spec.state_dependent:
        raise ValidationError("open-loop least squares requires state-independent speeds")
    if segments < 1:
        raise ValidationError(f"need at least one control segment, got segments = {segments}")
    if not 0.0 <= reg < np.inf:
        raise ValidationError(f"regularization must be finite and >= 0, got reg = {reg}")
    n_steps, _ = grid.steps(spec.lambda_max)
    if segments >= n_steps:
        raise ValidationError(
            f"need fewer control segments than time steps, got segments = {segments} "
            f"for {n_steps} steps"
        )


def null_control_openloop(
    spec: SystemSpec,
    w0: StateField,
    grid: GridSpec,
    reg: float = 1e-8,
    segments: int = 64,
    target: Optional[StateField] = None,
) -> NullControlResult:
    """Least-norm steering over [0, grid.T] with piecewise-constant controls.

    Each channel is parameterized by ``segments`` piecewise-constant pieces;
    the m*segments basis responses plus the free response assemble the
    terminal-state map, and Tikhonov-regularized normal equations give the
    minimizing coefficients.  The returned residual comes from re-simulating
    with the assembled control, which reproduces the superposition exactly for
    these linear systems.

    The system is time-invariant and a step is a function of the state alone
    at a fixed dt, so a channel's basis columns are built from the last
    segment to the first, one forward run each.  A segment continues, under
    zero control, the terminal state of the nearest later segment whose pulse
    has as many steps, for the steps between their starts, where that gap's
    grid steps by dt itself.  A segment with none starts from zero at its
    first step j0 and runs the steps left; where their grid rounds to a step
    an ulp away from dt, it starts at the latest step before j0 whose grid
    has the step dt itself (step 1 has: the full grid).  So every basis
    column has the bits of a full-horizon run's, whose state stays +0.0 up
    to step j0.
    """
    check_null_control(spec, grid, reg, segments)
    m, T = spec.m, grid.T
    xs = grid.xs
    sqw = np.sqrt(np.tile(grid.weights, spec.n))
    n_steps, dt = grid.steps(spec.lambda_max)
    # the segment of each step's control, and each segment's first step
    seg = np.minimum((np.arange(n_steps + 1) * dt / T * segments).astype(int), segments - 1)
    first = np.searchsorted(seg[1:], np.arange(segments)) + 1
    lengths = np.diff(first, append=n_steps + 1).tolist()  # of each segment's pulse

    def steps_of_dt(count):
        """The grid of ``count`` steps of dt itself, or None."""
        sub = GridSpec(grid.N, grid.cfl, T=count * dt)
        return sub if sub.steps(spec.lambda_max) == (count, dt) else None

    free = solve_forward(spec, w0, zero_control(m), grid)
    free_flat = free.terminal_state().values.ravel() * sqw
    zero_init = StateField(np.zeros_like(w0.values), 0.0, xs)

    # the controls a basis run returns, held once: the solver copies them
    zeros, units, rest = np.zeros(m), np.eye(m), zero_control(m)
    cols = []
    for c in range(m):
        ends = {}  # each segment's terminal state
        for s in reversed(range(segments)):
            for later in range(s + 1, segments):
                if lengths[later] == lengths[s] and (gap := steps_of_dt(first[later] - first[s])):
                    ends[s] = solve_forward(spec, ends[later], rest, gap).terminal_state()
                    break
            else:
                start, tail = first[s], None
                while start > 1 and (tail := steps_of_dt(n_steps - start + 1)) is None:
                    start -= 1

                def basis(t, state, _unit=units[c], _s=s, _shift=start - 1):
                    return _unit if seg[round(t / dt) + _shift] == _s else zeros

                ends[s] = solve_forward(spec, zero_init, basis, tail or grid).terminal_state()
        cols += [ends[s].values.ravel() * sqw for s in range(segments)]
    A = np.column_stack(cols)

    target_flat = (
        np.zeros_like(free_flat) if target is None else target.values.ravel() * sqw
    )
    rhs = target_flat - free_flat
    gram = A.T @ A + reg * np.eye(A.shape[1])
    W = np.linalg.solve(gram, A.T @ rhs).reshape(m, segments)

    sv = np.linalg.svd(A, compute_uv=False)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf

    values = W[:, seg]

    def assembled(t, state):
        return values[:, round(t / dt)]

    final = solve_forward(spec, w0, assembled, grid)
    term_flat = final.terminal_state().values.ravel() * sqw
    err = np.linalg.norm(term_flat - target_flat)
    scale = np.linalg.norm(w0.values.ravel() * sqw)
    if target is not None:
        scale = max(scale, np.linalg.norm(target_flat))
    residual = float(err / scale) if scale > 0 else float(err)

    signal = ControlSignal(times=final.times, values=values)
    return NullControlResult(
        signal=signal,
        residual=residual,
        condition=condition,
        ill_conditioned=bool(condition > 1e12),
    )


# --------------------------------------------------------------------------- #
# optimality witness
# --------------------------------------------------------------------------- #

def _bump(xs: np.ndarray, center: float, halfwidth: float, amplitude: float) -> np.ndarray:
    u = (xs - center) / halfwidth
    out = np.where(np.abs(u) < 1.0, amplitude * np.cos(np.pi * u / 2.0) ** 2, 0.0)
    return out


@dataclass
class Witness:
    w0: StateField
    probe_component: int  # 1-based
    probe_x: float
    expected: float
    bump_component: int
    bump_center: float
    bump_halfwidth: float
    description: str


def optimality_witness(
    spec: SystemSpec,
    grid: GridSpec,
    amplitude: float = 1.0,
) -> Witness:
    """Initial datum plus probe whose value at T = grid.T no control can change.

    Works for zero coupling and state-independent speeds, below the optimal
    time, with all trailing minors up to min{k, m} invertible.  Pair
    candidates place a bump in a positive component so that its reflection at
    x = 0 feeds the probe component before any control can reach the
    boundary; direct candidates place the bump so the probe traces straight
    back to the initial data.  The candidate coming
    from the maximizing term of the optimal time is preferred; otherwise the
    feasible candidate with the widest timing margin wins.
    """
    B, T = spec.B, grid.T
    k, m = spec.k, spec.m
    if not np.isfinite(amplitude):
        raise ValidationError(f"witness amplitude must be finite, got amplitude = {amplitude}")
    if amplitude == 0.0:  # the probe would read only numerical leakage
        raise ValidationError("witness amplitude must be nonzero, got amplitude = 0.0")
    if spec.coupling_bound > 1e-14:
        raise NotApplicable("witness construction requires zero coupling")
    if spec.state_dependent:
        raise NotApplicable("witness construction requires state-independent speeds")
    for i in range(1, min(k, m) + 1):
        if not trailing_minor_invertible(B, i)[0]:
            raise NotApplicable(f"trailing minor of order {i} is singular")
    tau = travel_times(spec)
    topt, arg_kind, arg_index = optimal_time_argmax(tau, k, m)
    if T >= topt:
        raise NotApplicable(f"T = {T} is not below T_opt = {topt:.6g}")

    tables = [cumulative_travel(spec, i) for i in range(spec.n)]

    def t_inv(comp_idx, t):  # comp_idx 0-based
        xs_f, ts_f = tables[comp_idx]
        return float(np.interp(t, ts_f, xs_f))

    # per candidate: (margin, is_argmax, bump component, travel time at the
    # bump's centre, probe component, travel time at the probe, gain, description)
    candidates = []

    pairs = (
        [(i, m + i) for i in range(1, k + 1)]
        if m >= k
        else [(k - m + j, k + j) for j in range(1, m + 1)]
    )
    for a, bcomp in pairs:
        if tau[a - 1] + tau[bcomp - 1] <= T:
            continue
        feed = [q for q in range(1, m + 1) if B[a - 1, q - 1] != 0.0]
        if not feed:
            continue
        tau_min_feed = min(tau[k + q - 1] for q in feed)
        lo = max(0.0, T - tau[a - 1])
        hi = min(T, tau_min_feed)
        if hi - lo <= 1e-9:
            continue
        qstar = bcomp - k if B[a - 1, bcomp - k - 1] != 0.0 else max(
            feed, key=lambda q: tau[k + q - 1]
        )
        t_mid = 0.5 * (lo + hi)
        candidates.append((
            hi - lo, arg_kind == "pair" and arg_index == a, k + qstar, t_mid, a, T - t_mid,
            B[a - 1, qstar - 1],
            f"bump in component {k + qstar} reflects at x=0 into component {a} "
            f"at t={t_mid:.4g}, before any control reaches the boundary",
        ))

    for comp in range(1, spec.n + 1):
        if tau[comp - 1] > T + 1e-9:
            margin = tau[comp - 1] - T
            # in travel time from x = 0: a rightward bump starts at margin/2 and
            # ends at the probe T later; a leftward one starts T + margin/2 and
            # ends T earlier.  Either way t_start +- 0.35 margin stays in (0, tau).
            rightward = comp <= k
            t_start = 0.5 * margin + (0.0 if rightward else T)
            candidates.append((
                margin, arg_kind == "single" and arg_index == comp, comp, t_start, comp,
                t_start + (T if rightward else -T), 1.0,
                f"bump in component {comp} travels for time {T} without meeting "
                f"any controlled boundary",
            ))

    if not candidates:
        raise NotApplicable("no feasible witness candidate for this configuration")
    candidates.sort(key=lambda c: (c[1], c[0]), reverse=True)
    margin, _, bump_comp, t_bump, probe_comp, t_probe, gain, desc = candidates[0]

    # the bump spans +-0.35 margin in its component's travel time, at least 3 cells
    center = t_inv(bump_comp - 1, t_bump)
    width_t = 0.35 * margin
    halfwidth = min(
        abs(center - t_inv(bump_comp - 1, t_bump - width_t)),
        abs(t_inv(bump_comp - 1, t_bump + width_t) - center),
    )
    halfwidth = max(halfwidth, 3.0 * grid.h)
    xs = grid.xs
    vals = np.zeros((spec.n, xs.size))
    vals[bump_comp - 1] = _bump(xs, center, halfwidth, amplitude)
    return Witness(
        w0=StateField(vals, 0.0, xs),
        probe_component=probe_comp,
        probe_x=t_inv(probe_comp - 1, t_probe),
        expected=float(gain * amplitude),
        bump_component=bump_comp,
        bump_center=center,
        bump_halfwidth=halfwidth,
        description=desc,
    )


def verify_witness(
    spec: SystemSpec,
    witness: Witness,
    grid: GridSpec,
    n_controls: int = 100,
    rng: Optional[np.random.Generator] = None,
):
    """Probe deviation at grid.T under random controls (plus the zero control).

    A probe value is linear in the control's 9m knot amplitudes, so one batch of
    1 + 9m runs serves any n_controls: the datum free, the zero datum under each
    unit (channel, knot) hat.  Returns (max relative deviation, probe values).
    """
    if n_controls < 1:
        raise ValidationError(f"need at least one random control, got samples = {n_controls}")
    scale = max(abs(witness.expected), 1e-12)
    draws = (rng or np.random.default_rng(0)).normal(0.0, scale, size=(n_controls, spec.m * 9))
    hats = np.eye(spec.m * 9 + 1, spec.m * 9, -1).reshape(-1, spec.m, 9)
    controls = ControlSignal(times=np.linspace(0.0, grid.T, 9), values=hats)
    inits = np.pad(witness.w0.values[None], ((0, spec.m * 9), (0, 0), (0, 0)))
    runs = solve_forward(spec, inits, controls.as_closure(), grid)
    probes = runs.snapshots[:, -1, witness.probe_component - 1]
    free, *responses = [np.interp(witness.probe_x, grid.xs, row) for row in probes]
    values = np.append(free, free + np.sum(draws * responses, axis=1))
    return float(np.max(np.abs(values - witness.expected) / scale)), values.tolist()


# --------------------------------------------------------------------------- #
# observability
# --------------------------------------------------------------------------- #

@dataclass
class ObservabilityResult:
    estimate: float
    ratios: np.ndarray
    labels: list


def _band_limited_sample(n: int, xs: np.ndarray, rng: np.random.Generator, modes: int = 4):
    vals = np.zeros((n, xs.size))
    for i in range(n):
        for f in range(1, modes + 1):
            vals[i] += rng.normal() * np.cos(f * np.pi * xs) + rng.normal() * np.sin(
                f * np.pi * xs
            )
    return vals


def _l2_total(vals: np.ndarray, xs: np.ndarray):
    """L2 norm over all components of (n, N+1) values, or one per run of a batch."""
    h = xs[1] - xs[0]
    sq = np.sum(vals**2, axis=-2)
    return np.sqrt(h * (np.sum(sq, axis=-1) - 0.5 * (sq[..., 0] + sq[..., -1])))


def verify_observability(
    spec: SystemSpec,
    samples: int,
    grid: GridSpec,
    rng: Optional[np.random.Generator] = None,
) -> ObservabilityResult:
    """Monte Carlo lower-constant estimate for the dual observation inequality.

    Random band-limited terminal data of unit L2 norm are run backward for
    time T = grid.T; the estimate is the minimum of observation energy over
    the norm of v(-T).  Deterministic bump candidates placed farthest from the observed
    boundary are added to the pool: a finite random draw alone cannot expose
    the unobservable data that exist below the optimal time.  Ratios with a
    vanishing denominator count as RATIO_CAP (the constraint is vacuous
    there).  The data run through ``solve_dual`` without a source matrix, so
    the estimate is that of the uncoupled system, whatever C is.
    """
    if samples < 1:
        raise ValidationError(f"need at least one random sample, got samples = {samples}")
    rng = rng or np.random.default_rng(0)
    xs = grid.xs
    n = spec.n
    pool = []
    labels = []
    for s in range(samples):
        vals = _band_limited_sample(n, xs, rng)
        norm = _l2_total(vals, xs)
        if norm > 0:
            vals /= norm
        pool.append(vals)
        labels.append(f"random_{s}")
    for comp in range(1, n + 1):
        vals = np.zeros((n, xs.size))
        center = 0.8 if comp <= spec.k else 0.2
        vals[comp - 1] = _bump(xs, center, 0.15, 1.0)
        norm = _l2_total(vals, xs)
        if norm > 0:
            vals /= norm
        pool.append(vals)
        labels.append(f"bump_component_{comp}")

    dual = solve_dual(spec, None, np.stack(pool), grid)
    num = dual.observation_energy()
    den = _l2_total(dual.snapshots[:, -1], xs) ** 2
    ratios = np.where(den > 1e-14, np.minimum(num / np.maximum(den, 1e-14), RATIO_CAP), RATIO_CAP)
    return ObservabilityResult(
        estimate=float(np.min(ratios)), ratios=ratios, labels=labels
    )
