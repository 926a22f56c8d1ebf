"""Forward and dual solvers plus a characteristic flow tracer.

The forward scheme is explicit first-order upwind: broad solutions may be
discontinuous and monotone upwinding avoids spurious oscillations, at the
price of O(h) diffusion.  Components 1..k propagate rightward (they enter at
x=0 through the reflection), components k+1..k+m leftward (they enter at x=1
through the controls), so the one-sided stencils use the neighbor on the side
the data comes from.

The dual system runs backward in time in conservative form
d_t v = d_x(Sigma v), which absorbs the Sigma' zero-order term exactly and
needs no derivative of the speeds.

The constants of a step are built once per run, not applied to the state on
every step.  A forward step is

    out = dw;  out *= coef;  out[:, i] += (dt C_ij) w[:, j];  out += w

with dw the upwind differences, coef = signed speeds * dt/h per cell and one
multiply-add for each coupling entry C_ij that is nonzero on the grid: by the
scalar dt C_ij where the entry is constant on the grid, which is sorted out
once per run, and by its node values elsewhere.  Then the reflection at
x = 0: one matrix-vector product per run of B with the step's w_+(., 0)
column into its w_-(., 0) column, views bound once per run for each of the
two directions below.

With state-dependent speeds a step is split into 2^d sub-steps of dt/2^d,
d the least that meets the CFL condition.  The signed speeds sit in one
buffer held for the run: the rows of speeds that ignore the state are written
once, the others before each sub-step, each refused (CFLViolation, naming
lambda_i, t and x) unless finite and positive, by the row min and max that
the CFL test reads.  The sub-steps of a split step pass through two buffers
held for the run; the last one writes the step's own state buffer.

A dual step differences the flux (sigma ds/h) v, and its source integral is
one trapezoid-weighted (n (N+1), m) operator op[(j, q), p] = h_q
S_{j,k+p}(x_q), applied to each run's flattened state by its own
matrix-vector product.  Both regroup the
arithmetic of w + dt (lambda dw/h + C w) and of the per-component sums, so
they differ from those by roundoff only.  The terms of the dual's boundary
integral (Sigma_-(0) v_-, its product with -B^T, the source product and their
sum) and its finite check's mask are written into buffers held for the run,
in the order of the boundary relation (see solve_dual), so their bits are
those of fresh arrays.

Both solvers advance a batch of b independent runs in one stepping loop: the
state has shape (b, n, N+1), and a single run is the batch b = 1.  Both run
over [0, grid.T] in the grid.steps(lambda_max) equal steps and read B from
the system; the forward closure is called as closure(t, values).  Each sets
up, records and returns its run through one run record (_Run).

After each forward step (with its reflection, before the finite check and the
boundary closure) every state entry with |w| below the smallest normal double,
np.finfo(float).tiny ~ 2.2e-308, is set to 0.0: flush-to-zero, entry by
entry, so each batch member still equals its single run.  The upwind tail
behind a decay to zero would otherwise shrink into the subnormal range, where
arithmetic takes the slow hardware path.  A linear run with data scaled below
about 1e-290 therefore no longer scales exactly.  Control values are checked
as Python floats (shape and finiteness) and written as the closure returns
them.  A forward step's arithmetic runs with overflow and invalid-operation
warnings off, since a state that is not finite is refused by name; the
boundary closure and the speeds run under the caller's settings.  The dual
solver does not flush.

Each stepping loop has a per-step core, which does only what the next step
or the boundary closure needs, and a per-chunk recorder.  The core steps
between two fixed state buffers, state s in buffer s mod 2; the views a step
reads and writes (the upwind slices, the boundary columns, the coupling rows,
the reflection's input and output, the array the closure receives) are bound
once per run for each of the two directions.  Each step writes its incoming
trace at x = 1 (the forward run's controls, the dual's observation) into its
row of the run record and copies the state there when a snapshot is due.  The
forward core also keeps each step's |w|, the pass the flush takes anyway, in
one of K = min(64, states per 1 MiB) chunk slots, 1 MiB being one core's L2,
so the slots stay in cache while the per-chunk work is spread over as many
steps as fit; after every K steps, and after the last one, the recorder
writes the per-component L2 and Linf norms from them straight into the run's
rows, with the x = 1 column of rows k: replaced by the |controls| just
written.  Entries below the flush threshold enter those norms as zero.  The
dual records no norms.  The state array the closure receives is a view of a
buffer that is overwritten two steps later: copy it to keep it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    BoundaryClosureFailure,
    CFLViolation,
    DimensionMismatch,
    FlowLeftDomain,
    GridSpec,
    NonFiniteState,
    OutOfDomain,
    SingularBoundarySpeed,
    StateField,
    SystemSpec,
    ValidationError,
)

_MAX_SUBSTEP_DOUBLINGS = 12
# smallest normal double: state entries below it in magnitude are flushed to zero
_TINY = np.finfo(float).tiny
# |w| slots per chunk: as many states as fit in this many bytes (1 to 64), one
# core's L2, to stay in cache
_CHUNK_BYTES = 1024 * 1024


def zero_control(m: int) -> Callable:
    zeros = np.zeros(m)  # the solver copies what a closure returns

    def closure(t, state):
        return zeros

    return closure


def _l2(w: np.ndarray, h: float, sq=None, out=None) -> np.ndarray:
    """Trapezoid L2 norm along x; ``sq`` is an optional buffer for w*w (may be
    w), ``out`` one for the norms."""
    sq = np.multiply(w, w, out=sq)
    return np.sqrt(h * (np.add.reduce(sq, axis=-1) - 0.5 * (sq[..., 0] + sq[..., -1])), out=out)


@dataclass
class _Result:
    """The fields of a run that both solvers return; a batch adds a leading axis."""

    grid: GridSpec
    dt: float
    times: np.ndarray
    snapshot_times: np.ndarray
    snapshots: np.ndarray  # (n_snap, n, N+1)

    @property
    def xs(self) -> np.ndarray:
        return self.grid.xs

    def _state(self, idx: int, sign: float = 1.0) -> StateField:
        """Snapshot ``idx`` of a single run, at time sign * its snapshot time;
        a batch holds one state per run, so it is refused by name."""
        if self.snapshots.ndim == 4:
            raise DimensionMismatch(f"a batch of {len(self.snapshots)} runs has no single state: "
                                    f"read snapshots[:, {idx}] for the state of each run")
        return StateField(self.snapshots[idx].copy(), sign * float(self.snapshot_times[idx]),
                          self.xs)


class _Run:
    """What both solvers set up and record of a run from ``state``, a StateField
    or a (b, n, N+1) batch array: the two (b, n, N+1) state buffers, the first
    a working copy of ``state``; the grid's ``n_steps`` steps of ``dt``; the
    incoming trace at x = 1 (rows k:), step s in ``by_step[s]``, a (b, m) view
    of ``inflow``; and the snapshots every ``snapshot_stride`` steps (None:
    the initial and terminal states only), each copied by ``snap`` when its
    step comes."""

    def __init__(self, spec: SystemSpec, state, grid: GridSpec, snapshot_stride, what: str):
        shape = (spec.n, grid.N + 1)
        self.batched = batched = not isinstance(state, StateField)
        w = np.array(state if batched else state.values[None], dtype=float)
        if w.ndim != 3 or w.shape[1:] != shape:
            got = (f"an array of shape {w.shape}" if batched
                   else f"a StateField of shape {w.shape[1:]}")
            raise DimensionMismatch(f"{what} must be a StateField of shape {shape} or a batch "
                                    f"array of shape (b, {', '.join(map(str, shape))}), got {got}")
        n_steps, dt = grid.steps(spec.lambda_max)
        self.grid, self.n_steps, self.dt = grid, n_steps, dt
        stride = n_steps if snapshot_stride is None else int(snapshot_stride)
        if stride < 1:
            raise ValidationError("snapshot stride must be >= 1")
        self.snap_steps = sorted({*range(0, n_steps + 1, stride), n_steps})
        self.bufs = (w, np.empty_like(w))
        self.snapshots = np.empty((w.shape[0], len(self.snap_steps)) + shape)
        self.inflow = np.empty((w.shape[0], n_steps + 1, spec.m))
        self.by_step = self.inflow.swapaxes(0, 1)
        self.snapshots[:, 0], self.by_step[0] = w, w[:, spec.k:, -1]
        self.taken, self.next_snap = 1, self.snap_steps[1]

    def unbatch(self, a: np.ndarray) -> np.ndarray:
        """``a`` of a batch as it is; of a single run, its one member."""
        return a if self.batched else a[0]

    def snap(self, state: np.ndarray):
        """Copy the state of step ``next_snap``."""
        self.snapshots[:, self.taken] = state
        self.taken += 1
        self.next_snap = self.snap_steps[self.taken] if self.taken < len(self.snap_steps) else -1

    def result(self, cls, diagnostics=(), **arrays):
        """The run as a ``cls``: the fields of ``_Result``, ``arrays`` unbatched
        and the diagnostics steps, dt and then ``diagnostics``."""
        return cls(grid=self.grid, dt=self.dt, times=np.arange(self.n_steps + 1) * self.dt,
                   snapshot_times=np.array(self.snap_steps) * self.dt,
                   snapshots=self.unbatch(self.snapshots),
                   diagnostics={"steps": self.n_steps, "dt": self.dt, **dict(diagnostics)},
                   **{name: self.unbatch(a) for name, a in arrays.items()})


@dataclass
class Trajectory(_Result):
    """Time-ordered record of one forward run; a batch adds a leading axis."""

    norms_l2: np.ndarray  # (n_steps+1, n)
    norms_linf: np.ndarray  # (n_steps+1, n)
    controls: np.ndarray = field(default=None, repr=False)  # (n_steps+1, m), inflow at x = 1
    # steps, dt, chunk (steps per chunk of |w| slots), max_substep_doublings
    diagnostics: dict = field(default_factory=dict, repr=False)

    def terminal_state(self) -> StateField:
        return self._state(-1)

    def state_at(self, t: float) -> StateField:
        """Snapshot nearest to t (snapshots may be strided)."""
        return self._state(int(np.argmin(np.abs(self.snapshot_times - t))))


def solve_forward(
    spec: SystemSpec,
    w0: StateField | np.ndarray,
    boundary_at_1: Callable,
    grid: GridSpec,
    snapshot_stride=None,
) -> Trajectory:
    """Run the upwind scheme on [0, grid.T].

    ``boundary_at_1(t, values)`` must return the m incoming values at x = 1
    for time t; it is called once per step with the freshly updated (n, N+1)
    state values (boundary at x = 1 still pending), a view of a buffer the
    solver overwrites two steps later (copy it to keep it).  It must not
    write to those values; it may keep state of its own, such as the
    feedback law's ``last_reads``, since it is called exactly once per step,
    in step order.  The solver copies the values it returns.
    ``snapshot_stride`` keeps the state of every that many steps; None, the
    default, keeps the initial and terminal states only.
    For state-dependent speeds the CFL condition is re-checked every step and
    the step is split in halves until it holds again; a state-dependent speed
    that is not finite and positive on a sub-step's state is refused.

    ``w0`` may instead be an array of shape (b, n, N+1), the initial states of
    b runs that advance together (state-independent speeds only); the closure
    then receives that (b, n, N+1) array and returns shape (b, m).
    """
    n, k = spec.n, spec.k
    xs = grid.xs
    h = grid.h
    run = _Run(spec, w0, grid, snapshot_stride, "initial state")
    if run.batched and spec.state_dependent:
        raise ValidationError("state-dependent speeds allow a single run only")
    w, bufs, by_step, n_steps, dt = run.bufs[0], run.bufs, run.by_step, run.n_steps, run.dt
    b = w.shape[0]
    ctrl_shape = run.unbatch(by_step[0]).shape  # (m,), or (b, m) for a batch
    B = spec.B

    lam_static = None if spec.state_dependent else spec.signed_speeds(xs)
    # the coupling entries that are nonzero somewhere on the grid, as (i, j, C_ij),
    # C_ij a scalar where it is constant on the grid; the (n, n, N+1) values
    # outlive this only through the entries that vary on the grid
    entries = [(i, j, c) for i, row in enumerate(spec.coupling.evaluate(xs))
               for j, c in enumerate(row) if c.any()]
    entries = [(i, j, float(c[0]) if (c == c[0]).all() else c) for i, j, c in entries]

    K = min(64, max(1, _CHUNK_BYTES // w.nbytes))  # steps per chunk of |w| slots
    nl2, nlinf = np.empty((2, b, n_steps + 1, n))
    nl2[:, 0], nlinf[:, 0] = _l2(w, h), np.max(np.abs(w), axis=-1)

    # buffers reused every step: each step's |w| in its chunk slot, one
    # component's coupling term and the flush mask
    absw = np.empty((K,) + w.shape)
    cw = np.empty((b, xs.size)) if entries else None
    small = np.empty(w.shape, dtype=bool)
    doublings = 0

    def coupling_terms(step_dt):
        """dt*C_ij per coupling entry, for a step of length step_dt."""
        return [step_dt * c for _, _, c in entries]

    def bind(src, dst):
        """The step from src into dst, with the views it reads and writes bound:
        advance(coef, dt_coupling) writes dst = src + coef*dw + sum of
        dt*C_ij*src_j, with the reflection at x = 0; dw is formed in dst
        itself, which keeps a step's working set small."""
        right, right_lo, right_out = src[:, :k, 1:], src[:, :k, :-1], dst[:, :k, 1:]
        left, left_lo, left_out = src[:, k:, 1:], src[:, k:, :-1], dst[:, k:, :-1]
        edge_0, edge_1 = dst[:, :k, 0], dst[:, k:, -1]
        pairs = [(src[:, j], dst[:, i]) for i, j, _ in entries]
        reflect_in, reflect_out = dst[:, k:, 0, None], dst[:, :k, :1]

        # a state that overflows is refused below by name, not warned about
        @np.errstate(over="ignore", invalid="ignore")
        def advance(coef, dt_coupling):
            np.subtract(right, right_lo, out=right_out)
            np.subtract(left, left_lo, out=left_out)
            edge_0.fill(0.0)
            edge_1.fill(0.0)
            np.multiply(dst, coef, out=dst)
            for (src_j, dst_i), dtc in zip(pairs, dt_coupling):
                np.multiply(dtc, src_j, out=cw)
                np.add(dst_i, cw, out=dst_i)
            np.add(src, dst, out=dst)
            np.matmul(B, reflect_in, out=reflect_out)

        return advance

    # per direction, indexed by step % 2: the step into that buffer, the
    # buffer, the step's source, the closure's view and the control column
    directions = [
        (bind(src, dst), dst, src, run.unbatch(dst), dst[:, k:, -1])
        for src, dst in ((bufs[1], bufs[0]), (bufs[0], bufs[1]))
    ]

    dt_coupling = coupling_terms(dt)
    if not spec.state_dependent:
        coef = (lam_static * (dt / h))[None]
    else:
        sig = np.empty((n, xs.size))
        coef = np.empty((1, n, xs.size))
        between = np.empty((2,) + w.shape)  # the states inside a split step
        moving, fixed_peak = [], 0.0
        for i, speed in enumerate(spec.speeds):
            sign = -1.0 if i < k else 1.0
            if speed.state_dependent:
                moving.append((i, speed, sign))
            else:
                np.multiply(speed.evaluate(xs), sign, out=sig[i])
                fixed_peak = max(fixed_peak, np.max(np.abs(sig[i])))

        def speeds_at(values, t):
            """Write the state-dependent rows of sig for the state at time t;
            return the largest speed.  Upwinding needs every speed finite
            and positive."""
            peak = fixed_peak
            for i, speed, sign in moving:
                lam = speed.evaluate(xs, values)
                lo, hi = np.minimum.reduce(lam), np.maximum.reduce(lam)
                if not (lo > 0.0 and hi < np.inf):  # NaN fails both
                    # the least speed, or the first NaN; else the first inf
                    bad = int(np.argmin(lam) if not lo > 0.0 else np.argmax(lam))
                    raise CFLViolation(
                        f"lambda_{i + 1} = {lam[bad]:.6g} is not finite and positive "
                        f"at t = {t:.6g}, x = {xs[bad]:.6g}"
                    )
                peak = max(peak, hi)
                np.multiply(lam, sign, out=sig[i])
            return peak

    for lo in range(0, n_steps, K):
        steps = range(lo + 1, min(lo + K, n_steps) + 1)
        for step, absw_s in zip(steps, absw):
            advance, dst, src, values, ctrl_col = directions[step % 2]
            t_new = step * dt
            if not spec.state_dependent:
                advance(coef, dt_coupling)
            else:
                for doubled in range(_MAX_SUBSTEP_DOUBLINGS + 1):
                    parts = 2**doubled
                    sub_dt = dt / parts
                    dtc = dt_coupling if doubled == 0 else coupling_terms(sub_dt)
                    part_src = src
                    for part in range(parts):
                        t_sub = (step - 1) * dt + part * sub_dt
                        if speeds_at(part_src[0], t_sub) * sub_dt / h > 1.0 + 1e-12:
                            break
                        np.multiply(sig, sub_dt / h, out=coef[0])
                        # the last sub-step writes the step's own buffer
                        out = dst if part == parts - 1 else between[part % 2]
                        (advance if parts == 1 else bind(part_src, out))(coef, dtc)
                        part_src = out
                    else:  # every sub-step met the CFL condition
                        break
                else:
                    raise CFLViolation(
                        f"CFL could not be restored by halving at t = {t_new:.6g}"
                    )
                doublings = max(doublings, doubled)
            # one |w| pass serves the flush, the finite check and the chunk's norms
            np.abs(dst, out=absw_s)
            np.less(absw_s, _TINY, out=small)
            np.copyto(dst, 0.0, where=small)
            if not np.maximum.reduce(absw_s, axis=None) < np.inf:  # NaN or inf
                raise NonFiniteState(f"state blew up at t = {t_new:.6g}")
            try:
                ctrl = np.asarray(boundary_at_1(t_new, values), dtype=float)
            except Exception as exc:  # noqa: BLE001 - report as a solver failure
                raise BoundaryClosureFailure(
                    f"boundary closure failed at t={t_new:.6g}: {exc}"
                ) from exc
            # checked as Python floats: faster than numpy reductions on b*m values
            if ctrl.shape != ctrl_shape or not all(map(math.isfinite, ctrl.ravel().tolist())):
                raise BoundaryClosureFailure(
                    f"boundary closure must return finite values of shape {ctrl_shape} "
                    f"at t={t_new:.6g}"
                )
            ctrl_col[...] = ctrl
            by_step[step] = ctrl
            if step == run.next_snap:
                run.snap(dst)
        # the chunk's norms from its |w| slots, taken before the flush: Linf over
        # rows :k and the interiors of rows k:, a max below _TINY read as the
        # flushed 0.0, then the controls at x = 1, never flushed, which also
        # replace that column in the L2 sums; an entry below _TINY squares to
        # +0.0, as its flushed value does
        done = slice(steps.start, steps.stop)
        absc = absw[: len(steps)]
        linf = nlinf[:, done].swapaxes(0, 1)  # (steps, b, n) views of the run's rows
        np.maximum.reduce(absc[..., :k, :], axis=-1, out=linf[..., :k])
        np.maximum.reduce(absc[..., k:, :-1], axis=-1, out=linf[..., k:])
        np.copyto(linf, 0.0, where=linf < _TINY)
        np.maximum(linf[..., k:], np.abs(by_step[done], out=absc[..., k:, -1]), out=linf[..., k:])
        _l2(absc, h, absc, out=nl2[:, done].swapaxes(0, 1))

    return run.result(Trajectory, {"chunk": K, "max_substep_doublings": doublings},
                      norms_l2=nl2, norms_linf=nlinf, controls=run.inflow)


# --------------------------------------------------------------------------- #
# dual (backward) solver
# --------------------------------------------------------------------------- #

@dataclass
class DualTrajectory(_Result):
    """Backward run on [-T, 0], stepped in s = -t from 0 to T (its ``times``,
    ascending); a batch adds a leading axis."""

    observation: np.ndarray  # v_+(-s, 1), shape (n_steps+1, m)
    diagnostics: dict = field(default_factory=dict, repr=False)  # steps, dt

    def terminal_state(self) -> StateField:
        return self._state(-1, sign=-1.0)

    def observation_energy(self):
        """Integral over [-T, 0] of |v_+(t, 1)|^2; an array of b values for a batch."""
        energy = np.trapezoid(np.sum(self.observation**2, axis=-1), self.times, axis=-1)
        return float(energy) if energy.ndim == 0 else energy


def solve_dual(
    spec: SystemSpec,
    S,
    v_at_0: StateField | np.ndarray,
    grid: GridSpec,
    snapshot_stride=None,
) -> DualTrajectory:
    """Integrate the dual system backward from v(0, .) to t = -grid.T.

    It has no coupling term: C enters only through S (from a backstepping
    kernel), so with S = None and C != 0 this is the uncoupled system's dual.

    The boundary conditions are v_-(t, 1) = 0 and the nonlocal relation
    Sigma_+(0) v_+(t, 0) = -B^T Sigma_-(0) v_-(t, 0) + the source-matrix
    integral, evaluated by the trapezoid rule on the current snapshot and then
    divided by the diagonal Sigma_+(0).  The trace v_+(., 1) is recorded as
    the observation.  ``v_at_0`` may instead be an array of shape (b, n, N+1),
    the data of b runs that advance together.  ``snapshot_stride`` is as in
    ``solve_forward``.
    """
    if spec.state_dependent:
        raise ValidationError("dual solver requires state-independent speeds")
    n, k, m = spec.n, spec.k, spec.m
    xs = grid.xs
    h = grid.h
    run = _Run(spec, v_at_0, grid, snapshot_stride, "dual initial state")
    v, bufs, by_step, n_steps, ds = run.bufs[0], run.bufs, run.by_step, run.n_steps, run.dt

    sig = spec.signed_speeds(xs)  # (n, N+1)
    sig_plus_0 = sig[k:, 0]
    sig_minus_0 = sig[:k, 0]
    if np.min(sig_plus_0) < 1e-12:
        raise SingularBoundarySpeed("a positive speed vanishes at x = 0")

    op = None
    if S is not None:
        svals = S.value_nodes(xs)  # (n, n, N+1) including any scale
        if np.max(np.abs(svals[:, :k, :]), initial=0.0) > 1e-10 * max(
            1.0, np.max(np.abs(svals))
        ):
            raise ValidationError("source matrix must have zero first k columns")
        # the trapezoid source integral as one operator on the flattened state:
        # op[(j, q), p] = h_q S_{j, k+p}(x_q)
        op = (svals[:, k:, :] * grid.weights).transpose(0, 2, 1).reshape(n * xs.size, m)

    flux = (sig * (ds / h))[None]
    minus_BT = -spec.B.T

    b = v.shape[0]
    # the flux G is formed in a buffer of its own, its differences in the new
    # state's buffer, which keeps a step's working set small; the boundary
    # integral's terms and the finite check's mask have buffers of their own too
    G = np.empty_like(v)
    scaled = np.empty((b, k, 1))  # Sigma_-(0) v_-(., 0)
    reflected = np.empty((b, m, 1))  # -B^T times that
    sourced = np.empty((b, 1, m))  # the source integral
    scaled_0, reflected_0, sourced_0 = scaled[..., 0], reflected[..., 0], sourced[:, 0]
    # Sigma_+(0) v_+(., 0): without a source matrix, the reflected term alone
    rhs = np.empty((b, m)) if op is not None else reflected_0
    finite = np.empty(v.shape, dtype=bool)

    def bind(src, dst):
        """The step from src into dst, with the views it reads and writes bound."""
        # rows < k move leftward in reversed time: forward flux difference;
        # rows >= k rightward: backward flux difference
        lead, lead_lo, lead_out = G[:, :k, 1:], G[:, :k, :-1], dst[:, :k, :-1]
        trail, trail_lo, trail_out = G[:, k:, 1:], G[:, k:, :-1], dst[:, k:, 1:]
        end_1, plus_0, minus_0 = dst[:, :k, -1], dst[:, k:, 0], dst[:, :k, 0]
        flat = dst.reshape(b, 1, -1)

        def advance():
            np.multiply(flux, src, out=G)
            np.subtract(lead, lead_lo, out=lead_out)
            np.subtract(trail, trail_lo, out=trail_out)
            end_1.fill(0.0)  # no difference reaches these two columns;
            plus_0.fill(0.0)  # v_+(., 0) becomes src's: a placeholder for the integral
            np.subtract(src, dst, out=dst)
            end_1.fill(0.0)
            # one matrix-vector product per run, so each run rounds as if alone
            np.multiply(sig_minus_0, minus_0, out=scaled_0)
            np.matmul(minus_BT, scaled, out=reflected)
            if op is not None:
                np.matmul(flat, op, out=sourced)
                np.add(reflected_0, sourced_0, out=rhs)
            np.divide(rhs, sig_plus_0, out=plus_0)

        return advance

    # per direction, indexed by step % 2: the step into that buffer, the
    # buffer and its observation column
    directions = [
        (bind(src, dst), dst, dst[:, k:, -1])
        for src, dst in ((bufs[1], bufs[0]), (bufs[0], bufs[1]))
    ]
    for step in range(1, n_steps + 1):
        advance, dst, observed = directions[step % 2]
        advance()
        if not np.logical_and.reduce(np.isfinite(dst, out=finite), axis=None):
            raise NonFiniteState(f"dual state blew up at t = {-step * ds:.6g}")
        by_step[step] = observed
        if step == run.next_snap:
            run.snap(dst)
    return run.result(DualTrajectory, observation=run.inflow)

# --------------------------------------------------------------------------- #
# characteristic flow
# --------------------------------------------------------------------------- #

@dataclass
class FlowResult:
    position: float
    exited: bool = False
    exit_time: Optional[float] = None
    exit_side: Optional[float] = None


def characteristic_flow(
    spec: SystemSpec,
    j: int,
    s: float,
    xi: float,
    t: float,
    state=None,
    step: Optional[float] = None,
    clip: bool = True,
) -> FlowResult:
    """Position at time t of the component-j characteristic through (s, xi).

    dx/dt = +lambda_j for j <= k, -lambda_j for j > k; classical 4-stage
    Runge-Kutta, fixed step.  For state-dependent speeds, ``state`` is a
    callable (time, x) -> state vector that supplies w(t, x).
    """
    if not (1 <= j <= spec.n):
        raise DimensionMismatch(f"component index {j} outside 1..{spec.n}")
    if not (0.0 <= xi <= 1.0):
        raise OutOfDomain(f"start position {xi} outside [0, 1]")
    sgn = 1.0 if j <= spec.k else -1.0
    speed = spec.speeds[j - 1]

    if spec.state_dependent:
        if state is None:
            raise OutOfDomain("state-dependent speeds need a state accessor")

        def vel(time, x):
            return sgn * float(speed.evaluate(np.asarray([x]), state(time, x))[0])

    else:

        def vel(time, x):
            return sgn * float(speed.evaluate(np.asarray([x]))[0])

    span = t - s
    if span == 0.0:
        return FlowResult(position=xi)
    if step is None:
        step = 1.0 / (512.0 * spec.lambda_max)
    n_sub = max(1, int(np.ceil(abs(span) / step)))
    dt = span / n_sub

    x = float(xi)
    time = s
    for _ in range(n_sub):
        k1 = vel(time, x)
        k2 = vel(time + dt / 2, np.clip(x + dt / 2 * k1, 0.0, 1.0))
        k3 = vel(time + dt / 2, np.clip(x + dt / 2 * k2, 0.0, 1.0))
        k4 = vel(time + dt, np.clip(x + dt * k3, 0.0, 1.0))
        x_next = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if x_next < 0.0 or x_next > 1.0:
            side = 0.0 if x_next < 0.0 else 1.0
            theta = (side - x) / (x_next - x)
            exit_time = time + theta * dt
            if not clip:
                raise FlowLeftDomain(
                    f"flow of component {j} left the domain through x={side:g} "
                    f"at t = {exit_time:.6g}"
                )
            return FlowResult(position=side, exited=True, exit_time=exit_time, exit_side=side)
        x = x_next
        time += dt
    return FlowResult(position=float(np.clip(x, 0.0, 1.0)))
