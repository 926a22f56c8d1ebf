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
x = 0, which ReflectionMatrix.apply writes in place into out (without a
hook, its matrix-vector products are formed there).

With state-dependent speeds a step is split into 2^d sub-steps of dt/2^d,
d the least that meets the CFL condition.  The signed speeds sit in one
buffer held for the run: the rows of speeds that ignore the state are written
once, the others before each sub-step, each refused (CFLViolation, naming
lambda_i, t and x) unless finite and positive, by the row min and max that
the CFL test reads.  The last sub-step writes the step's chunk slot.

A dual step differences the flux (sigma ds/h) v, and its source integral is
one trapezoid-weighted (n (N+1), m) operator op[(j, q), p] = h_q
S_{j,k+p}(x_q), applied to each run's flattened state by its own
matrix-vector product.  Both regroup the
arithmetic of w + dt (lambda dw/h + C w) and of the per-component sums, so
they differ from those by roundoff only.

Both solvers advance a batch of b independent runs in one stepping loop: the
state has shape (b, n, N+1), and a single run is the batch b = 1.  Both run
over [0, grid.T] in the grid.steps(lambda_max) equal steps and read B from
the system; the forward closure is called as closure(t, values).

After each forward step (with its reflection, before the finite check and the
boundary closure) every state entry with |w| below the smallest normal double,
np.finfo(float).tiny ~ 2.2e-308, is set to 0.0: flush-to-zero, entry by
entry, so each batch member still equals its single run.  The upwind tail
behind a decay to zero would otherwise shrink into the subnormal range, where
arithmetic takes the slow hardware path.  A linear run with data scaled below
about 1e-290 therefore no longer scales exactly.  Control values are checked
as Python floats (shape, finiteness, and whether all are zero for the rest
test below, where -0.0 counts as zero) and written as the closure returns
them.  A forward step's arithmetic runs with overflow and invalid-operation
warnings off, since a state that is not finite is refused by name; the
boundary closure and the speeds run under the caller's settings.  The dual
solver does not flush.

Each stepping loop has a per-step core, which does only what the next step
or the boundary closure needs, and a per-chunk recorder.  The core writes each
new state into the next slot of one of two alternating chunk buffers of
K = min(64, states per 256 KiB) states; after every K steps, and after the
last one, the recorder fills the incoming trace at x = 1 (the forward run's
controls, the dual's observation) and the strided snapshots from the whole
chunk at once.  The forward solver also fills its per-component L2 and Linf
norms there, from the |chunk| pass it makes anyway; the dual records no
norms.  The state array the closure receives is a view of a slot that is
overwritten 2K steps later: copy it to keep it.

A forward run is at rest when its whole batch state is exactly zero: at the
start, or after a step whose flushed result is all zero and whose controls,
just written, are all zero.  The next step of a run at rest fills its slot
with 0.0 and skips the update and the flush; the closure is still called and
its controls checked as in any step.  This is exact: the update is linear in
the state, so with finite speeds and coupling it gives +-0.0 in every cell,
which the flush makes +0.0.  It holds only for state-independent speeds and
coupling that are finite on the grid and a reflection without a hook, which
may map 0 to up to 1e-12.  The test reads the step's |w| pass, taken before
the new controls overwrite the old ones, so it may miss a rest (previous
controls of about 1e-308) but never skips a step that would not give zero.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
# states per chunk: as many as fit in this many bytes (1 to 64), to stay in cache
_CHUNK_BYTES = 256 * 1024


def zero_control(m: int) -> Callable:
    def closure(t, state):
        return np.zeros(m)

    return closure


def _l2(w: np.ndarray, h: float, sq=None) -> np.ndarray:
    """Trapezoid L2 norm along x; ``sq`` is an optional buffer for w*w (may be w)."""
    sq = np.multiply(w, w, out=sq)
    return np.sqrt(h * (np.add.reduce(sq, axis=-1) - 0.5 * (sq[..., 0] + sq[..., -1])))


def _as_batch(state, shape: tuple, what: str):
    """Working copy of shape (b, n, N+1) from a StateField (b = 1) or a batch array."""
    batched = not isinstance(state, StateField)
    w = np.array(state if batched else state.values[None], dtype=float)
    if w.ndim != 3 or w.shape[1:] != shape:
        got = f"an array of shape {w.shape}" if batched else f"a StateField of shape {w.shape[1:]}"
        raise DimensionMismatch(f"{what} must be a StateField of shape {shape} or a batch "
                                f"array of shape (b, {', '.join(map(str, shape))}), got {got}")
    return w, batched


@dataclass
class Trajectory:
    """Time-ordered record of one forward run; a batch adds a leading axis."""

    grid: GridSpec
    dt: float
    times: np.ndarray
    snapshot_times: np.ndarray
    snapshots: np.ndarray  # (n_snap, n, N+1)
    norms_l2: np.ndarray  # (n_steps+1, n)
    norms_linf: np.ndarray  # (n_steps+1, n)
    controls: np.ndarray = field(default=None, repr=False)  # (n_steps+1, m), inflow at x = 1
    # steps, dt, chunk (states per chunk buffer), max_substep_doublings, rest_steps
    diagnostics: dict = field(default_factory=dict, repr=False)

    @property
    def xs(self) -> np.ndarray:
        return self.grid.xs

    def terminal_state(self) -> StateField:
        return StateField(self.snapshots[-1].copy(), float(self.snapshot_times[-1]), self.xs)

    def state_at(self, t: float) -> StateField:
        """Snapshot nearest to t (snapshots may be strided)."""
        idx = int(np.argmin(np.abs(self.snapshot_times - t)))
        return StateField(self.snapshots[idx].copy(), float(self.snapshot_times[idx]), self.xs)


def _resolve_stride(n_steps: int, snapshot_stride) -> int:
    if snapshot_stride is None:
        return max(1, int(np.ceil((n_steps + 1) / 512)))
    stride = int(snapshot_stride)
    if stride < 1:
        raise ValidationError("snapshot stride must be >= 1")
    return stride


class _Recorder:
    """The states of a run, K per chunk in two alternating chunk buffers, and
    what both solvers record from a chunk: the incoming trace at x = 1 (rows
    k:) and the strided snapshots.  ``scratch`` has a slot per chunk slot:
    work space of the step that fills that slot, then of the chunk's records."""

    def __init__(self, w: np.ndarray, k: int, n_steps: int, snapshot_stride, dt: float):
        self.K = min(64, max(1, _CHUNK_BYTES // w.nbytes))
        self.bufs = [np.empty((self.K,) + w.shape) for _ in range(2)]
        self.scratch = np.empty((self.K,) + w.shape)
        stride = _resolve_stride(n_steps, snapshot_stride)
        self.snap_steps = sorted({*range(0, n_steps + 1, stride), n_steps})
        self.snapshots = np.empty((w.shape[0], len(self.snap_steps)) + w.shape[1:])
        self.inflow = np.empty((w.shape[0], n_steps + 1, w.shape[1] - k))
        self.snapshots[:, 0], self.inflow[:, 0] = w, w[:, k:, -1]
        self.k, self.n_steps = k, n_steps
        self.diagnostics = {"steps": n_steps, "dt": dt, "chunk": self.K}

    def chunks(self):
        """(steps, chunk) per chunk; the chunk is the (len(steps), b, n, N+1) view to fill."""
        for lo in range(0, self.n_steps, self.K):
            steps = range(lo + 1, min(lo + self.K, self.n_steps) + 1)
            yield steps, self.bufs[lo // self.K % 2][: len(steps)]

    def record(self, steps: range, chunk: np.ndarray):
        """Records of a filled chunk."""
        self.inflow[:, steps.start : steps.stop] = chunk[:, :, self.k :, -1].swapaxes(0, 1)
        i, j = bisect_left(self.snap_steps, steps.start), bisect_left(self.snap_steps, steps.stop)
        if i < j:  # most chunks of a strided run hold no snapshot
            slots = np.subtract(self.snap_steps[i:j], steps.start)
            self.snapshots[:, i:j] = chunk[slots].swapaxes(0, 1)


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
    solver reuses (copy it to keep it), and must be side-effect free.
    For state-dependent speeds the CFL condition is re-checked every step and
    the step is split in halves until it holds again; a state-dependent speed
    that is not finite and positive on a sub-step's state is refused.

    While the run is at rest (all state zero, the controls just written all
    zero; state-independent speeds, finite speeds and coupling, no reflection
    hook) a step writes 0.0 without the update: the result is the same bits.
    ``diagnostics["rest_steps"]`` counts these steps.

    ``w0`` may instead be an array of shape (b, n, N+1), the initial states of
    b runs that advance together (state-independent speeds only); the closure
    then receives that (b, n, N+1) array and returns shape (b, m).
    """
    n, k = spec.n, spec.k
    xs = grid.xs
    h = grid.h
    w, batched = _as_batch(w0, (n, xs.size), "initial state")
    if batched and spec.state_dependent:
        raise ValidationError("state-dependent speeds allow a single run only")
    b = w.shape[0]
    ctrl_shape = (b, spec.m) if batched else (spec.m,)
    n_steps, dt = grid.steps(spec.lambda_max)

    cvals = None if spec.coupling.is_zero else spec.coupling.evaluate(xs)
    lam_static = None if spec.state_dependent else spec.signed_speeds(xs)
    # the coupling entries that are nonzero somewhere on the grid, as (i, j, C_ij),
    # C_ij a scalar where it is constant on the grid
    entries = [] if cvals is None else [
        (i, j, cvals[i, j]) for i in range(n) for j in range(n) if cvals[i, j].any()
    ]
    entries = [(i, j, float(c[0]) if (c == c[0]).all() else c) for i, j, c in entries]

    rec = _Recorder(w, k, n_steps, snapshot_stride, dt)
    nl2, nlinf = np.empty((2, b, n_steps + 1, n))
    nl2[:, 0], nlinf[:, 0] = _l2(w, h), np.max(np.abs(w), axis=-1)

    # buffers reused every step: one component's coupling term and the flush mask
    cw = np.empty((b, xs.size)) if entries else None
    small = np.empty(w.shape, dtype=bool)
    doublings = 0
    # at rest, a step maps the zero state to +-0.0, which the flush makes +0.0:
    # see the module docstring
    can_rest = (
        lam_static is not None
        and spec.reflection.hook is None
        and np.isfinite(lam_static).all()
        and (cvals is None or np.isfinite(cvals).all())
    )
    at_rest = can_rest and not w.any()
    rest_steps = 0

    def coupling_terms(step_dt):
        """(i, j, dt*C_ij) per coupling entry, for a step of length step_dt."""
        return [(i, j, step_dt * c) for i, j, c in entries]

    # a state that overflows is refused below by name, not warned about
    @np.errstate(over="ignore", invalid="ignore")
    def substep(w, coef, dt_coupling, out):
        """out = w + coef*dw + sum of dt*C_ij*w_j, with the reflection at x = 0;
        dw is formed in out itself, which keeps a step's working set small."""
        np.subtract(w[:, :k, 1:], w[:, :k, :-1], out=out[:, :k, 1:])
        np.subtract(w[:, k:, 1:], w[:, k:, :-1], out=out[:, k:, :-1])
        out[:, :k, 0] = 0.0
        out[:, k:, -1] = 0.0
        np.multiply(out, coef, out=out)
        for i, j, dtc in dt_coupling:
            np.multiply(dtc, w[:, j], out=cw)
            np.add(out[:, i], cw, out=out[:, i])
        np.add(w, out, out=out)
        spec.reflection.apply(out[:, k:, 0], out=out[:, :k, :1])
        return out

    dt_coupling = coupling_terms(dt)
    if not spec.state_dependent:
        static = (lam_static * (dt / h), dt_coupling)
    else:
        sig, coef = np.empty((2, n, xs.size))
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

    unbatch = (lambda a: a) if batched else (lambda a: a[0])

    for steps, chunk in rec.chunks():
        for step, w_new, absw in zip(steps, chunk, rec.scratch):
            t_new = step * dt
            if at_rest:
                w_new.fill(0.0)
                rest_steps += 1
                peak = 0.0
            else:
                if spec.state_dependent:
                    for doubled in range(_MAX_SUBSTEP_DOUBLINGS + 1):
                        parts = 2**doubled
                        sub_dt = dt / parts
                        dtc = dt_coupling if doubled == 0 else coupling_terms(sub_dt)
                        wtry = w
                        for part in range(parts):
                            t_sub = (step - 1) * dt + part * sub_dt
                            if speeds_at(wtry[0], t_sub) * sub_dt / h > 1.0 + 1e-12:
                                break
                            np.multiply(sig, sub_dt / h, out=coef)
                            # the last sub-step writes the step's own slot
                            out = w_new if part == parts - 1 else between[part % 2]
                            wtry = substep(wtry, coef, dtc, out)
                        else:  # every sub-step met the CFL condition
                            break
                    else:
                        raise CFLViolation(
                            f"CFL could not be restored by halving at t = {t_new:.6g}"
                        )
                    doublings = max(doublings, doubled)
                else:
                    substep(w, *static, w_new)
                # one |w| pass serves the flush, the finite check and the rest test
                np.abs(w_new, out=absw)
                np.less(absw, _TINY, out=small)
                np.copyto(w_new, 0.0, where=small)
                peak = absw.max()
                if not peak < np.inf:  # NaN or inf
                    raise NonFiniteState(f"state blew up at t = {t_new:.6g}")
            try:
                ctrl = np.asarray(boundary_at_1(t_new, unbatch(w_new)), dtype=float)
            except Exception as exc:  # noqa: BLE001 - report as a solver failure
                raise BoundaryClosureFailure(
                    f"boundary closure failed at t={t_new:.6g}: {exc}"
                ) from exc
            # checked as Python floats: faster than numpy reductions on b*m values
            vals = ctrl.ravel().tolist()
            if ctrl.shape != ctrl_shape or not all(map(math.isfinite, vals)):
                raise BoundaryClosureFailure(
                    f"boundary closure must return finite values of shape {ctrl_shape} "
                    f"at t={t_new:.6g}"
                )
            w_new[:, k:, -1] = ctrl
            at_rest = can_rest and peak < _TINY and not any(vals)
            w = w_new
        rows = slice(steps.start, steps.stop)
        absc = np.abs(chunk, out=rec.scratch[: len(steps)])
        nlinf[:, rows] = absc.max(axis=-1).swapaxes(0, 1)
        nl2[:, rows] = _l2(absc, h, absc).swapaxes(0, 1)
        rec.record(steps, chunk)

    return Trajectory(
        grid=grid,
        dt=dt,
        times=np.arange(n_steps + 1) * dt,
        snapshot_times=np.array(rec.snap_steps) * dt,
        snapshots=unbatch(rec.snapshots),
        norms_l2=unbatch(nl2),
        norms_linf=unbatch(nlinf),
        controls=unbatch(rec.inflow),
        diagnostics={
            **rec.diagnostics, "max_substep_doublings": doublings, "rest_steps": rest_steps
        },
    )


# --------------------------------------------------------------------------- #
# dual (backward) solver
# --------------------------------------------------------------------------- #

@dataclass
class DualTrajectory:
    """Backward run on [-T, 0], stepped in s = -t from 0 to T; a batch adds a leading axis."""

    grid: GridSpec
    dt: float
    times: np.ndarray  # the s values, ascending from 0 to T; t = -s
    snapshot_times: np.ndarray
    snapshots: np.ndarray
    observation: np.ndarray  # v_+(-s, 1), shape (n_steps+1, m)
    diagnostics: dict = field(default_factory=dict, repr=False)  # steps, dt, chunk

    @property
    def xs(self) -> np.ndarray:
        return self.grid.xs

    def terminal_state(self) -> StateField:
        return StateField(self.snapshots[-1].copy(), -float(self.snapshot_times[-1]), self.xs)

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
    the data of b runs that advance together.
    """
    if spec.state_dependent:
        raise ValidationError("dual solver requires state-independent speeds")
    n, k, m, B = spec.n, spec.k, spec.m, spec.B
    xs = grid.xs
    h = grid.h
    v, batched = _as_batch(v_at_0, (n, xs.size), "dual initial state")

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

    n_steps, ds = grid.steps(spec.lambda_max)
    flux = sig * (ds / h)

    rec = _Recorder(v, k, n_steps, snapshot_stride, ds)
    b = v.shape[0]

    for steps, chunk in rec.chunks():
        # the flux G and its differences are formed in the scratch slot and the
        # new state's slot, which keeps a step's working set small
        for step, v_new, G in zip(steps, chunk, rec.scratch):
            np.multiply(flux, v, out=G)
            # rows < k move leftward in reversed time: forward flux difference
            np.subtract(G[:, :k, 1:], G[:, :k, :-1], out=v_new[:, :k, :-1])
            # rows >= k move rightward in reversed time: backward flux difference
            np.subtract(G[:, k:, 1:], G[:, k:, :-1], out=v_new[:, k:, 1:])
            v_new[:, :k, -1] = v_new[:, k:, 0] = 0.0  # no difference reaches these
            # v_new[:, k:, 0] becomes v[:, k:, 0]: a placeholder for the integral endpoint
            np.subtract(v, v_new, out=v_new)
            v_new[:, :k, -1] = 0.0
            # one matrix-vector product per run, so each run rounds as if alone
            rhs = (-B.T @ (sig_minus_0 * v_new[:, :k, 0])[..., None])[..., 0]
            if op is not None:
                rhs = rhs + (v_new.reshape(b, 1, -1) @ op)[:, 0]
            v_new[:, k:, 0] = rhs / sig_plus_0
            if not np.all(np.isfinite(v_new)):
                raise NonFiniteState(f"dual state blew up at t = {-step * ds:.6g}")
            v = v_new
        rec.record(steps, chunk)

    unbatch = (lambda a: a) if batched else (lambda a: a[0])
    return DualTrajectory(
        grid=grid,
        dt=ds,
        times=np.arange(n_steps + 1) * ds,
        snapshot_times=np.array(rec.snap_steps) * ds,
        snapshots=unbatch(rec.snapshots),
        observation=unbatch(rec.inflow),
        diagnostics=rec.diagnostics,
    )


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
