"""Domain types, validation and evaluation primitives.

The state w(t, x) has n = k + m components on x in [0, 1].  The first k
components carry negative diagonal speeds -lambda_1(x) < ... < -lambda_k(x) < 0
and travel rightward (their characteristics satisfy dx/dt = +lambda_i); the
last m components carry positive speeds 0 < lambda_{k+1}(x) < ... <
lambda_{k+m}(x) and travel leftward.  Reflection happens at x = 0 through a
constant k-by-m matrix B, controls act at x = 1 on the last m components.

A system is built by ``build_system`` alone.  The frozen SystemSpec it returns
holds ``speeds`` (a tuple of n Speed), ``coupling`` (a CouplingField),
``B`` (the float k-by-m reflection matrix), k, m, n, ``lambda_max``,
``coupling_bound`` and ``state_dependent``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expressions import Expr, ExpressionError, parse_expression, state_variable_names


# --------------------------------------------------------------------------- #
# errors
# --------------------------------------------------------------------------- #

class HypctrlError(Exception):
    """Base class for all library errors."""


class ValidationError(HypctrlError):
    """Bad input data or configuration (CLI exit code 2)."""


class NumericalError(HypctrlError):
    """A numerical procedure failed (CLI exit code 3)."""


class DimensionMismatch(ValidationError):
    pass


class OrderingViolated(ValidationError):
    pass


class NonFiniteEntry(ValidationError):
    pass


class OutOfDomain(ValidationError):
    pass


class GridMismatch(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class NotInClassB(ValidationError):
    pass


class NotApplicable(ValidationError):
    pass


class TimeTooShort(ValidationError):
    pass


class ConfigError(ValidationError):
    pass


class CFLViolation(NumericalError):
    pass


class NonFiniteState(NumericalError):
    pass


class BoundaryClosureFailure(NumericalError):
    pass


class SingularBoundarySpeed(NumericalError):
    pass


class DiagonalCouplingPresent(ValidationError):
    pass


class FixedPointDivergence(NumericalError):
    pass


class MaxItersExceeded(NumericalError):
    pass


class FlowLeftDomain(NumericalError):
    pass


# --------------------------------------------------------------------------- #
# speeds
# --------------------------------------------------------------------------- #

class Speed:
    """One positive characteristic speed lambda_i, possibly state-dependent."""

    state_dependent = False

    def evaluate(self, x, state=None):
        raise NotImplementedError


class ConstantSpeed(Speed):
    def __init__(self, value: float):
        self.value = float(value)

    def evaluate(self, x, state=None):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, self.value, dtype=float)

    def __repr__(self):
        return f"ConstantSpeed({self.value})"


class ExpressionSpeed(Speed):
    """Closed-form speed, expression in x and optionally w1..wn."""

    def __init__(self, expr: Expr, n_state: int = 0):
        self.expr = expr
        self.n_state = n_state
        self.state_dependent = any(name.startswith("w") for name in expr.names)

    def evaluate(self, x, state=None):
        """lambda at x, shape of x.  The result may be read-only or share
        memory with x or the state: copy it to keep or change it."""
        x = np.asarray(x, dtype=float)
        bindings = {"x": x}
        if self.state_dependent:
            if state is None:
                raise OutOfDomain(
                    f"speed {self.expr.source!r} is state-dependent; a state vector is required"
                )
            state = np.asarray(state, dtype=float)
            for i in range(self.n_state):
                name = f"w{i + 1}"
                if name in self.expr.names:
                    bindings[name] = state[i]
        out = np.asarray(self.expr(**bindings), dtype=float)
        return out if out.shape == x.shape else np.broadcast_to(out, x.shape)

    def __repr__(self):
        return f"ExpressionSpeed({self.expr.source!r})"


class SampledSpeed(Speed):
    """Speed given by samples on a reference grid, piecewise-linear in between."""

    def __init__(self, xs: Sequence[float], values: Sequence[float]):
        self.xs = np.asarray(xs, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.xs.ndim != 1 or self.xs.shape != self.values.shape:
            raise DimensionMismatch("sampled speed needs matching 1-D grids and values")
        if np.any(np.diff(self.xs) <= 0):
            raise ValidationError("sample positions must be strictly increasing")
        if self.xs[0] > 0.0 or self.xs[-1] < 1.0:
            raise ValidationError("sample positions must cover [0, 1]")

    def evaluate(self, x, state=None):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.xs, self.values)

    def __repr__(self):
        return f"SampledSpeed({len(self.xs)} samples)"


def as_speed(value, n_state: int = 0) -> Speed:
    """Coerce a float, expression string, (xs, values) pair or Speed."""
    if isinstance(value, Speed):
        return value
    if isinstance(value, (int, float)):
        return ConstantSpeed(value)
    if isinstance(value, str):
        names = ("x",) + state_variable_names(n_state)
        return ExpressionSpeed(parse_expression(value, names), n_state)
    if isinstance(value, tuple) and len(value) == 2:
        return SampledSpeed(*value)
    raise ValidationError(f"cannot interpret {value!r} as a speed")


# --------------------------------------------------------------------------- #
# coupling
# --------------------------------------------------------------------------- #

class CouplingField:
    """The n-by-n zero-order coupling C(x), scaled by gamma.

    Three representations: a constant matrix, a matrix of closed-form entries,
    or samples on a grid with piecewise-constant interpolation (C only needs
    to be bounded measurable).
    """

    def __init__(self, n: int, constant=None, entries=None, samples=None, gamma: float = 1.0):
        self.n = n
        self.gamma = float(gamma)
        self._constant = None
        self._entries = None
        self._samples = None
        if constant is not None:
            mat = np.asarray(constant, dtype=float)
            if mat.shape != (n, n):
                raise DimensionMismatch(f"coupling matrix must be {n}x{n}, got {mat.shape}")
            self._constant = mat
        elif entries is not None:
            grid = [[None] * n for _ in range(n)]
            for (i, j), src in entries.items():
                if not (0 <= i < n and 0 <= j < n):
                    raise DimensionMismatch(f"coupling entry index {(i, j)} out of range")
                grid[i][j] = parse_expression(src, ("x",)) if isinstance(src, str) else float(src)
            self._entries = grid
        elif samples is not None:
            xs, mats = samples
            xs = np.asarray(xs, dtype=float)
            mats = np.asarray(mats, dtype=float)
            if mats.shape != (xs.size, n, n):
                raise DimensionMismatch("coupling samples must have shape (S, n, n)")
            self._samples = (xs, mats)
        else:
            self._constant = np.zeros((n, n))

    def with_gamma(self, gamma: float) -> "CouplingField":
        out = copy.copy(self)
        out.gamma = float(gamma)
        return out

    def entry_is_zero(self, i: int, j: int) -> bool:
        """Whether gamma * C[i, j] is zero everywhere, read exactly off the
        representation: an expression entry never counts as zero."""
        if self.gamma == 0.0:
            return True
        if self._entries is not None:
            return self._entries[i][j] in (None, 0.0)
        return not np.any((self._constant if self._samples is None else self._samples[1])[..., i, j])

    def evaluate(self, x) -> np.ndarray:
        """gamma * C at positions x, shape (n, n, len(x))."""
        return np.stack([self.column(x, j) for j in range(self.n)], axis=1)

    def column(self, x, j: int) -> np.ndarray:
        """gamma * C[:, j] at positions x, shape (n, len(x)), without building
        the other n - 1 columns."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self._constant is not None:
            out = np.repeat(self._constant[:, j, None], x.size, axis=1)
        elif self._entries is not None:
            out = np.zeros((self.n, x.size))
            for i in range(self.n):
                e = self._entries[i][j]
                if isinstance(e, float):
                    out[i] = e
                elif e is not None:
                    out[i] = np.broadcast_to(np.asarray(e(x=x), dtype=float), x.shape)
        else:
            xs, mats = self._samples
            idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 1)
            out = mats[:, :, j].T[:, idx]
        out *= self.gamma
        return out


# --------------------------------------------------------------------------- #
# grids, states, controls
# --------------------------------------------------------------------------- #

@dataclass
class GridSpec:
    """Uniform spatial grid on [0, 1] plus CFL number and time horizon."""

    N: int
    cfl: float = 0.9
    T: float = 1.0

    def __post_init__(self):
        if self.N < 8:
            raise ValidationError("need at least N = 8 cells")
        if not (0.0 < self.cfl <= 1.0):
            raise ValidationError("CFL number must lie in (0, 1]")
        if not (0.0 < self.T < np.inf):
            raise ValidationError(f"time horizon must be finite and positive, got T = {self.T}")

    @property
    def h(self) -> float:
        return 1.0 / self.N

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.N + 1)

    def dt_for(self, lambda_max: float) -> float:
        return self.cfl * self.h / lambda_max

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid weights of the nodes xs: h inside, h/2 at both ends."""
        w = np.full(self.N + 1, self.h)
        w[[0, -1]] = 0.5 * self.h
        return w

    def steps(self, lambda_max: float) -> tuple[int, float]:
        """(n_steps, dt): the fewest equal steps over [0, T] no longer than
        ``dt_for(lambda_max)``, the step rule of both solvers."""
        n_steps = max(1, int(np.ceil(self.T / self.dt_for(lambda_max) - 1e-12)))
        return n_steps, self.T / n_steps


@dataclass
class StateField:
    """State samples w(t, x_q) at the grid nodes; values has shape (n, N+1)."""

    values: np.ndarray
    t: float
    xs: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.xs = np.asarray(self.xs, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != self.xs.size:
            raise DimensionMismatch("state values must have shape (n, len(xs))")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteEntry("state field contains non-finite entries")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def state_from_exprs(exprs: Sequence, grid: GridSpec, n: int) -> StateField:
    """Build a StateField from per-component expressions in x (or callables)."""
    xs = grid.xs
    vals = np.zeros((n, xs.size))
    for i, e in enumerate(exprs):
        if e is None:
            continue
        if callable(e):
            vals[i] = np.asarray(e(xs), dtype=float)
        elif isinstance(e, str):
            expr = parse_expression(e, ("x",))
            vals[i] = np.broadcast_to(np.asarray(expr(x=xs), dtype=float), xs.shape)
        else:
            vals[i] = float(e)
    return StateField(vals, 0.0, xs)


@dataclass
class ControlSignal:
    """m boundary control samples on [0, T], piecewise-linear in time."""

    times: np.ndarray
    values: np.ndarray  # shape (m, len(times)), or (b, m, len(times)) for b runs

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if np.any(np.diff(self.times) <= 0):
            raise ValidationError("control sample times must be strictly increasing")
        if self.values.shape[-1] != self.times.size:
            raise DimensionMismatch("control values must have shape (m, len(times))")

    @property
    def m(self) -> int:
        return self.values.shape[-2]

    def __call__(self, t: float) -> np.ndarray:
        """Values at t; per row the same arithmetic as np.interp, bit for bit."""
        ts, vs = self.times, self.values
        j = int(np.searchsorted(ts, t, side="right")) - 1
        if j < 0 or j == ts.size - 1 or ts[j] == t:
            return vs[..., max(j, 0)].copy()
        slope = (vs[..., j + 1] - vs[..., j]) / (ts[j + 1] - ts[j])
        return slope * (t - ts[j]) + vs[..., j]

    def as_closure(self):
        def closure(t, state):
            return self(t)

        return closure


# --------------------------------------------------------------------------- #
# validated system
# --------------------------------------------------------------------------- #

VALIDATION_POINTS = 1025  # 4*256 + 1, finer than any solver grid we ship


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Validated, immutable description of one system, made by ``build_system``."""

    speeds: tuple  # the n Speed objects lambda_1..lambda_n
    coupling: CouplingField
    B: np.ndarray  # the reflection at x = 0: w_-(t, 0) = B w_+(t, 0)
    k: int
    m: int
    n: int
    lambda_max: float
    coupling_bound: float = 0.0
    state_dependent: bool = False

    def lambdas(self, x, state=None) -> np.ndarray:
        """Positive magnitudes lambda_i at positions x, shape (n, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty((self.n, x.size))
        for i, s in enumerate(self.speeds):
            out[i] = s.evaluate(x, state)
        return out

    def signed_speeds(self, x, state=None) -> np.ndarray:
        """Diagonal of the transport matrix: (-lambda_1..-lambda_k, +lambda_{k+1}..)."""
        lam = self.lambdas(x, state)
        lam[: self.k] *= -1.0
        return lam


def build_system(
    k: int,
    m: int,
    speeds: Sequence,
    coupling=None,
    b=None,
) -> SystemSpec:
    """Coerce the speeds (``as_speed``), coupling (a CouplingField, which
    carries any scale gamma, or a matrix; zero if omitted) and reflection b
    (a float k-by-m matrix, zero if omitted), check, freeze.

    The speed ordering and the uniform lower bound are checked on a grid finer
    than the solver grids so violations between solver nodes are caught.
    State-dependent speeds are checked at the zero state; their smoothness in
    the state is trusted, not verified.
    """
    if k < 1 or m < 1:
        raise DimensionMismatch("need k >= 1 and m >= 1")
    n = k + m
    speeds = tuple(as_speed(s, n) for s in speeds)
    if len(speeds) != n:
        raise DimensionMismatch(f"expected {n} speeds, got {len(speeds)}")
    if coupling is None:
        coupling = CouplingField(n)
    elif not isinstance(coupling, CouplingField):
        coupling = CouplingField(n, constant=coupling)
    B = np.atleast_2d(np.asarray(np.zeros((k, m)) if b is None else b, dtype=float))

    if B.shape != (k, m):
        raise DimensionMismatch(f"reflection matrix must be {k}x{m}, got {B.shape}")
    if coupling.n != n:
        raise DimensionMismatch(f"coupling field must be {n}x{n}, got {coupling.n}")
    if not np.all(np.isfinite(B)):
        raise NonFiniteEntry("reflection matrix has non-finite entries")

    state_dependent = any(s.state_dependent for s in speeds)
    xs = np.linspace(0.0, 1.0, VALIDATION_POINTS)
    zero_state = np.zeros(n) if state_dependent else None
    lam = np.array([s.evaluate(xs, zero_state) for s in speeds])
    if not np.all(np.isfinite(lam)):
        raise NonFiniteEntry("speed profile has non-finite values on the validation grid")
    if np.min(lam) <= 0.0:
        comp = int(np.argwhere(lam <= 0.0)[0][0])
        raise OrderingViolated(f"lambda_{comp + 1} touches zero on the validation grid")
    # negative block: lambda_1 > ... > lambda_k; positive block increasing
    for i in range(k - 1):
        if np.any(lam[i] <= lam[i + 1]):
            raise OrderingViolated(
                f"need lambda_{i + 1}(x) > lambda_{i + 2}(x) on [0, 1] (negative block)"
            )
    for i in range(k, n - 1):
        if np.any(lam[i] >= lam[i + 1]):
            raise OrderingViolated(
                f"need lambda_{i + 1}(x) < lambda_{i + 2}(x) on [0, 1] (positive block)"
            )

    cvals = coupling.evaluate(xs)
    if not np.all(np.isfinite(cvals)):
        raise NonFiniteEntry("coupling field has non-finite values on the validation grid")
    coupling_bound = float(np.max(np.abs(cvals))) if cvals.size else 0.0

    return SystemSpec(
        speeds=speeds,
        coupling=coupling,
        B=B,
        k=k,
        m=m,
        n=n,
        lambda_max=float(np.max(lam)),
        coupling_bound=coupling_bound,
        state_dependent=state_dependent,
    )
