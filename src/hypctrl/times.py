"""Characteristic travel times and the controllability-time landmarks.

tau_i is the time component i needs to cross [0, 1]:
tau_i = integral of 1/lambda_i over [0, 1].  From these, three landmark times:

    T1    = tau_k + tau_{k+1} + ... + tau_{k+m}
    T2    = tau_k + tau_{k+1}
    T_opt = max{tau_1 + tau_{m+1}, ..., tau_k + tau_{m+k}, tau_{k+1}}   (m >= k)
          = max{tau_{k+1-m} + tau_{k+1}, ..., tau_k + tau_{k+m}}        (m < k)

Both primitives read one sampling of the slowness 1/lambda_i on N_FINE = 4096
uniform cells: ``travel_times`` by composite Simpson, ``cumulative_travel`` by a
running trapezoid into the tables that the kernel, witness and feedback invert.
"""

from __future__ import annotations

import numpy as np

from .core import DimensionMismatch, SystemSpec, ValidationError


# uniform cells of the slowness samples that both primitives read
N_FINE = 4096


def frozen_state(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """State values (n, len(nodes)) frozen in time, interpolated onto the nodes
    of the N_FINE uniform cells that the travel-time tables sample: the
    ``state`` that ``cumulative_travel`` takes for state-dependent speeds."""
    xs = np.linspace(0.0, 1.0, N_FINE + 1)
    return np.array([np.interp(xs, nodes, row) for row in values])


def _slowness(spec: SystemSpec, i: int, n_fine: int = N_FINE, state=None):
    """Nodes of n_fine uniform cells on [0, 1] and 1/lambda_i there, refused
    unless finite and positive (a speed may vanish between validation nodes).
    ``state`` may be a state vector or state values already on the nodes
    (``frozen_state``)."""
    xs = np.linspace(0.0, 1.0, n_fine + 1)
    with np.errstate(divide="ignore"):
        f = 1.0 / spec.speeds[i].evaluate(xs, state)
    if not (f.min() > 0.0 and f.max() < np.inf):  # NaN fails both
        bad = xs[~((f > 0.0) & (f < np.inf))][0]
        raise ValidationError(f"lambda_{i + 1} is not finite and positive at x = {bad:.17g}")
    return xs, f


def travel_times(spec: SystemSpec) -> np.ndarray:
    """tau_i for every component: composite Simpson over the samples that
    ``cumulative_travel`` reads, at the zero state for state-dependent speeds."""
    state = np.zeros(spec.n) if spec.state_dependent else None
    taus = np.empty(spec.n)
    for i in range(spec.n):
        f = _slowness(spec, i, state=state)[1]
        h = 1.0 / (f.size - 1)
        taus[i] = (f[0] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum() + f[-1]) * h / 3.0
    return taus


def legacy_times(tau: np.ndarray, k: int, m: int) -> tuple[float, float]:
    """(T1, T2) exactly as defined above."""
    tau = np.asarray(tau, dtype=float)
    if tau.size != k + m:
        raise DimensionMismatch(f"tau must have length {k + m}")
    t1 = tau[k - 1] + float(np.sum(tau[k:]))
    t2 = tau[k - 1] + tau[k]
    return float(t1), float(t2)


def optimal_time(tau: np.ndarray, k: int, m: int) -> float:
    return optimal_time_argmax(tau, k, m)[0]


def optimal_time_argmax(tau: np.ndarray, k: int, m: int):
    """T_opt plus the term achieving the max.

    Returns (value, kind, index): kind is "pair" with index = i for the term
    tau_i + tau_(partner), or "single" with index = k+1 for the lone term in
    the m >= k case.  Ties keep the first maximizer.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.size != k + m:
        raise DimensionMismatch(f"tau must have length {k + m}")
    terms = []
    if m >= k:
        for i in range(1, k + 1):
            terms.append((tau[i - 1] + tau[m + i - 1], "pair", i))
        terms.append((tau[k], "single", k + 1))
    else:
        for j in range(1, m + 1):
            i = k + 1 - m + j - 1  # pairs tau_{k+1-m}+tau_{k+1}, ..., tau_k+tau_{k+m}
            terms.append((tau[i - 1] + tau[k + j - 1], "pair", i))
    best = max(range(len(terms)), key=lambda idx: terms[idx][0])
    value, kind, index = terms[best]
    return float(value), kind, index


def time_report(spec: SystemSpec) -> dict:
    """k, m, each tau_i, T1, T2, T_opt and the maximizing term, as ``times`` prints them."""
    tau = travel_times(spec)
    t1, t2 = legacy_times(tau, spec.k, spec.m)
    topt, kind, idx = optimal_time_argmax(tau, spec.k, spec.m)
    taus = {f"tau_{i + 1}": float(t) for i, t in enumerate(tau)}
    return {"k": spec.k, "m": spec.m, **taus, "T1": t1, "T2": t2, "T_opt": topt,
            "argmax_kind": kind, "argmax_index": idx}


def cumulative_travel(spec: SystemSpec, i: int, n_fine: int = N_FINE, state=None):
    """(xs, T_i(xs)) with T_i(x) = travel time of component i from 0 to x.

    Strictly increasing, so both directions invert by interpolation.  Used by
    the kernel solver, the witness and the feedback to locate characteristics.
    ``state`` is a ``frozen_state`` (or a state vector) for state-dependent speeds.
    """
    xs, f = _slowness(spec, i, n_fine, state)
    return xs, cumulative_trapezoid(f, xs)


def cumulative_trapezoid(f: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Trapezoid integral of the samples f from xs[0] to each node, along the last axis."""
    steps = np.cumsum(0.5 * (f[..., 1:] + f[..., :-1]) * np.diff(xs), axis=-1)
    return np.concatenate([np.zeros(f.shape[:-1] + (1,)), steps], axis=-1)
