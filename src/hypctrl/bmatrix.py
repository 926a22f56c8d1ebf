"""Admissibility classes of the reflection matrix and boundary elimination maps.

A k-by-m matrix B is admissible for null control when every trailing i-by-i
minor (last i rows, last i columns) is invertible for i up to min{k, m-1};
for exact control the range extends to i = k (which needs m >= k).

Gaussian elimination on the boundary relation w_-(t,0) = B w_+(t,0) under the
imposed zeros w_{k+1-j}(t,0) = ... = w_k(t,0) = 0 produces, level by level,
a row of coefficients for the boundary component k+m+1-j in terms of the
lower positive components; these rows drive the finite-time feedback.
"""

from __future__ import annotations

import numpy as np

from .core import IndexOutOfRange, NotInClassB, ValidationError

SINGULAR_TOLERANCE = 1e-12


def trailing_minor_invertible(B, i: int):
    """Whether the trailing i-by-i minor is invertible, plus its reciprocal condition.

    Invertibility means |det| above SINGULAR_TOLERANCE times the matrix entry
    scale (to the i-th power, since the determinant scales that way).
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    k, m = B.shape
    if not (1 <= i <= min(k, m)):
        raise IndexOutOfRange(f"minor order {i} outside 1..min(k={k}, m={m})")
    sub = B[k - i :, m - i :]
    scale = max(float(np.max(np.abs(sub))), 1e-300)
    det = float(np.linalg.det(sub))
    sv = np.linalg.svd(sub, compute_uv=False)
    rcond = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    return abs(det) > SINGULAR_TOLERANCE * scale**i, rcond


def _minor_pass(B):
    """One pass over B's trailing minors: B as a float k-by-m array, the
    (invertible, rcond) of each order 1..min{k, m}, the verdicts of class B
    and class B_e, and the number of elimination levels: min{k, m-1},
    extended to min{k, m} when that extra minor is invertible."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    k, m = B.shape
    minors = [trailing_minor_invertible(B, i) for i in range(1, min(k, m) + 1)]
    ok = [invertible for invertible, _ in minors]
    levels = m if k >= m and ok[-1] else min(k, m - 1)
    # orders 1..min{k, m-1} for class B; 1..k, which needs m >= k, for B_e
    return B, minors, all(ok[: m - 1]), m >= k and all(ok), levels


def in_class_B(B) -> bool:
    """Trailing minors invertible for 1 <= i <= min{k, m-1} (vacuous if empty)."""
    return _minor_pass(B)[2]


def in_class_Be(B) -> bool:
    """Trailing minors invertible for 1 <= i <= k; needs m >= k to hold."""
    return _minor_pass(B)[3]


def class_report(B) -> dict:
    """Membership verdicts and per-minor condition estimates (for the CLI)."""
    B, minors, in_b, in_be, _ = _minor_pass(B)
    k, m = B.shape
    return {
        "k": k,
        "m": m,
        "in_class_B": in_b,
        "in_class_Be": in_be,
        "minors": {
            i: {"invertible": ok, "rcond": rcond}
            for i, (ok, rcond) in enumerate(minors, start=1)
        },
        "note": "" if m >= k else "exact-control class requires m >= k",
    }


def boundary_elimination(B) -> tuple:
    """The elimination rows of B, by direct dense solves of the trailing blocks.

    Level j solves the last j rows of w_- = B w_+ with the last j negative
    components pinned to zero, expressing the last j positive components in
    terms of the first m-j; only the first row is kept.  Row j-1 of the
    result belongs to level j: w_{k+m+1-j}(t,0) = row @ (w_{k+1},...,w_{k+m-j})(t,0),
    m-j coefficients.  Levels run to min{k, m-1}, extended to min{k, m} when
    that extra minor is invertible.
    """
    B, minors, in_b, _, levels = _minor_pass(B)
    if not in_b:
        order = [ok for ok, _ in minors].index(False) + 1
        raise NotInClassB(f"B is not in class B: its trailing minor of order {order} is singular")
    k, m = B.shape
    # level j: the trailing j-by-j block, invertible by admissibility, against the rest
    return tuple(
        np.linalg.solve(B[k - j :, m - j :], -B[k - j :, : m - j])[0].copy()
        for j in range(1, levels + 1)
    )


def stacked_boundary_values(rows, u_free, levels: int) -> np.ndarray:
    """Assign the last `levels` positive components at x = 0 from the rows
    of ``boundary_elimination``.

    Starting from the free values (w_{k+1},...,w_{k+m-levels}) = u_free,
    level `levels` fixes component k+m+1-levels, then each shallower level
    fixes the next one using the values already assigned.  Returns the
    full positive-part vector of length m.
    """
    u_free = np.atleast_1d(np.asarray(u_free, dtype=float))
    m = rows[0].size + 1 if rows else u_free.size
    if u_free.size != m - levels:
        raise ValidationError(f"expected {m - levels} free values")
    w_plus = np.zeros(m)
    w_plus[: u_free.size] = u_free
    for j in range(levels, 0, -1):
        w_plus[m - j] = rows[j - 1] @ w_plus[: m - j]
    return w_plus
