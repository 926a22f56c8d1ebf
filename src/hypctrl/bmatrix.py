"""Admissibility classes of the reflection matrix and boundary elimination maps.

A k-by-m matrix B is admissible for null control when every trailing i-by-i
minor (last i rows, last i columns) is invertible for i up to min{k, m-1};
for exact control the range extends to i = k (which needs m >= k).

Gaussian elimination on the boundary relation w_-(t,0) = B w_+(t,0) under the
imposed zeros w_{k+1-j}(t,0) = ... = w_k(t,0) = 0 produces, level by level,
a scalar map for the boundary component k+m+1-j in terms of the lower
positive components; these maps drive the finite-time feedback.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def in_class_B(B) -> bool:
    """Trailing minors invertible for 1 <= i <= min{k, m-1} (vacuous if empty)."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    k, m = B.shape
    return all(trailing_minor_invertible(B, i)[0] for i in range(1, min(k, m - 1) + 1))


def in_class_Be(B) -> bool:
    """Trailing minors invertible for 1 <= i <= k; needs m >= k to hold."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    k, m = B.shape
    if m < k:
        return False  # the trailing k-by-k minor does not exist
    return all(trailing_minor_invertible(B, i)[0] for i in range(1, k + 1))


def class_report(B) -> dict:
    """Membership verdicts and per-minor condition estimates (for the CLI)."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    k, m = B.shape
    minors = {}
    for i in range(1, min(k, m) + 1):
        ok, rcond = trailing_minor_invertible(B, i)
        minors[i] = {"invertible": bool(ok), "rcond": rcond}
    return {
        "k": k,
        "m": m,
        "in_class_B": bool(in_class_B(B)),
        "in_class_Be": bool(in_class_Be(B)),
        "minors": minors,
        "note": "" if m >= k else "exact-control class requires m >= k",
    }


@dataclass
class EliminationMap:
    """Level-j map: w_{k+m+1-j}(t,0) as a function of (w_{k+1},...,w_{k+m-j})(t,0)."""

    level: int
    control_component: int  # 1-based component index k+m+1-j
    coef: np.ndarray  # length m-j; the map is coef @ args

    def __call__(self, args: np.ndarray) -> float:
        args = np.atleast_1d(np.asarray(args, dtype=float))
        if args.size != self.coef.size:
            raise ValidationError(
                f"elimination map level {self.level} expects {self.coef.size} arguments"
            )
        return float(self.coef @ args) if self.coef.size else 0.0


@dataclass
class EliminationMaps:
    k: int
    m: int
    maps: list  # EliminationMap, ordered by level j = 1, 2, ...

    def by_level(self, j: int) -> EliminationMap:
        return self.maps[j - 1]

    def stacked_boundary_values(self, u_free: np.ndarray, levels: int) -> np.ndarray:
        """Assign the last `levels` positive components at x = 0 from the maps.

        Starting from the free values (w_{k+1},...,w_{k+m-levels}) = u_free,
        level `levels` fixes component k+m+1-levels, then each shallower level
        fixes the next one using the values already assigned.  Returns the
        full positive-part vector of length m.
        """
        u_free = np.atleast_1d(np.asarray(u_free, dtype=float))
        if u_free.size != self.m - levels:
            raise ValidationError(f"expected {self.m - levels} free values")
        w_plus = np.zeros(self.m)
        w_plus[: u_free.size] = u_free
        for j in range(levels, 0, -1):
            mp = self.by_level(j)
            w_plus[self.m - j] = mp(w_plus[: self.m - j])
        return w_plus


def boundary_elimination(B) -> EliminationMaps:
    """Derive the elimination maps by direct dense solves of the trailing blocks.

    Level j solves the last j rows of w_- = B w_+ with the last j negative
    components pinned to zero, expressing the last j positive components in
    terms of the first m-j; only the first row (component k+m+1-j) is kept as
    the level's map.  Levels run to min{k, m-1}, extended to min{k, m} when
    that extra minor is invertible.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    k, m = B.shape
    if not in_class_B(B):
        raise NotInClassB("matrix is not admissible: some trailing minor is singular")
    levels = min(k, m - 1)
    if min(k, m) > levels and trailing_minor_invertible(B, min(k, m))[0]:
        levels = min(k, m)
    maps = []
    for j in range(1, levels + 1):
        A = B[k - j :, m - j :]   # trailing j-by-j block, invertible by admissibility
        R = B[k - j :, : m - j]
        sol = np.linalg.solve(A, -R) if m - j > 0 else np.zeros((j, 0))
        maps.append(
            EliminationMap(level=j, control_component=k + m + 1 - j, coef=sol[0].copy())
        )
    return EliminationMaps(k=k, m=m, maps=maps)
