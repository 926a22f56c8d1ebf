"""Kernel equations on the triangle, source matrix, Volterra transform.

The transform u(t,x) = w(t,x) - integral_0^x K(x,y) w(t,y) dy maps the system
to a target form whose coupling acts only through the boundary value u(t,0),
provided K solves on the triangle {0 < y < x < 1}

    Sigma_ii(x) dK_ij/dx + Sigma_jj(y) dK_ij/dy
        = -K_ij Sigma'_jj(y) + sum_l K_il C_lj(y)

with the diagonal condition K_ij(x,x) = C_ij(x) / (Sigma_jj(x) - Sigma_ii(x))
for i != j (which forces zero diagonal coupling, removed beforehand by an
exponential gauge).

Each scalar entry is a transport equation along characteristics with constant
sign pattern; in travel-time coordinates T_i(x) = int_0^x dxi/lambda_i(xi)
the characteristics are straight, so anchors and exit points are found by
monotone interpolation.  Characteristics that meet the diagonal carry the
diagonal data; the remaining free data is zero on {x=1} and, on {y=0}, for
the positive-block rows it is fitted each sweep so that the lower triangle of
the target source block S_++ vanishes.  The multiplicative Sigma'_jj term is
absorbed exactly by integrating K*Sigma_jj(y) along the characteristic.

K_ij couples only to its own row, through sum_l K_il C_lj, and so does the
fitted data of row i, so the rows are solved one after another, each until its
own change is small.  The path samples grow as NK^3 (1.1 million for a 2x2 at
NK = 128) and set the memory.  A row's sweep holds 48 + 8 r bytes per sample
of its entries, for r nonzero coupling rows C_lj of the entry's column: two
corner indices, four corner weights and r coefficients, each with the
trapezoid weight folded in.  An entry's path arrays are allocated once and
built, then swept, in blocks of whole segments, so no temporary is larger
than one block.  Only one row is held at a time.  ``KernelReport.diagnostics``
gives the sample count, the largest row's bytes (its gather buffers
included), the geometry and sweep times and row sweeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    DiagonalCouplingPresent,
    DimensionMismatch,
    FixedPointDivergence,
    GridMismatch,
    MaxItersExceeded,
    CouplingField,
    StateField,
    SystemSpec,
    ValidationError,
    build_system,
)
from .times import N_FINE, cumulative_trapezoid, cumulative_travel
from .simulator import Trajectory

_GAUGE_CELLS = 2048  # cells of the grid the diagonal gauge is integrated on
# path samples per block of whole segments that a kernel entry's geometry is
# built and swept in: no temporary of either is larger than one block
_BLOCK_SAMPLES = 1 << 14

# anchor kinds: the diagonal, fitted data on y = 0, zero data on any other edge
_DIAG = 0
_Y0_FIT = 1
_ZERO = 2


def _tri_index(p, q):
    p = np.asarray(p)
    return p * (p + 1) // 2 + q


def _tri_points(NK: int):
    ps = np.concatenate([np.full(p + 1, p, dtype=int) for p in range(NK + 1)])
    qs = np.concatenate([np.arange(p + 1) for p in range(NK + 1)])
    return ps, qs


def _triangle_interp(xq, yq, NK: int, cols=None, wts=None):
    """Corner indices (2, M) and weights (4, M) interpolating triangle-grid
    samples at the points (xq, yq), two float arrays this call overwrites.

    Writes into ``cols`` (intp) and ``wts`` when given.  Bilinear inside cells
    below the diagonal; cells cut by the diagonal use the affine interpolant
    on their lower triangle, with weight 0 on corner 2.  Only corners 0,
    (p, q), and 1, (p+1, q), are stored: corners 2 and 3 sit one index after
    them.  On a cut cell corner 2's index is that of (p+1, 0), a valid node as
    p <= NK - 1.  Points are clipped into the closed triangle first.
    """
    np.clip(xq, 0.0, 1.0, out=xq)
    np.clip(yq, 0.0, None, out=yq)
    np.minimum(yq, xq, out=yq)
    xq *= NK
    yq *= NK
    p = xq.astype(np.intp)
    np.clip(p, 0, NK - 1, out=p)
    q = yq.astype(np.intp)
    np.clip(q, 0, NK - 1, out=q)
    np.minimum(q, p, out=q)
    fx = np.subtract(xq, p, out=xq)
    np.clip(fx, 0.0, 1.0, out=fx)
    fy = np.subtract(yq, q, out=yq)
    np.clip(fy, 0.0, 1.0, out=fy)
    on_diag = q == p
    np.minimum(fy, fx, out=fy, where=on_diag)

    cols = np.empty((2, xq.size), dtype=np.intp) if cols is None else cols
    np.add(p, 1, out=cols[0])
    cols[0] *= p
    cols[0] //= 2
    cols[0] += q  # (p, q)
    np.add(cols[0], p, out=cols[1])
    cols[1] += 1  # (p+1, q)
    del p, q

    wts = np.empty((4, xq.size)) if wts is None else wts
    np.subtract(1.0, fx, out=wts[2])
    np.subtract(1.0, fy, out=wts[1])
    np.multiply(wts[2], wts[1], out=wts[0])  # (1 - fx)(1 - fy)
    wts[1] *= fx  # fx (1 - fy)
    wts[2] *= fy  # (1 - fx) fy
    np.multiply(fx, fy, out=wts[3])
    # diagonal-cut cells: affine on (p,p), (p+1,p), (p+1,p+1)
    if np.any(on_diag):
        np.subtract(1.0, fx, out=wts[0], where=on_diag)
        np.subtract(fx, fy, out=wts[1], where=on_diag)
        np.copyto(wts[2], 0.0, where=on_diag)
        np.copyto(wts[3], fy, where=on_diag)
    return cols, wts


def _gather(cols, wts, values, out=None, buf=None):
    """Interpolate ``values`` (..., n_pts) at the points of ``_triangle_interp``.

    Writes into ``out`` and uses ``buf`` as scratch, each (..., M), when given.
    The corners are summed in ascending triangle index (0, 2, 1, 3); the last
    bits of the kernel values, and so of its CSV export, depend on this order.
    Corners 2 and 3 are the right neighbours of corners 0 and 1, read through
    ``values[..., 1:]``.
    """
    shape = values.shape[:-1] + cols.shape[1:]
    out = np.empty(shape) if out is None else out
    buf = np.empty(shape) if buf is None else buf
    np.take(values, cols[0], axis=-1, out=out, mode="clip")
    out *= wts[0]
    right = values[..., 1:]
    for w, idx, src in ((wts[2], cols[0], right), (wts[1], cols[1], values),
                        (wts[3], cols[1], right)):
        np.take(src, idx, axis=-1, out=buf, mode="clip")
        buf *= w
        out += buf
    return out


# --------------------------------------------------------------------------- #
# diagonal gauge
# --------------------------------------------------------------------------- #

@dataclass
class DiagonalGauge:
    """Exponential rescaling that removed the diagonal of the coupling."""

    xs: np.ndarray
    factors: np.ndarray  # (n, len(xs)); identity gauge has all ones
    identity: bool = False

    def _factors_on(self, xs) -> np.ndarray:
        return np.vstack([np.interp(xs, self.xs, row) for row in self.factors])

    def apply(self, state: StateField) -> StateField:
        """Original variables -> gauged variables."""
        return StateField(state.values * self._factors_on(state.xs), state.t, state.xs)

    def unapply(self, state: StateField) -> StateField:
        return StateField(state.values / self._factors_on(state.xs), state.t, state.xs)


def preprocess_diagonal(spec: SystemSpec):
    """Equivalent system with zero-diagonal coupling, plus the gauge record.

    The state change w~_i = exp(int_0^x C_ii/Sigma_ii) w_i cancels C_ii and
    multiplies the off-diagonal entries by factor ratios; reflection at x = 0
    is untouched because every factor equals one there.
    """
    if spec.state_dependent:
        raise ValidationError("diagonal preprocessing requires state-independent speeds")
    n = spec.n
    xs = np.linspace(0.0, 1.0, _GAUGE_CELLS + 1)
    cvals = spec.coupling.evaluate(xs)  # includes gamma
    diag = np.stack([cvals[i, i] for i in range(n)])
    if np.max(np.abs(diag), initial=0.0) <= 1e-14 * max(1.0, spec.coupling_bound):
        gauge = DiagonalGauge(xs=xs, factors=np.ones((n, xs.size)), identity=True)
        return spec, gauge

    factors = np.exp(cumulative_trapezoid(diag / spec.signed_speeds(xs), xs))
    ratio = factors[:, None, :] / factors[None, :, :]  # (i, j, x)
    new_c = cvals * ratio
    new_c[np.diag_indices(n)] = 0.0
    coupling = CouplingField(n, samples=(xs, np.moveaxis(new_c, 2, 0)), gamma=1.0)
    new_spec = build_system(spec.k, spec.m, spec.speeds, coupling, spec.B)
    return new_spec, DiagonalGauge(xs=xs, factors=factors)


# --------------------------------------------------------------------------- #
# kernel
# --------------------------------------------------------------------------- #

@dataclass
class KernelReport:
    iterations: int
    final_change: float
    residual_linf: float
    residual_per_entry: np.ndarray
    changes: list = field(default_factory=list)
    # path samples, the largest row's geometry bytes, geometry and sweep seconds, row sweeps
    diagnostics: dict = field(default_factory=dict, repr=False)


@dataclass
class Kernel:
    """Matrix-valued kernel samples on the triangle grid {y_q <= x_p}.

    ``values`` is a read-only copy of the samples given, so the Volterra
    operator that the kernel keeps for its latest grid cannot go stale.
    """

    n: int
    k: int
    NK: int
    values: np.ndarray  # (n, n, n_pts)
    report: Optional[KernelReport] = field(default=None, repr=False)
    # (values, grid nodes as bytes, operator, its diagonal block inverses) of the latest grid
    _operator: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)
        self.values.flags.writeable = False

    @property
    def h(self) -> float:
        return 1.0 / self.NK

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.NK + 1)

    def rows_at(self, x, ys) -> np.ndarray:
        """K at the points (x, ys), broadcast together and flattened: (M, n, n)."""
        xq, yq = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(ys, dtype=float))
        cols, wts = _triangle_interp(xq.ravel().copy(), yq.ravel().copy(), self.NK)
        return np.moveaxis(_gather(cols, wts, self.values), -1, 0)

    def volterra_operator(self, xs) -> np.ndarray:
        """Trapezoid-weighted K(x_p, y_q) h_q on a uniform grid, (N+1, N+1, n, n).

        Zero above the diagonal q > p, and on row p = 0 (an empty integral).
        Memory grows as N^2 n^2: 8 (N+1)^2 n^2 bytes, 0.5 GB at N = 4000, n = 2.
        Built once per grid: the kernel keeps the operator of the latest grid,
        read-only, with the inverses of its diagonal blocks I - op[p, p], and
        returns it again for the same nodes.
        """
        key = np.asarray(xs, dtype=float).tobytes()
        kept = self._operator
        if kept is not None and kept[0] is self.values and kept[1] == key:
            return kept[2]
        self._operator = kept = None  # a new grid's operator replaces the old, never beside it
        h = _check_uniform(xs)
        N = xs.size - 1
        p, q = np.tril_indices(N + 1)
        wts = np.where((q == 0) | (q == p), h / 2.0, h)
        op = np.zeros((N + 1, N + 1, self.n, self.n))
        op[p, q] = self.rows_at(xs[p], xs[q]) * wts[:, None, None]
        op[0] = 0.0
        inv = np.linalg.inv(np.eye(self.n) - op[np.arange(N + 1), np.arange(N + 1)])
        op.flags.writeable = inv.flags.writeable = False
        self._operator = (self.values, key, op, inv)
        return op

    def at_y0(self) -> np.ndarray:
        """K(x_p, 0) at the grid nodes, shape (n, n, NK+1)."""
        idx = _tri_index(np.arange(self.NK + 1), 0)
        return self.values[:, :, idx]

    def diagonal_values(self) -> np.ndarray:
        """K(x_p, x_p) at the grid nodes, shape (n, n, NK+1)."""
        ps = np.arange(self.NK + 1)
        idx = _tri_index(ps, ps)
        return self.values[:, :, idx]


def _entry_geometry(spec, i, j, tables, NK):
    """Anchor classification and integration paths for one kernel entry.

    Returns what the sweep reads: the fixed anchor data (C_ij/(sigma_j -
    sigma_i) sigma_j where the characteristic meets the diagonal, else 0),
    the points anchored on fitted y = 0 data with their x and sigma_j and,
    when some coupling entry C_lj can be nonzero, those rows l with their
    coefficients Sigma_jj C_lj times the trapezoid weight along the paths, the
    interpolation corners and weights of all path sample points, and the
    segment starts with the blocks of whole segments, at most
    ``_BLOCK_SAMPLES`` samples or one segment each, that the held path arrays
    are filled in and that the sweep reads them in.
    """
    k = spec.k
    h = 1.0 / NK
    ps, qs = _tri_points(NK)
    xs_pts = ps * h
    ys_pts = qs * h
    n_pts = xs_pts.size

    xf_i, Tf_i = tables[i]
    xf_j, Tf_j = tables[j]
    s_i = -1.0 if i < k else 1.0
    s_j = -1.0 if j < k else 1.0
    Ti_full = Tf_i[-1]
    a = np.interp(xs_pts, xf_i, Tf_i)
    b = np.interp(ys_pts, xf_j, Tf_j)

    # backward edge events: every point leaves through x = 1 (s_i < 0) or
    # x = 0 (s_i > 0), unless y = 0 comes first
    tau_edge = np.full(n_pts, np.inf)
    anchor_kind = np.full(n_pts, _ZERO)
    if s_i < 0:  # x increases backward: exits through x = 1
        tau_edge = Ti_full - a
    if s_j > 0:  # y decreases backward: exits through y = 0
        better = b < tau_edge
        tau_edge = np.where(better, b, tau_edge)
        if j <= i:  # the lower triangle of the positive block, as j >= k here
            anchor_kind[better] = _Y0_FIT
    if s_i > 0:  # guard: x = 0 (geometrically never first, only roundoff)
        better = a < tau_edge
        tau_edge = np.where(better, a, tau_edge)
        anchor_kind[better] = _ZERO

    # the anchor position matters only where it carries data: on the
    # diagonal and on a fitted y = 0
    s_anchor = -tau_edge
    anchor_x = np.interp(a - s_i * tau_edge, Tf_i, xf_i)
    anchor_y = np.zeros(n_pts)

    if i != j:
        # the characteristic through (x,y) meets the diagonal where
        # s_j*T_i(d) - s_i*T_j(d) = s_j*a - s_i*b; phi is strictly monotone.
        phi = s_j * np.interp(xf_j, xf_i, Tf_i) - s_i * Tf_j
        c = s_j * a - s_i * b
        if phi[-1] < phi[0]:
            d = np.interp(c, phi[::-1], xf_j[::-1])
            in_range = (c <= phi[0]) & (c >= phi[-1])
        else:
            d = np.interp(c, phi, xf_j)
            in_range = (c >= phi[0]) & (c <= phi[-1])
        tau_diag = s_i * (a - np.interp(d, xf_i, Tf_i))  # backward flow time to the touch
        eps = 1e-12
        backward_touch = in_range & (tau_diag >= -eps) & (tau_diag <= tau_edge + eps)
        # forward touch: sigma = -tau_diag, must beat the forward edge events
        sigma_edge = np.full(n_pts, np.inf)
        if s_i < 0:
            sigma_edge = np.minimum(sigma_edge, a)
        else:
            sigma_edge = np.minimum(sigma_edge, Ti_full - a)
        if s_j < 0:
            sigma_edge = np.minimum(sigma_edge, b)
        forward_touch = in_range & (tau_diag < -eps) & (-tau_diag <= sigma_edge + eps)
        touched = backward_touch | forward_touch
        anchor_kind = np.where(touched, _DIAG, anchor_kind)
        s_anchor = np.where(touched, -tau_diag, s_anchor)
        anchor_x = np.where(touched, d, anchor_x)
        anchor_y = np.where(touched, d, anchor_y)

    sig_anchor = s_j * spec.speeds[j].evaluate(anchor_y)
    anchor = np.zeros(n_pts)
    diag = anchor_kind == _DIAG
    if np.any(diag):
        d = anchor_x[diag]
        denom = s_j * spec.speeds[j].evaluate(d) - s_i * spec.speeds[i].evaluate(d)
        anchor[diag] = spec.coupling.column(d, j)[i] / denom * sig_anchor[diag]
    fit = anchor_kind == _Y0_FIT
    geom = {
        "anchor": anchor,
        "fit": fit,
        "fit_x": anchor_x[fit],
        "fit_sig": sig_anchor[fit],
        "sig_pts": s_j * spec.speeds[j].evaluate(ys_pts),
        "rows": [],
    }

    # row l: Sigma_jj(y) * C_lj(y), for each l whose coupling entry can be nonzero
    rows = [l for l in range(spec.n) if not spec.coupling.entry_is_zero(l, j)]
    if not rows:  # no source term: the paths are never read
        return geom

    # path samples from the anchor to the point, trapezoid in the flow time
    dtau = h / spec.lambda_max
    lengths = np.maximum(1, np.ceil(np.abs(s_anchor) / dtau).astype(int))
    seg_starts = np.concatenate([[0], np.cumsum(lengths + 1)])  # and the sample count last
    total = int(seg_starts[-1])
    # blocks of whole segments, one segment at least: the segment index each starts at, then n_pts
    blocks = [0]
    while blocks[-1] < n_pts:
        s0 = blocks[-1]
        s1 = int(np.searchsorted(seg_starts, seg_starts[s0] + _BLOCK_SAMPLES, "right")) - 1
        blocks.append(max(s0 + 1, s1))
    # the held arrays, allocated once and filled block by block
    cols = np.empty((2, total), dtype=np.intp)
    wts = np.empty((4, total))
    coef = np.empty((len(rows), total))
    for s0, s1 in zip(blocks[:-1], blocks[1:]):
        lo, hi = seg_starts[s0], seg_starts[s1]
        L = lengths[s0:s1]
        starts = seg_starts[s0:s1] - lo
        # np.linspace(0, 1, L + 1) per segment, with linspace's arithmetic
        rel = np.arange(hi - lo) - np.repeat(starts, L + 1)
        rel = rel * np.repeat(1.0 / L, L + 1)
        rel[starts + L] = 1.0
        s_samp = np.repeat(s_anchor[s0:s1], L + 1) * (1.0 - rel)
        x_samp = np.interp(np.repeat(a[s0:s1], L + 1) + s_i * s_samp, Tf_i, xf_i)
        y_samp = np.interp(np.repeat(b[s0:s1], L + 1) + s_j * s_samp, Tf_j, xf_j)
        # y is clipped in place, which leaves its triangle interpolation unchanged
        np.clip(y_samp, 0.0, 1.0, out=y_samp)
        trap = np.repeat(-s_anchor[s0:s1] / L, L + 1)
        trap[starts] *= 0.5
        trap[starts + L] *= 0.5
        blk = spec.coupling.column(y_samp, j)[rows]
        blk *= s_j * spec.speeds[j].evaluate(y_samp)
        np.multiply(blk, trap, out=coef[:, lo:hi])
        _triangle_interp(x_samp, y_samp, NK, cols=cols[:, lo:hi], wts=wts[:, lo:hi])
    geom.update(rows=rows, coef=coef, seg_starts=seg_starts, blocks=blocks, interp=(cols, wts))
    return geom


def _solve_row(spec, i, tables, NK, max_iters, fp_tolerance):
    """Row i of the kernel by its own sweeps; its path geometry lives only in
    this call.  Returns the row (n, n_pts), its changes per sweep, its path
    samples, the bytes its geometry holds, and geometry and sweep seconds."""
    n, k = spec.n, spec.k
    t0 = time.perf_counter()
    geoms = [_entry_geometry(spec, i, j, tables, NK) for j in range(n)]
    t1 = time.perf_counter()
    sizes = [g["coef"].shape[1] for g in geoms if g["rows"]]
    # the gather of each coupling row l writes into these, sliced to a block's samples
    block = max((np.diff(g["seg_starts"][g["blocks"]]).max() for g in geoms if g["rows"]),
                default=0)
    bufs = np.empty((3, block))
    out_buf, tmp_buf, acc_buf = bufs
    # each held array once, by the array that owns its memory
    arrays = [a for g in geoms for a in (*g.values(), *g.get("interp", ()))] + [bufs]
    owners = (a if a.base is None else a.base for a in arrays if isinstance(a, np.ndarray))
    held = sum({id(o): o.nbytes for o in owners}.values())

    nodes_x = np.linspace(0.0, 1.0, NK + 1)
    y0_idx = _tri_index(np.arange(NK + 1), 0)
    lam0 = spec.lambdas(np.array([0.0]))[:, 0]
    K = np.zeros((n, (NK + 1) * (NK + 2) // 2))
    gfit = np.zeros((n, NK + 1))  # only columns k <= j <= i are used, for i >= k

    changes = []
    grew = 0
    for it in range(1, max_iters + 1):
        K_new = np.empty_like(K)
        for j, g in enumerate(geoms):
            anchor = g["anchor"].copy()
            anchor[g["fit"]] = np.interp(g["fit_x"], nodes_x, gfit[j]) * g["fit_sig"]
            if g["rows"]:
                cols, wts = g["interp"]
                seg_starts = g["seg_starts"]
                integral = np.empty(anchor.size)
                for s0, s1 in zip(g["blocks"][:-1], g["blocks"][1:]):
                    lo, hi = seg_starts[s0], seg_starts[s1]
                    acc = acc_buf[:hi - lo]
                    acc.fill(0.0)
                    for l, coef in zip(g["rows"], g["coef"]):
                        term = _gather(cols[:, lo:hi], wts[:, lo:hi], K[l],
                                       out_buf[:hi - lo], tmp_buf[:hi - lo])
                        term *= coef[lo:hi]
                        acc += term
                    np.add.reduceat(acc, seg_starts[s0:s1] - lo, out=integral[s0:s1])
            else:
                integral = 0.0
            K_new[j] = (anchor + integral) / g["sig_pts"]
        # refresh the fitted boundary data on {y=0} of a positive-block row
        g_new = np.zeros_like(gfit)
        for j in range(k, i + 1):
            g_new[j] = np.einsum("l,lx->x", lam0[:k] * spec.B[:, j - k],
                                 K_new[:k, y0_idx]) / lam0[j]
        change = float(np.max(np.abs(K_new - K)))
        if np.any(gfit):
            change = max(change, float(np.max(np.abs(g_new - gfit))))
        K, gfit = K_new, g_new
        if changes and change > changes[-1]:
            grew += 1
            if grew >= 5:
                raise FixedPointDivergence(f"kernel iteration diverging: change {change:.3e} "
                                           f"after {it} sweeps in row {i + 1}")
        else:
            grew = 0
        changes.append(change)
        if change < fp_tolerance:
            break
    else:
        raise MaxItersExceeded(f"kernel iteration did not reach {fp_tolerance:g} in {max_iters} "
                               f"sweeps in row {i + 1} (last change {changes[-1]:.3e})")
    return K, changes, sum(sizes), held, t1 - t0, time.perf_counter() - t1


def solve_kernel(
    spec: SystemSpec,
    NK: int = 64,
    max_iters: int = 200,
    fp_tolerance: float = 1e-10,
) -> Kernel:
    """Successive approximation of the kernel on the triangle grid, row by row.

    A sweep of a row re-evaluates the characteristic integral of each entry
    from the previous iterate (Jacobi style), then refreshes the row's fitted
    free data on {y=0}.  A row stops when its sup-change falls below
    ``fp_tolerance`` and raises if the change grows five sweeps in a row or
    its budget runs out.  The report's ``changes`` are, per sweep, the largest
    change among the rows still sweeping.
    """
    if spec.state_dependent:
        raise ValidationError("kernel equations require state-independent speeds")
    if NK < 8:
        raise ValidationError(f"kernel grid too coarse: need NK >= 8, got NK = {NK}")
    if max_iters < 1:
        raise ValidationError(f"need at least one kernel sweep, got max_iters = {max_iters}")
    if not 0.0 < fp_tolerance < np.inf:
        raise ValidationError(
            f"kernel tolerance must be finite and positive, got tolerance = {fp_tolerance}"
        )
    n, k = spec.n, spec.k
    cdiag = spec.coupling.evaluate(np.linspace(0.0, 1.0, 513))
    diag_max = max(float(np.max(np.abs(cdiag[i, i]))) for i in range(n))
    if diag_max > 1e-12 * max(1.0, spec.coupling_bound):
        raise DiagonalCouplingPresent(
            "coupling has nonzero diagonal entries; run preprocess_diagonal first"
        )

    t0 = time.perf_counter()
    tables = [cumulative_travel(spec, i, n_fine=max(N_FINE, 8 * NK)) for i in range(n)]
    tables_s = time.perf_counter() - t0
    rows = [_solve_row(spec, i, tables, NK, max_iters, fp_tolerance) for i in range(n)]
    K, row_changes, samples, held, geometry_s, sweeps_s = zip(*rows)
    changes = [max(c[s] for c in row_changes if s < len(c))
               for s in range(max(map(len, row_changes)))]
    diagnostics = {
        "samples": sum(samples),
        "geometry_bytes": max(held),  # the largest row's: one row is held at a time
        "geometry_s": tables_s + sum(geometry_s),
        "sweeps_s": sum(sweeps_s),
        "row_sweeps": [len(c) for c in row_changes],
    }
    kernel = Kernel(n=n, k=k, NK=NK, values=K)
    res_linf, res_entries = kernel_pde_residual(kernel, spec)
    kernel.report = KernelReport(
        iterations=len(changes),
        final_change=changes[-1],
        residual_linf=res_linf,
        residual_per_entry=res_entries,
        changes=changes,
        diagnostics=diagnostics,
    )
    return kernel


def kernel_pde_residual(kernel: Kernel, spec: SystemSpec):
    """First-order finite-difference residual of the kernel transport equations.

    One-sided differences take the neighbor on the side the data comes from;
    a one-cell band around the diagonal is excluded (the kernel may lose
    smoothness there).  Returns (overall max, per-entry max).
    """
    n, k, NK = kernel.n, kernel.k, kernel.NK
    h = kernel.h
    ps, qs = _tri_points(NK)
    mask = (qs >= 1) & (ps <= NK - 1) & (qs <= ps - 2)
    p_in, q_in = ps[mask], qs[mask]
    x_in, y_in = p_in * h, q_in * h
    idx0 = _tri_index(p_in, q_in)
    idx_px = _tri_index(p_in + 1, q_in)
    idx_mx = _tri_index(p_in - 1, q_in)
    idx_py = _tri_index(p_in, q_in + 1)
    idx_my = _tri_index(p_in, q_in - 1)

    lam_x = spec.lambdas(x_in)
    lam_y = spec.lambdas(y_in)
    dstep = h / 4.0
    lam_y_p = spec.lambdas(y_in + dstep)
    lam_y_m = spec.lambdas(y_in - dstep)
    cvals = spec.coupling.evaluate(y_in)

    res_entries = np.zeros((n, n))
    K = kernel.values
    for i in range(n):
        s_i = -1.0 if i < k else 1.0
        sig_x = s_i * lam_x[i]
        for j in range(n):
            s_j = -1.0 if j < k else 1.0
            sig_y = s_j * lam_y[j]
            dsig = s_j * (lam_y_p[j] - lam_y_m[j]) / (2 * dstep)
            if s_i < 0:  # data arrives from larger x
                dx = (K[i, j][idx_px] - K[i, j][idx0]) / h
            else:
                dx = (K[i, j][idx0] - K[i, j][idx_mx]) / h
            if s_j < 0:
                dy = (K[i, j][idx_py] - K[i, j][idx0]) / h
            else:
                dy = (K[i, j][idx0] - K[i, j][idx_my]) / h
            coup = sum(K[i, l][idx0] * cvals[l, j] for l in range(n))
            res = sig_x * dx + sig_y * dy + K[i, j][idx0] * dsig - coup
            res_entries[i, j] = np.max(np.abs(res), initial=0.0)
    return float(np.max(res_entries)), res_entries


# --------------------------------------------------------------------------- #
# source matrix
# --------------------------------------------------------------------------- #

@dataclass
class SourceMatrix:
    """S(x) = K(x,0) Sigma(0) Q on the kernel nodes; first k columns are zero."""

    k: int
    m: int
    xs: np.ndarray
    values: np.ndarray  # (n, n, NK+1)
    lower_triangle_max: float = 0.0

    def value_nodes(self, xq) -> np.ndarray:
        xq = np.atleast_1d(np.asarray(xq, dtype=float))
        n = self.k + self.m
        out = np.zeros((n, n, xq.size))
        for i in range(n):
            for j in range(self.k, n):
                out[i, j] = np.interp(xq, self.xs, self.values[i, j])
        return out


def source_matrix(kernel: Kernel, spec: SystemSpec) -> SourceMatrix:
    """Assemble S(x) = K(x,0) Sigma(0) Q and report the S_++ lower triangle.

    Q stacks (0_k B; 0_mk I_m) with the system's B, so the first k columns of
    S vanish exactly; the lower-triangle magnitude of S_++ measures how well
    the fitted kernel boundary data achieved the structural zeros.
    """
    n, k, m = kernel.n, kernel.k, spec.m
    if (n, k) != (spec.n, spec.k):
        raise DimensionMismatch(f"kernel has n = {n}, k = {k}; the system {spec.n}, {spec.k}")
    sig0 = spec.signed_speeds(np.array([0.0]))[:, 0]
    Q = np.zeros((n, n))
    Q[:k, k:] = spec.B
    Q[k:, k:] = np.eye(m)
    Ky0 = kernel.at_y0()  # (n, n, NK+1)
    S = np.einsum("ilx,l,lj->ijx", Ky0, sig0, Q)
    S[:, :k, :] = 0.0  # structural, forced by Q's zero columns
    low = float(np.max(np.abs(S[k:, k:][np.tril_indices(m)]), initial=0.0))
    return SourceMatrix(k=k, m=m, xs=kernel.xs, values=S, lower_triangle_max=low)


# --------------------------------------------------------------------------- #
# Volterra transform
# --------------------------------------------------------------------------- #

def _check_uniform(xs: np.ndarray) -> float:
    h = xs[1] - xs[0]
    if not np.allclose(np.diff(xs), h, rtol=1e-9, atol=1e-12):
        raise GridMismatch("transform needs a uniform state grid")
    return float(h)


def transform(w: StateField, kernel: Kernel) -> StateField:
    """u(x_p) = w(x_p) - sum_{q<=p} trapz-weight K(x_p, y_q) w(y_q)."""
    if w.n != kernel.n:
        raise GridMismatch("state and kernel have different component counts")
    op = kernel.volterra_operator(w.xs)
    return StateField(w.values - np.einsum("pqij,jq->ip", op, w.values), w.t, w.xs)


def inverse_transform(u: StateField, kernel: Kernel) -> StateField:
    """Solve the discrete Volterra system by forward substitution in x, with
    the diagonal block inverses the kernel keeps beside its operator."""
    if u.n != kernel.n:
        raise GridMismatch("state and kernel have different component counts")
    op = kernel.volterra_operator(u.xs)
    inv = kernel._operator[3]
    w = np.empty_like(u.values)
    w[:, 0] = u.values[:, 0]
    for p in range(1, u.xs.size):
        rhs = u.values[:, p] + np.einsum("qij,jq->i", op[p, :p], w[:, :p])
        w[:, p] = inv[p] @ rhs
    return StateField(w, u.t, u.xs)


def target_residual(traj: Trajectory, S: Optional[SourceMatrix], spec: SystemSpec) -> float:
    """Space-time L2 residual of the target dynamics on a transformed trajectory.

    Forward difference in time, central difference in space over interior
    points; with a zero kernel this reduces to the upwind truncation error of
    the plain system, O(h).
    """
    xs = traj.xs
    h = _check_uniform(xs)
    snaps = traj.snapshots
    ts = traj.snapshot_times
    sig = spec.signed_speeds(xs)
    svals = S.value_nodes(xs) if S is not None else None
    total = 0.0
    for s0, s1, t0, t1 in zip(snaps[:-1], snaps[1:], ts[:-1], ts[1:]):
        dt = t1 - t0
        du = (s1 - s0) / dt
        dx = (s0[:, 2:] - s0[:, :-2]) / (2 * h)
        res = du[:, 1:-1] - sig[:, 1:-1] * dx
        if svals is not None:
            res -= np.einsum("ijq,j->iq", svals[:, :, 1:-1], s0[:, 0])
        total += h * dt * float(np.sum(res**2))
    return float(np.sqrt(total))
