import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypctrl import backstepping
from hypctrl.backstepping import (
    Kernel,
    _entry_geometry,
    _gather,
    _triangle_interp,
    inverse_transform,
    kernel_pde_residual,
    preprocess_diagonal,
    solve_kernel,
    source_matrix,
    target_residual,
    transform,
)
from hypctrl.core import (
    DiagonalCouplingPresent,
    GridMismatch,
    GridSpec,
    StateField,
    ValidationError,
    build_system,
    state_from_exprs,
)
from hypctrl.simulator import Trajectory, solve_forward, zero_control
from hypctrl.times import N_FINE, cumulative_travel


def _coupled_2x2(c12=1.0, c21=1.0, b=0.5):
    return build_system(1, 1, [1.0, 1.0], coupling=[[0.0, c12], [c21, 0.0]], b=[[b]])


def test_zero_coupling_zero_kernel():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    ker = solve_kernel(spec, NK=32)
    assert np.all(ker.values == 0.0)
    assert ker.report.iterations == 1


def test_diagonal_identity_constant_case():
    spec = _coupled_2x2(c12=0.8, c21=-0.3)
    ker = solve_kernel(spec, NK=48)
    dv = ker.diagonal_values()
    # K_12(x,x) * (lambda_2 + lambda_1) = C_12 exactly at the samples
    assert np.allclose(dv[0, 1] * 2.0, 0.8, atol=0.0)
    assert np.allclose(dv[1, 0] * (-2.0), -0.3, atol=0.0)


def test_diagonal_identity_variable_speeds():
    spec = build_system(
        1, 1, ["2 - 0.5*x", "1 + 0.5*x"], coupling=[[0.0, 1.0], [0.5, 0.0]], b=[[0.5]]
    )
    ker = solve_kernel(spec, NK=48)
    xs = ker.xs
    lam = spec.lambdas(xs)
    dv = ker.diagonal_values()
    target = 1.0 / (lam[1] + lam[0])
    assert np.max(np.abs(dv[0, 1] - target)) < 1e-9


def test_contraction_changes_decrease():
    spec = _coupled_2x2()
    ker = solve_kernel(spec, NK=32)
    changes = ker.report.changes
    assert all(b <= a * (1 + 1e-12) for a, b in zip(changes[1:], changes[2:]))


def test_rows_stop_at_their_own_tolerance(monkeypatch):
    # the rows are independent fixed points: each sweeps until its own change
    # is below the tolerance, and the report's changes are, per sweep, the
    # largest change among the rows still sweeping
    solved = []
    solve_row = backstepping._solve_row
    monkeypatch.setattr(backstepping, "_solve_row",
                        lambda *args: solved.append(solve_row(*args)) or solved[-1])
    ker = solve_kernel(_coupled_2x2(), NK=32, fp_tolerance=1e-10)
    rep = ker.report
    row_changes = [changes for _, changes, *_ in solved]
    sweeps = rep.diagnostics["row_sweeps"]
    assert sweeps == [len(c) for c in row_changes]
    assert min(sweeps) < max(sweeps) and rep.iterations == max(sweeps)
    for changes in row_changes:
        assert changes[-1] < 1e-10 and all(c >= 1e-10 for c in changes[:-1])
    assert rep.changes == [max(c[s] for c in row_changes if s < len(c))
                           for s in range(rep.iterations)]
    assert rep.final_change == rep.changes[-1] < 1e-10


# the memory tests' systems: every kernel row has path samples
_MEMORY_SPECS = [
    _coupled_2x2(c12=0.1, c21=0.1),
    build_system(1, 2, ["1 + 0.5*x", "1 + 0.25*x", "2 - 0.25*x"],
                 coupling=[[0, 0.2, 0.1], [0.15, 0, 0.2], [0.1, 0.25, 0]], b=[[1, 2]]),
]


def test_residual_halves_under_refinement():
    spec = _coupled_2x2()
    r32 = solve_kernel(spec, NK=32).report.residual_linf
    r64 = solve_kernel(spec, NK=64).report.residual_linf
    assert 0.35 <= r64 / r32 <= 0.65


@pytest.mark.parametrize("spec", _MEMORY_SPECS, ids=["2x2", "3x3"])
def test_kernel_memory_per_path_sample(spec):
    # the path samples grow as NK^3 and set the solve's peak memory; the sweep
    # holds 48 + 8 r bytes per sample of a row and gather buffers of one block,
    # which peaks at 40 B (2x2) and 30 B (3x3) per sample of all rows at NK = 64;
    # a row held at 64 + 8 r bytes per sample peaks at 47 B on the 2x2
    tracemalloc.start()
    try:
        ker = solve_kernel(spec, NK=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 44 * ker.report.diagnostics["samples"]


@pytest.mark.parametrize("spec", _MEMORY_SPECS, ids=["2x2", "3x3"])
def test_kernel_memory_follows_the_largest_row(spec):
    # one row's path geometry is held at a time, so the peak follows the
    # largest row's samples, not the total
    NK = 64
    tables = [cumulative_travel(spec, i, n_fine=max(N_FINE, 8 * NK)) for i in range(spec.n)]
    row_samples = [sum(g["coef"].shape[1] for g in geoms if g["rows"])
                   for geoms in ([_entry_geometry(spec, i, j, tables, NK) for j in range(spec.n)]
                                 for i in range(spec.n))]
    tracemalloc.start()
    try:
        ker = solve_kernel(spec, NK=NK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ker.report.diagnostics["samples"] == sum(row_samples)
    assert peak <= 90 * max(row_samples)


def test_geometry_bytes_count_each_held_array_once():
    # 48 + 8 r bytes per path sample of a row (r = 1 on the 2x2), plus three
    # gather buffers of the row's largest block; the per-point arrays add
    # the rest
    spec, NK = _MEMORY_SPECS[0], 64
    tables = [cumulative_travel(spec, i, n_fine=max(N_FINE, 8 * NK)) for i in range(spec.n)]
    expected = []
    for i in range(spec.n):
        geoms = [_entry_geometry(spec, i, j, tables, NK) for j in range(spec.n)]
        block = max(np.diff(g["seg_starts"][g["blocks"]]).max() for g in geoms)
        expected.append(56 * sum(g["coef"].shape[1] for g in geoms) + 3 * 8 * block)
    held = solve_kernel(spec, NK=NK).report.diagnostics["geometry_bytes"]
    assert max(expected) <= held <= 1.05 * max(expected)


@pytest.mark.parametrize("spec", _MEMORY_SPECS, ids=["2x2", "3x3"])
def test_kernel_does_not_depend_on_the_block_size(spec, monkeypatch):
    # the geometry is built in blocks of whole segments; every per-sample step
    # is elementwise, so one segment per block, about 300 samples and the
    # default all give the same bits
    values = []
    for block in (1, 300, backstepping._BLOCK_SAMPLES):
        monkeypatch.setattr(backstepping, "_BLOCK_SAMPLES", block)
        values.append(solve_kernel(spec, NK=24).values)
    assert all(np.array_equal(v, values[0]) for v in values[1:])


@pytest.mark.parametrize("spec", _MEMORY_SPECS, ids=["2x2", "3x3"])
def test_entry_geometry_temporaries_stay_within_a_few_blocks(spec):
    # no temporary of an entry's build is larger than one block, so its peak is
    # the arrays it returns plus a few blocks' worth of their bytes
    NK = 96
    tables = [cumulative_travel(spec, i, n_fine=max(N_FINE, 8 * NK)) for i in range(spec.n)]
    for j in range(spec.n):
        tracemalloc.start()
        try:
            g = _entry_geometry(spec, 1, j, tables, NK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in (*g.values(), *g["interp"]) if isinstance(a, np.ndarray))
        block = (48 + 8 * len(g["rows"])) * backstepping._BLOCK_SAMPLES
        assert g["coef"].shape[1] > 4 * backstepping._BLOCK_SAMPLES
        assert peak <= held + 3 * block


def test_zero_coupling_samples_no_paths():
    # a zero coupling column is read off its representation before any path is
    # sampled; building and dropping the paths peaked at 16.5 MB here
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    tracemalloc.start()
    try:
        ker = solve_kernel(spec, NK=128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ker.report.diagnostics["samples"] == 0 and np.all(ker.values == 0.0)
    assert peak < 6e6


def test_kernel_diagnostics_keys():
    diag = solve_kernel(_coupled_2x2(), NK=16).report.diagnostics
    assert sorted(diag) == ["geometry_bytes", "geometry_s", "row_sweeps", "samples", "sweeps_s"]
    assert len(diag["row_sweeps"]) == 2 and min(diag["row_sweeps"]) >= 1
    assert diag["samples"] > 0 and diag["geometry_bytes"] > 0
    assert diag["geometry_s"] > 0.0 and diag["sweeps_s"] > 0.0


def test_diagonal_coupling_rejected():
    spec = build_system(1, 1, [1.0, 1.0], coupling=[[0.5, 1.0], [1.0, 0.0]], b=[[0.5]])
    with pytest.raises(DiagonalCouplingPresent):
        solve_kernel(spec, NK=16)


def test_preprocess_identity_for_clean_coupling():
    spec = _coupled_2x2()
    out, gauge = preprocess_diagonal(spec)
    assert gauge.identity
    assert out is spec


def test_preprocess_gauge_closed_form():
    c = 0.8
    spec = build_system(
        2, 1, [2.0, 1.0, 3.0],
        coupling=[[c, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        b=[[0.1], [0.2]],
    )
    out, gauge = preprocess_diagonal(spec)
    # component 1 has speed -2, so the multiplier is exp(-c x / 2)
    assert np.allclose(gauge.factors[0], np.exp(-c * gauge.xs / 2.0), atol=1e-8)
    assert out.coupling_bound < 1e-10


def test_preprocess_keeps_speeds():
    # the gauged system is rebuilt from the parts of the original one
    spec = build_system(1, 1, [1.0, 2.0], coupling=[[0.4, 0.2], [0.6, -0.3]], b=[[0.5]])
    out, gauge = preprocess_diagonal(spec)
    assert not gauge.identity
    assert np.array_equal(out.B, spec.B)
    assert all(a is b for a, b in zip(out.speeds, spec.speeds))
    # 0.6 exp(x/4) at x = 1, sampled on the gauge grid
    assert out.coupling_bound == 0.7704152500126341


def test_preprocess_round_trip():
    rng = np.random.default_rng(1)
    spec = build_system(
        1, 1, [1.0, 2.0], coupling=[[0.4, 0.6], [0.2, -0.3]], b=[[0.5]]
    )
    _, gauge = preprocess_diagonal(spec)
    grid = GridSpec(N=100, cfl=0.9, T=1.0)
    w = StateField(rng.standard_normal((2, 101)), 0.0, grid.xs)
    back = gauge.unapply(gauge.apply(w))
    assert np.max(np.abs(back.values - w.values)) < 1e-12 * np.max(np.abs(w.values))


def test_source_matrix_structure():
    spec = _coupled_2x2()
    ker = solve_kernel(spec, NK=48)
    S = source_matrix(ker, spec)
    assert np.all(S.values[:, 0, :] == 0.0)  # first k columns exactly zero
    assert S.lower_triangle_max <= 10 * ker.report.residual_linf


def test_source_matrix_zero_kernel():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    ker = solve_kernel(spec, NK=16)
    S = source_matrix(ker, spec)
    assert np.all(S.values == 0.0)


def test_transform_identity_for_zero_kernel():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    ker = solve_kernel(spec, NK=16)
    grid = GridSpec(N=64, cfl=0.9, T=1.0)
    rng = np.random.default_rng(2)
    w = StateField(rng.standard_normal((2, 65)), 0.0, grid.xs)
    u = transform(w, ker)
    assert np.array_equal(u.values, w.values)
    assert np.all(transform(StateField(np.zeros((2, 65)), 0.0, grid.xs), ker).values == 0.0)


def test_transform_grid_mismatch():
    spec = _coupled_2x2(c12=0.5, c21=0.5)
    ker = solve_kernel(spec, NK=16)
    xs = np.linspace(0.0, 1.0, 33) ** 2  # non-uniform
    with pytest.raises(GridMismatch, match="uniform"):
        transform(StateField(np.zeros((2, 33)), 0.0, xs), ker)
    uniform = np.linspace(0.0, 1.0, 33)
    for op in (transform, inverse_transform):
        with pytest.raises(GridMismatch, match="component counts") as info:
            op(StateField(np.zeros((3, 33)), 0.0, uniform), ker)
        assert isinstance(info.value, ValidationError)  # CLI exit code 2


def test_volterra_round_trip():
    spec = _coupled_2x2()
    ker = solve_kernel(spec, NK=48)
    grid = GridSpec(N=200, cfl=0.9, T=1.0)
    rng = np.random.default_rng(3)
    for _ in range(3):
        w = StateField(rng.standard_normal((2, 201)), 0.0, grid.xs)
        back = inverse_transform(transform(w, ker), ker)
        rel = np.max(np.abs(back.values - w.values)) / np.max(np.abs(w.values))
        assert rel <= 1e-10


def test_volterra_operator_is_built_once_per_kernel_and_grid(monkeypatch):
    ker = solve_kernel(_coupled_2x2(), NK=16)
    # read-only values, copied from the array given, keep a kept operator current
    with pytest.raises(ValueError, match="read-only"):
        ker.values[0, 1, 5] = 1.0
    given_values = ker.values.copy()
    copy = Kernel(ker.n, ker.k, ker.NK, given_values)
    given_values[:] = 0.0
    assert np.array_equal(copy.values, ker.values)

    built = []
    rows_at = Kernel.rows_at
    monkeypatch.setattr(
        Kernel, "rows_at", lambda self, x, ys: built.append(self) or rows_at(self, x, ys)
    )
    rng = np.random.default_rng(4)
    # three states on one grid, one on a second grid, one on the first again:
    # the kernel keeps the latest grid's operator only
    for N, builds in ((40, 1), (40, 1), (40, 1), (64, 2), (40, 3)):
        xs = np.linspace(0.0, 1.0, N + 1)
        w = StateField(rng.standard_normal((2, N + 1)), 0.0, xs)
        u = transform(w, ker)
        back = inverse_transform(u, ker)
        assert sum(b is ker for b in built) == builds
        op = ker.volterra_operator(xs)
        assert op.shape == (N + 1, N + 1, 2, 2) and not op.flags.writeable
        assert ker.volterra_operator(xs.copy()) is op
        # the same bits as on a fresh kernel per call
        fresh = [Kernel(ker.n, ker.k, ker.NK, ker.values) for _ in range(2)]
        assert u.values.tobytes() == transform(w, fresh[0]).values.tobytes()
        assert back.values.tobytes() == inverse_transform(u, fresh[1]).values.tobytes()


def _kernel_at(values, NK, x, y):
    """K(x, y), y <= x, one point at a time: bilinear in the cells below the
    diagonal, affine on the lower triangle of a cell the diagonal cuts."""
    tx, ty = x * NK, y * NK
    p = min(int(tx), NK - 1)
    q = min(int(ty), p)
    fx, fy = tx - p, ty - q

    def node(a, b):
        return values[:, :, a * (a + 1) // 2 + b]

    if q == p:
        fy = min(fy, fx)
        return (1 - fx) * node(p, p) + (fx - fy) * node(p + 1, p) + fy * node(p + 1, p + 1)
    return ((1 - fx) * (1 - fy) * node(p, q) + fx * (1 - fy) * node(p + 1, q)
            + (1 - fx) * fy * node(p, q + 1) + fx * fy * node(p + 1, q + 1))


@pytest.mark.parametrize("NK, n", [(8, 2), (13, 3)])
def test_row_gather_matches_full_gather(NK, n):
    rng = np.random.default_rng(NK)
    values = rng.uniform(-1.0, 1.0, (n, n, (NK + 1) * (NK + 2) // 2))
    # random points, nodes, diagonal points and points outside the triangle
    xq = np.concatenate([rng.uniform(-0.1, 1.1, 300), np.arange(NK + 1) / NK, [0.3, 1.0]])
    yq = np.concatenate([rng.uniform(-0.1, 1.1, 300), np.arange(NK + 1) / NK, [0.1, 0.0]])
    cols, wts = _triangle_interp(xq.copy(), yq.copy(), NK)
    full = _gather(cols, wts, values)
    assert np.array_equal(np.moveaxis(full, -1, 0), Kernel(n, 1, NK, values).rows_at(xq, yq))
    out, buf = np.empty((2, xq.size))
    for i in range(n):
        for l in range(n):
            assert np.array_equal(_gather(cols, wts, values[i, l], out, buf), full[i, l])

    # the four-corner form, summed in the same order, gives the same bits
    x = np.clip(xq, 0.0, 1.0)
    y = np.minimum(np.clip(yq, 0.0, None), x)
    p = np.clip((x * NK).astype(int), 0, NK - 1)
    q = np.minimum(np.clip((y * NK).astype(int), 0, NK - 1), p)
    fx = np.clip(x * NK - p, 0.0, 1.0)
    fy = np.clip(y * NK - q, 0.0, 1.0)
    cut = q == p
    fy = np.where(cut, np.minimum(fy, fx), fy)
    corners = [
        (np.where(cut, 1 - fx, (1 - fx) * (1 - fy)), p, q),
        (np.where(cut, 0.0, (1 - fx) * fy), p, np.where(cut, q, q + 1)),
        (np.where(cut, fx - fy, fx * (1 - fy)), p + 1, q),
        (np.where(cut, fy, fx * fy), p + 1, q + 1),
    ]
    ref = sum((w * values[..., a * (a + 1) // 2 + b] for w, a, b in corners[1:]),
              corners[0][0] * values[..., p * (p + 1) // 2 + q])
    assert np.array_equal(full, ref)


@pytest.mark.parametrize("NK", [8, 13])
def test_rows_at_is_affine_on_diagonal_cut_cells(NK):
    # a cut cell's corner 2 has weight 0; its index is that of (p+1, 0), here
    # given a huge value that any nonzero weight would show
    rng = np.random.default_rng(NK)
    values = rng.uniform(-1.0, 1.0, (2, 2, (NK + 1) * (NK + 2) // 2))
    values[..., [(p + 1) * (p + 2) // 2 for p in range(NK)]] = 1e300
    p = np.concatenate([np.arange(NK), [NK - 1, NK - 1]])
    fx = np.concatenate([rng.uniform(0.0, 1.0, NK), [1.0, 0.5]])
    fy = np.concatenate([fx[:NK] * rng.uniform(0.0, 1.0, NK), [1.0, 0.0]])
    x, y = (p + fx) / NK, (p + fy) / NK
    assert x[-2] == y[-2] == 1.0
    got = Kernel(2, 1, NK, values).rows_at(x, y)
    # the fractions as rows_at takes them from the points
    fx = x * NK - p
    fy = np.minimum(y * NK - p, fx)

    def node(a, b):
        return np.moveaxis(values[..., a * (a + 1) // 2 + b], -1, 0)

    want = ((1 - fx)[:, None, None] * node(p, p) + (fx - fy)[:, None, None] * node(p + 1, p)
            + fy[:, None, None] * node(p + 1, p + 1))
    assert np.array_equal(got, want)


@settings(max_examples=20, deadline=None)
@given(st.integers(8, 32), st.integers(8, 120), st.sampled_from([2, 3]),
       st.integers(0, 2**32 - 1))
def test_volterra_operator_matches_row_loop(NK, N, n, seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, (n, n, (NK + 1) * (NK + 2) // 2))
    ker = Kernel(n=n, k=1, NK=NK, values=values)
    xs = np.linspace(0.0, 1.0, N + 1)
    h = xs[1] - xs[0]
    w = StateField(rng.standard_normal((n, N + 1)), 0.0, xs)

    ref = w.values.copy()
    for p in range(1, N + 1):
        for q in range(p + 1):
            wt = h / 2 if q in (0, p) else h
            ref[:, p] -= wt * _kernel_at(values, NK, xs[p], xs[q]) @ w.values[:, q]
    u = transform(w, ker)
    assert np.max(np.abs(u.values - ref)) <= 1e-13
    back = inverse_transform(u, ker)
    assert np.max(np.abs(back.values - w.values)) <= 1e-10 * np.max(np.abs(w.values))

    # the kept inverses of the blocks I - op[p, p] against one solve per node:
    # a few eps per node, carried by the resolvent, which |K| <= 1 bounds by e^n
    op = ker.volterra_operator(xs)
    solved = u.values.copy()
    for p in range(1, N + 1):
        rhs = u.values[:, p] + np.einsum("qij,jq->i", op[p, :p], solved[:, :p])
        solved[:, p] = np.linalg.solve(np.eye(n) - op[p, p], rhs)
    bound = 4 * N * np.exp(n) * np.finfo(float).eps
    assert np.max(np.abs(back.values - solved)) <= bound * np.max(np.abs(solved))

    # on the kernel's own grid the operator holds the node values times the
    # trapezoid weights.  x*NK may land an ulp or two of NK off the node index,
    # which leaves weight |x*NK - p| <= 2*NK*eps on a neighbour: with |K| <= 1
    # and trapezoid weights <= 1/NK that is at most 4 eps
    xs = np.linspace(0.0, 1.0, NK + 1)
    op = ker.volterra_operator(xs)
    p, q = np.tril_indices(NK + 1)
    wts = np.where((q == 0) | (q == p), xs[1] / 2, xs[1])
    nodes = np.moveaxis(values[:, :, p * (p + 1) // 2 + q], -1, 0) * wts[:, None, None]
    nodes[p == 0] = 0.0
    assert np.max(np.abs(op[p, q] - nodes)) <= 4 * np.finfo(float).eps
    assert np.all(op[np.triu_indices(NK + 1, 1)] == 0.0)


def test_target_residual_zero_trajectory():
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    grid = GridSpec(N=64, cfl=0.9, T=0.5)
    w0 = StateField(np.zeros((2, 65)), 0.0, grid.xs)
    traj = solve_forward(spec, w0, zero_control(1), grid, snapshot_stride=1)
    assert target_residual(traj, None, spec) == 0.0


def test_target_residual_plain_truncation_error():
    # with zero coupling the kernel vanishes and the residual is the upwind
    # truncation error of the raw scheme, O(h)
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    res = {}
    for N in (100, 200):
        grid = GridSpec(N=N, cfl=0.9, T=0.5)
        w0 = state_from_exprs(
            ["exp(-((x-0.5)/0.15)**2)", "exp(-((x-0.5)/0.15)**2)"], grid, 2
        )
        traj = solve_forward(spec, w0, zero_control(1), grid, snapshot_stride=1)
        res[N] = target_residual(traj, None, spec)
    assert res[200] < res[100]
    assert res[100] / res[200] > 1.5


def test_transformed_trajectory_residual_refines():
    spec = _coupled_2x2(c12=0.6, c21=0.4)
    ker_lo = solve_kernel(spec, NK=32)
    ker_hi = solve_kernel(spec, NK=64)
    vals = {}
    for N, ker in ((200, ker_lo), (400, ker_hi)):
        grid = GridSpec(N=N, cfl=0.9, T=0.4)
        w0 = state_from_exprs(
            ["0.5*exp(-((x-0.5)/0.15)**2)", "exp(-((x-0.45)/0.15)**2)"], grid, 2
        )
        traj = solve_forward(spec, w0, zero_control(1), grid, snapshot_stride=1)
        u_snaps = np.stack(
            [transform(StateField(s, t, grid.xs), ker).values
             for s, t in zip(traj.snapshots, traj.snapshot_times)]
        )
        u_traj = Trajectory(
            grid=grid,
            dt=traj.dt,
            times=traj.times,
            snapshot_times=traj.snapshot_times,
            snapshots=u_snaps,
            norms_l2=traj.norms_l2,
            norms_linf=traj.norms_linf,
        )
        S = source_matrix(ker, spec)
        vals[N] = target_residual(u_traj, S, spec)
    assert vals[200] / vals[400] >= 1.6


def test_pde_residual_reported_entrywise():
    spec = _coupled_2x2()
    ker = solve_kernel(spec, NK=32)
    linf, per_entry = kernel_pde_residual(ker, spec)
    assert per_entry.shape == (2, 2)
    assert linf == np.max(per_entry)
