"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import contextlib
import io
import time
from pathlib import Path

import numpy as np
import pytest

from hypctrl.backstepping import inverse_transform, solve_kernel, source_matrix, transform
from hypctrl.bmatrix import in_class_B
from hypctrl.cli import main
from hypctrl.controller import (
    null_control_openloop,
    optimality_witness,
    run_closed_loop,
    synthesize_feedback,
    verify_observability,
    verify_witness,
)
from hypctrl.core import CouplingField, GridSpec, StateField, build_system, state_from_exprs
from hypctrl.simulator import solve_forward, zero_control
from hypctrl.times import legacy_times, optimal_time, travel_times


def _report(num, desc, ok, t0):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} ({time.time() - t0:.1f}s) - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_travel_times():
    t0 = time.time()
    tau_log = travel_times(build_system(1, 1, ["1 + x", 5.0], b=[[0.0]]))[0]
    tau_rec = travel_times(build_system(1, 1, ["1 / (1 + x)", 5.0], b=[[0.0]]))[0]
    ok = abs(tau_log - np.log(2.0)) < 1e-10 and abs(tau_rec - 1.5) < 1e-10
    ok = ok and (time.time() - t0) < 1.0
    _report(1, "travel times match ln 2 and 3/2 within 1e-10", ok, t0)


def test_criterion_02_optimal_time_formula():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(20):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        # orderings implied by the speed profile: tau increasing on the
        # negative block, decreasing on the positive block
        tau = np.concatenate(
            [np.sort(rng.uniform(0.05, 3.0, k)), np.sort(rng.uniform(0.05, 3.0, m))[::-1]]
        )
        if m >= k:
            brute = max(
                [tau[i - 1] + tau[m + i - 1] for i in range(1, k + 1)] + [tau[k]]
            )
        else:
            brute = max(tau[k - m + j - 1] + tau[k + j - 1] for j in range(1, m + 1))
        topt = optimal_time(tau, k, m)
        t1, _ = legacy_times(tau, k, m)
        ok = ok and topt == brute and topt <= t1 + 1e-12
    ok = ok and (time.time() - t0) < 1.0
    _report(2, "optimal time equals brute-force max, bounded by T1, 20 draws", ok, t0)


def test_criterion_03_class_membership():
    t0 = time.time()
    rng = np.random.default_rng(7)
    ok = True
    for shape in ((3, 4), (4, 3)):
        hits = 0
        for _ in range(1000):
            B = rng.standard_normal(shape)
            hits += in_class_B(B)
        ok = ok and hits == 1000
        # planting a zero in the trailing entry kills the order-1 minor
        B = rng.standard_normal(shape)
        B[-1, -1] = 0.0
        ok = ok and not in_class_B(B)
    ok = ok and (time.time() - t0) < 5.0
    _report(3, "Gaussian matrices admissible at frequency 1.0; planted zero flips", ok, t0)


def test_criterion_04_simulator_convergence():
    t0 = time.time()
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.0]])
    g1 = lambda x: np.exp(-(((x - 0.45) / 0.1) ** 2))
    g2 = lambda x: np.exp(-(((x - 0.55) / 0.1) ** 2))
    errs = {}
    for N in (500, 1000, 2000):
        grid = GridSpec(N=N, cfl=0.9, T=0.5)
        xs = grid.xs
        w0 = StateField(np.vstack([g1(xs), g2(xs)]), 0.0, xs)
        traj = solve_forward(spec, w0, zero_control(1), grid)
        term = traj.terminal_state().values
        exact = np.vstack(
            [
                np.where(xs - 0.5 >= 0.0, g1(xs - 0.5), 0.0),
                np.where(xs + 0.5 <= 1.0, g2(xs + 0.5), 0.0),
            ]
        )
        errs[N] = (grid.h * np.sum(np.abs(term - exact)), np.max(np.abs(term - exact)))
    l1 = [errs[N][0] for N in (500, 1000, 2000)]
    slope = np.polyfit(np.log([500, 1000, 2000]), np.log(l1), 1)[0]
    order = -slope
    ok = 0.8 <= order <= 1.2 and errs[2000][1] < 0.02 * 1.0
    ok = ok and (time.time() - t0) < 30.0
    _report(4, f"upwind L1 order {order:.2f} in [0.8, 1.2]; N=2000 max err < 2%", ok, t0)


_KERNEL_SPEC = build_system(
    1, 1, [1.0, 1.0], coupling=[[0.0, 1.0], [1.0, 0.0]], b=[[0.5]]
)
_KERNEL_CACHE = {}


def _kernel(NK):
    if NK not in _KERNEL_CACHE:
        _KERNEL_CACHE[NK] = solve_kernel(_KERNEL_SPEC, NK=NK)
    return _KERNEL_CACHE[NK]


def test_criterion_05_kernel_correctness():
    t0 = time.time()
    zero_spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    kzero = solve_kernel(zero_spec, NK=64)
    ok = bool(np.all(kzero.values == 0.0))

    k64 = _kernel(64)
    k128 = _kernel(128)
    dv = k64.diagonal_values()
    # K_12(x,x) (lambda_2 + lambda_1) = C_12 exactly at the samples
    ok = ok and np.all(dv[0, 1] * 2.0 == 1.0)
    ratio = k128.report.residual_linf / k64.report.residual_linf
    ok = ok and 0.35 <= ratio <= 0.65
    S = source_matrix(k128, _KERNEL_SPEC)
    ok = ok and S.lower_triangle_max <= 10.0 * k128.report.residual_linf
    ok = ok and (time.time() - t0) < 120.0
    _report(
        5,
        f"zero kernel exact; diagonal identity exact; residual ratio {ratio:.2f}; "
        f"S_++ lower triangle {S.lower_triangle_max:.1e}",
        ok,
        t0,
    )


def test_criterion_06_volterra_round_trip():
    t0 = time.time()
    kernel = _kernel(64)
    grid = GridSpec(N=300, cfl=0.9, T=1.0)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        w = StateField(rng.standard_normal((2, 301)), 0.0, grid.xs)
        back = inverse_transform(transform(w, kernel), kernel)
        worst = max(worst, np.max(np.abs(back.values - w.values)) / np.max(np.abs(w.values)))
    ok = worst <= 1e-10 and (time.time() - t0) < 10.0
    _report(6, f"Volterra round trip relative error {worst:.1e} <= 1e-10", ok, t0)


def test_criterion_07_finite_time_feedback():
    t0 = time.time()
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    grid = GridSpec(N=2000, cfl=0.9, T=2.2)
    w0 = state_from_exprs(
        ["0.8*exp(-((x-0.5)/0.08)**2)", "exp(-((x-0.4)/0.09)**2)"], grid, 2
    )
    law = synthesize_feedback(spec, 2.2, w0)
    _, rep1 = run_closed_loop(law, w0, grid)
    ok = rep1.terminal_rel <= 1e-2

    spec2 = build_system(1, 2, [1.0, 1.0, 2.0], b=[[1.0, 2.0]])
    T2 = 1.5 + 0.2
    grid2 = GridSpec(N=2000, cfl=0.9, T=T2)
    w02 = state_from_exprs(
        [
            "0.5*exp(-((x-0.5)/0.08)**2)",
            "exp(-((x-0.45)/0.08)**2)",
            "0.7*exp(-((x-0.55)/0.08)**2)",
        ],
        grid2,
        3,
    )
    law2 = synthesize_feedback(spec2, T2, w02)
    _, rep2 = run_closed_loop(law2, w02, grid2)
    ok = ok and rep2.terminal_rel <= 2e-2
    ok = ok and (time.time() - t0) < 120.0
    _report(
        7,
        f"closed-loop terminal rel norms {rep1.terminal_rel:.1e} (<=1e-2) and "
        f"{rep2.terminal_rel:.1e} (<=2e-2)",
        ok,
        t0,
    )


def test_criterion_08_null_control_above_below():
    t0 = time.time()
    coupling = CouplingField(2, constant=[[0.0, 1.0], [1.0, 0.0]], gamma=0.1)
    spec = build_system(1, 1, [1.0, 1.0], coupling=coupling, b=[[0.5]])
    grid = GridSpec(N=256, cfl=0.95, T=2.2)
    w0 = state_from_exprs(
        ["0.6*exp(-((x-0.55)/0.1)**2)", "exp(-((x-0.45)/0.1)**2)"], grid, 2
    )
    above = null_control_openloop(spec, w0, grid, reg=1e-8, segments=64)
    ok = above.residual <= 1e-2
    grid_below = GridSpec(N=256, cfl=0.95, T=1.0)
    below = [
        null_control_openloop(spec, w0, grid_below, reg=r, segments=64).residual
        for r in (1e-6, 1e-8)
    ]
    ok = ok and all(r >= 0.2 for r in below)

    # witness on the zero-coupling companion, probing below the optimal time
    spec0 = build_system(1, 1, [1.0, 1.0], b=[[0.5]])
    wgrid = GridSpec(N=400, cfl=0.9, T=1.0)
    wit = optimality_witness(spec0, wgrid)
    dev, _ = verify_witness(spec0, wit, wgrid, n_controls=100, rng=np.random.default_rng(21))
    ok = ok and dev < 0.10
    ok = ok and (time.time() - t0) < 300.0
    _report(
        8,
        f"null control: residual {above.residual:.1e} above T_opt, "
        f"min {min(below):.2f} below; witness deviation {dev:.3f} < 0.10",
        ok,
        t0,
    )


def test_criterion_09_observability_dichotomy():
    t0 = time.time()
    spec = build_system(1, 1, [1.0, 1.0], b=[[0.0]])
    rng = np.random.default_rng(33)
    high = verify_observability(spec, 12, GridSpec(N=500, cfl=0.9, T=2.5), rng=rng)
    low = verify_observability(spec, 12, GridSpec(N=500, cfl=0.9, T=0.3), rng=rng)
    ok = high.estimate > 0.1 and low.estimate < 1e-3
    ok = ok and (time.time() - t0) < 120.0
    _report(
        9,
        f"observability estimate {high.estimate:.3g} > 0.1 at T=2.5, "
        f"{low.estimate:.3g} < 1e-3 at T=0.3",
        ok,
        t0,
    )


_DET_CFG = """
[speeds]
k = 1
m = 1
lambda1 = 1
lambda2 = 1

[coupling]
matrix = 0 0.4; 0.4 0
gamma = 1.0

[boundary]
b = 0.5

[grid]
n = 96
cfl = 0.9
t = 2.2

[initial]
w1 = 0.4*exp(-((x - 0.5)/0.1)**2)
w2 = exp(-((x - 0.4)/0.1)**2)

[dual]
v1 = 0
v2 = sin(pi*x)

[sweep]
gamma_values = 0, 1
b_scale_values = 1
t = 2.2
segments = 8

[run]
seed = 777
"""


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "det.cfg"
    cfg.write_text(_DET_CFG)
    # the witness construction and the feedback require zero coupling
    cfg0 = tmp_path / "det0.cfg"
    cfg0.write_text(_DET_CFG.replace("matrix = 0 0.4; 0.4 0", "matrix = 0 0; 0 0"))
    commands = [
        ["times", "--config", str(cfg), "--json"],
        ["check-b", "--config", str(cfg), "--json"],
        ["simulate", "--config", str(cfg), "--binary"],
        ["dual", "--config", str(cfg), "--T", "1.0", "--N", "64"],
        ["kernel", "--config", str(cfg), "--nk", "16"],
        ["feedback", "--config", str(cfg0), "--N", "128"],
        ["nullctrl", "--config", str(cfg), "--T", "2.4", "--segments", "8", "--N", "64"],
        ["witness", "--config", str(cfg0), "--T", "1.0", "--N", "128", "--samples", "3"],
        ["observability", "--config", str(cfg), "--T", "1.0", "--N", "64", "--samples", "2"],
        ["sweep", "--config", str(cfg), "--N", "64"],
    ]
    ok = True
    for argv in commands:
        captures = []
        for tag in ("a", "b"):
            out = tmp_path / (argv[0] + tag)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv + ["--out", str(out)])
            files = {
                p.name: p.read_bytes() for p in sorted(out.glob("*")) if p.is_file()
            }
            captures.append((code, buf.getvalue(), files))
        same = captures[0] == captures[1] and captures[0][0] == 0
        if not same:
            print(f"  determinism mismatch for {argv[0]}")
        ok = ok and same
    ok = ok and (time.time() - t0) < 60.0
    _report(10, "all ten CLI commands byte-identical across two seeded runs", ok, t0)
