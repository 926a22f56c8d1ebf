"""Tests of the benchmark itself: inputs, checks, tracer and metric names."""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import hypctrl.cli as cli  # noqa: E402

from perfbench import checks, metrics, run, workloads  # noqa: E402
from perfbench.tracer import METHOD_COUNTERS, METHOD_SPANS, Tracer  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.name != "plan.json"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_regenerates_identical_inputs(tmp_path, workload):
    plan_a = workloads.generate(workload, 7, tmp_path / "a")
    plan_b = workloads.generate(workload, 7, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [t["args"] for t in plan_a] == [t["args"] for t in plan_b]
    workloads.generate(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


_GOOD = {
    "nullctrl_above": {"residual": 1e-3},
    "nullctrl_below": {"residual": 0.6},
    "witness": {"deviation": 0.01},
    "observability_above": {"estimate": 0.5},
    "observability_below": {"estimate": 1e-6},
    "sweep": {"residuals": [1e-3, 2e-3, 1e-3, 3e-3]},
    "kernel_2x2": {"residual_linf": 1e-3, "lower_triangle": 1e-4},
    "kernel_3x3": {"residual_linf": 1e-3, "lower_triangle": 1e-2},
    "dual_kernel": {"energy": 0.2},
    "volterra": {"round_trip": 1e-14},
    "feedback_linear": {"terminal_rel": 1e-3},
    "feedback_quasilinear": {"terminal_rel": 0.03},
    "simulate_linear": {"terminal": [0.0, 1.0], "binary": [0.0, 1.0]},
    "simulate_quasilinear": {"terminal": [0.0, 1.0]},
}

_BAD = {
    "nullctrl_above": {"residual": 0.05},
    "nullctrl_below": {"residual": 0.1},
    "witness": {"deviation": 0.2},
    "observability_above": {"estimate": 0.05},
    "observability_below": {"estimate": 1e-2},
    "sweep": {"residuals": [1e-3, 2e-3, 1e-3, 0.5]},
    "kernel_2x2": {"residual_linf": 1e-3, "lower_triangle": 1e-1},
    "kernel_3x3": {"residual_linf": 1e-3, "lower_triangle": 1.1e-2},
    "dual_kernel": {"energy": 0.0},
    "volterra": {"round_trip": 1e-8},
    "feedback_linear": {"terminal_rel": 0.05},
    "feedback_quasilinear": {"terminal_rel": 0.2},
    "simulate_linear": {"terminal": [0.0, 1.0], "binary": [0.0, 1.0 + 1e-15]},
    "simulate_quasilinear": {"terminal": [0.0, math.inf]},
}


def _all_tasks(tmp_path) -> dict:
    tasks = {}
    for w in workloads.WORKLOADS:
        for t in workloads.generate(w, 1, tmp_path / w):
            tasks[t["name"]] = t
    return tasks


def test_perturbed_result_fails_its_check(tmp_path):
    tasks = _all_tasks(tmp_path)
    for name, good in _GOOD.items():
        assert checks.verify(tasks[name], good) == [], name
        assert checks.verify(tasks[name], _BAD[name]), name
        key = next(iter(good))
        nan = dict(good, **{key: math.nan})
        assert checks.verify(tasks[name], nan), name


def test_perturbation_covers_every_task(tmp_path):
    tasks = _all_tasks(tmp_path)
    assert set(_GOOD) == set(_BAD) == set(tasks)
    assert {t["command"] for t in tasks.values()} == set(workloads.COMMANDS)


def _attributes() -> dict:
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "hypctrl" or name.startswith("hypctrl."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
    for module, cls_name, method in METHOD_SPANS + METHOD_COUNTERS:
        cls = getattr(sys.modules[module], cls_name)
        snap[(module, cls_name, method)] = cls.__dict__[method]
    return snap


def test_tracer_restores_every_patched_attribute():
    before = _attributes()
    tracer = Tracer()
    with tracer:
        during = _attributes()
        changed = [k for k in before if during[k] is not before[k]]
        assert ("hypctrl.simulator", "solve_forward") in changed
        # imported by name elsewhere: patched there too
        assert ("hypctrl.controller", "solve_forward") in changed
        assert ("hypctrl.cli", "solve_forward") in changed
        assert ("hypctrl.cli", "main") not in changed
        assert ("hypctrl.expressions", "Expr", "__call__") in changed
    after = _attributes()
    assert all(after[k] is before[k] for k in before)
    assert metrics.absent(tracer) == []


def test_absent_target_is_reported_not_fatal(monkeypatch):
    import perfbench.tracer as tracer_mod

    monkeypatch.setattr(
        tracer_mod, "METHOD_COUNTERS",
        METHOD_COUNTERS + (("hypctrl.backstepping", "Kernel", "gone_method"),),
    )
    monkeypatch.setitem(metrics.COUNTERS, "backstepping.gone", ("backstepping.Kernel.gone_method.calls",))
    monkeypatch.setitem(metrics.GROUPS, "simulator.forward", ("simulator.gone_function",))
    tracer = Tracer()
    with tracer:
        pass
    assert metrics.absent(tracer) == ["backstepping.Kernel.gone_method", "simulator.gone_function"]
    layers = metrics.layer_metrics(tracer, 0)
    assert layers["simulator.forward.self_s"] == 0 and layers["backstepping.gone"] == 0


_TINY = {
    "speeds": {"k": 1, "m": 1, "lambda1": 1, "lambda2": 1},
    "coupling": {"matrix": "0 1; 1 0", "gamma": 0.1},
    "boundary": {"b": 0.5},
    "grid": {"n": 32, "cfl": 0.95, "t": 2.2},
    "initial": {"w1": "exp(-((x - 0.5)/0.1)**2)", "w2": "0"},
    "nullctrl": {"segments": 4},
    "sweep": {"gamma_values": "0, 1", "b_scale_values": "1", "segments": 4},
}


def _traced_counts(cfg: Path, out: Path, argv: list) -> tuple:
    tracer = Tracer()
    with tracer, tracer.span(f"cli.{argv[0]}", root=True):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--config", str(cfg), "--out", str(out)])
    assert code == 0
    layers = metrics.layer_metrics(tracer, 0)
    return {k: layers[k] for k in metrics.EXACT if k in layers}, layers, tracer


def test_exact_counts_repeat_between_runs(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(workloads._config(_TINY))
    first, layers, _ = _traced_counts(cfg, tmp_path / "a", ["nullctrl"])
    second, _, _ = _traced_counts(cfg, tmp_path / "b", ["nullctrl"])
    assert first == second
    # m * segments basis runs, the free run and the re-simulation
    assert first["simulator.forward.calls"] == 1 * 4 + 2
    assert first["simulator.forward.steps"] > 0
    assert layers["controller.nullctrl.self_s"] > 0.0


def test_worker_thread_spans_attach_to_the_task(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(workloads._config(_TINY))
    counts, layers, tracer = _traced_counts(cfg, tmp_path / "s", ["sweep", "--jobs", "2"])
    assert counts["simulator.forward.calls"] == 2 * (4 + 2)
    task = next(s for s in tracer.spans if s[2] == "cli.sweep")
    nullctrl = [s for s in tracer.spans if s[2] == "controller.null_control_openloop"]
    assert len(nullctrl) == 2 and all(s[1] == task[0] for s in nullctrl)
    covered = task[4] - task[3] - layers["cli.sweep.self_s"]
    assert covered >= max(s[4] - s[3] for s in nullctrl)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_of_an_empty_trace_are_zero():
    layers = metrics.layer_metrics(Tracer(), 0)
    untraced = {f"cli.{c}.wall_s" for c in workloads.COMMANDS}
    untraced |= {"trace.overhead_frac", "host.raw_wall_s", "host.reference_ms"}
    assert set(layers) | untraced == set(metrics.PER_LAYER)
    assert all(v == 0 for v in layers.values())


def test_rescale_scales_times_and_keeps_counts():
    slow = {
        "setup_s": 1.0,
        "wall_s": 10.0,
        "reference_s": [run.REFERENCE_NOMINAL_S * 1.5, run.REFERENCE_NOMINAL_S * 2.5],
        "tasks": [{"name": "t", "seconds": 4.0}],
        "layers": {"simulator.forward.self_s": 2.0, "simulator.forward.calls": 7},
    }
    out = run.rescale(slow)
    assert out["setup_s"] == pytest.approx(0.5)
    assert out["wall_s"] == pytest.approx(5.0) and out["raw_wall_s"] == 10.0
    assert out["tasks"][0]["seconds"] == pytest.approx(2.0)
    assert out["layers"] == {"simulator.forward.self_s": pytest.approx(1.0),
                             "simulator.forward.calls": 7}
    assert slow["wall_s"] == 10.0
