"""Seeded inputs for the two benchmark workloads.

``generate(workload, seed, workdir)`` writes the workload's config files (and,
for ``kernel_quasilinear``, the Volterra states) into ``workdir`` and returns the
task plan: an ordered list of dicts that ``perfbench.worker`` executes.  The
program receives only these generated files.  The same (workload, seed) gives
byte-identical files.

Seeded quantities and their ranges:

- bump amplitudes in [0.5, 1.0] and centres in [0.4, 0.6] for every initial
  and dual datum (every bump is at least four widths from both corners, so
  the compatibility conditions hold to roundoff);
- the witness amplitude in [0.5, 1.5];
- the RNG seeds passed to ``witness``, ``observability`` and ``sweep``;
- the four Volterra states, standard normal entries.

Problem sizes do not depend on the seed, so every seed does the same work.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

WORKLOADS = ("linear", "kernel_quasilinear")

# commands in the order their metrics are reported
COMMANDS = (
    "nullctrl",
    "witness",
    "observability",
    "sweep",
    "kernel",
    "dual",
    "volterra",
    "feedback",
    "simulate",
)

VOLTERRA_STATES = 4
VOLTERRA_N = 400
VOLTERRA_NK = 64


def _num(value: float) -> str:
    return repr(round(float(value), 4))


class _Draw:
    """Seeded draws, rounded so that the config text is short and exact."""

    def __init__(self, workload: str, seed: int):
        self.rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])

    def uniform(self, lo: float, hi: float) -> str:
        return _num(self.rng.uniform(lo, hi))

    def bump(self, width: float) -> str:
        amp = self.uniform(0.5, 1.0)
        centre = self.uniform(0.4, 0.6)
        return f"{amp}*exp(-((x - {centre})/{width})**2)"

    def seed(self) -> int:
        return int(self.rng.integers(1, 2**31 - 1))


def _config(sections: dict) -> str:
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in body.items())
        lines.append("")
    return "\n".join(lines)


def _coupled_2x2(draw: _Draw, N: int, cfl: float, T: float, width: float = 0.1) -> dict:
    """The 2x2 system C = [[0,1],[1,0]], gamma = 0.1, B = 0.5, T_opt = 2."""
    return {
        "speeds": {"k": 1, "m": 1, "lambda1": 1, "lambda2": 1},
        "coupling": {"matrix": "0 1; 1 0", "gamma": 0.1},
        "boundary": {"b": 0.5},
        "grid": {"n": N, "cfl": cfl, "t": T},
        "initial": {"w1": draw.bump(width), "w2": draw.bump(width)},
    }


def _one_by_two(draw: _Draw, lam2: str, lam3: str, N: int, T: float) -> dict:
    """The 1x2 system with speeds (1, lam2, lam3), B = [1 2], T_opt = 1.5."""
    return {
        "speeds": {"k": 1, "m": 2, "lambda1": 1, "lambda2": lam2, "lambda3": lam3},
        "boundary": {"b": "1 2"},
        "grid": {"n": N, "cfl": 0.9, "t": T},
        "initial": {"w1": draw.bump(0.08), "w2": draw.bump(0.08), "w3": draw.bump(0.08)},
    }


def _task(name, command, cfg, args=(), check=None, **extra) -> dict:
    return {
        "name": name,
        "command": command,
        "config": cfg,
        "args": [str(a) for a in args],
        "check": check or {},
        **extra,
    }


def sweep_jobs() -> int:
    """Two sweep workers, never more than the CPUs this process may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _openloop(draw: _Draw, files: dict) -> list:
    """Many short forward and dual runs at N <= 500."""
    coupled = _coupled_2x2(draw, N=128, cfl=0.95, T=2.2)
    coupled["nullctrl"] = {"segments": 64, "reg": 1e-8}
    coupled["sweep"] = {
        "gamma_values": "0, 1",
        "b_scale_values": "0.5, 1",
        "t": 2.2,
        "segments": 16,
        "reg": 1e-8,
    }
    coupled["run"] = {"seed": draw.seed()}
    files["coupled.cfg"] = coupled
    files["witness.cfg"] = {
        "speeds": {"k": 1, "m": 1, "lambda1": 1, "lambda2": 1},
        "boundary": {"b": 0.5},
        "grid": {"n": 400, "cfl": 0.9, "t": 1.0},
        "witness": {"t": 1.0, "samples": 50, "amplitude": draw.uniform(0.5, 1.5)},
        "run": {"seed": draw.seed()},
    }
    files["observe.cfg"] = {
        "speeds": {"k": 1, "m": 1, "lambda1": 1, "lambda2": 1},
        "boundary": {"b": 0},
        "grid": {"n": 500, "cfl": 0.9, "t": 2.5},
        "observability": {"samples": 12},
        "run": {"seed": draw.seed()},
    }
    return [
        _task("nullctrl_above", "nullctrl", "coupled.cfg", ["--T", 2.2],
              {"residual_max": 1e-2}),
        _task("nullctrl_below", "nullctrl", "coupled.cfg", ["--T", 1.0],
              {"residual_min": 0.2}),
        _task("witness", "witness", "witness.cfg", [], {"deviation_max": 0.10}),
        _task("observability_above", "observability", "observe.cfg", ["--T", 2.5],
              {"estimate_min": 0.1}),
        _task("observability_below", "observability", "observe.cfg", ["--T", 0.3],
              {"estimate_max": 1e-3}),
        _task("sweep", "sweep", "coupled.cfg", ["--jobs", sweep_jobs()],
              {"points": 4, "worst_max": 1e-2}),
    ]


def _backstepping(draw: _Draw, files: dict) -> list:
    """Kernels, a kernel-driven dual run and Volterra round trips."""
    coupled = _coupled_2x2(draw, N=4000, cfl=0.9, T=2.2)
    coupled["dual"] = {"v1": draw.bump(0.1), "v2": draw.bump(0.1)}
    files["coupled.cfg"] = coupled
    files["three.cfg"] = {
        "speeds": {
            "k": 1,
            "m": 2,
            "lambda1": "1 + 0.5*x",
            "lambda2": "1 + 0.25*x",
            "lambda3": "2 - 0.25*x",
        },
        "coupling": {"matrix": "0 0.2 0.1; 0.15 0 0.2; 0.1 0.25 0", "gamma": 1.0},
        "boundary": {"b": "1 2"},
        "grid": {"n": 256, "cfl": 0.9, "t": 2.0},
    }
    states = draw.rng.standard_normal((VOLTERRA_STATES, 2, VOLTERRA_N + 1))
    files["volterra_states.npy"] = states
    kernel_check = {"lower_triangle_vs_residual": 10.0}
    return [
        _task("kernel_2x2", "kernel", "coupled.cfg", ["--nk", 128], kernel_check),
        _task("kernel_3x3", "kernel", "three.cfg", ["--nk", 64], kernel_check),
        _task("dual_kernel", "dual", "coupled.cfg", ["--use-kernel", 64, "--T", 2.2],
              {"energy_positive": True}),
        _task("volterra", "volterra", "coupled.cfg", [], {"round_trip_max": 1e-10},
              states="volterra_states.npy", nk=VOLTERRA_NK),
    ]


def _closed_loop(draw: _Draw, files: dict) -> list:
    """One long linear forward run per task at N = 4000."""
    files["feedback.cfg"] = _one_by_two(draw, "1", "2", N=4000, T=1.7)
    files["coupled_long.cfg"] = _coupled_2x2(draw, N=4000, cfl=0.9, T=2.2)
    return [
        _task("feedback_linear", "feedback", "feedback.cfg", [],
              {"terminal_rel_max": 2e-2}),
        _task("simulate_linear", "simulate", "coupled_long.cfg", ["--binary"],
              {"binary": True}),
    ]


def _quasilinear(draw: _Draw, files: dict) -> list:
    """State-dependent speeds: the feedback law traces characteristics."""
    # amplitudes <= 1 keep lambda3 <= 2.1, so CFL 0.9 never needs a split step
    files["quasi.cfg"] = _one_by_two(
        draw, "1 + 0.1*w2**2", "2 + 0.1*w3**2", N=24, T=1.8
    )
    return [
        _task("feedback_quasilinear", "feedback", "quasi.cfg", [],
              {"terminal_rel_max": 0.1}),
        _task("simulate_quasilinear", "simulate", "quasi.cfg", ["--N", 2000, "--T", 1.0]),
    ]


# Each workload is two groups of tasks whose commands do not overlap, so the
# per-command metrics still tell the groups apart.
_BUILDERS = {
    "linear": (_openloop, _closed_loop),
    "kernel_quasilinear": (_backstepping, _quasilinear),
}


def generate(workload: str, seed: int, workdir) -> list:
    """Write the inputs of one workload into ``workdir``; return its task plan."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    draw = _Draw(workload, seed)
    files: dict = {}
    tasks = [t for build in _BUILDERS[workload] for t in build(draw, files)]
    for name, content in files.items():
        path = workdir / name
        if isinstance(content, np.ndarray):
            np.save(path, content, allow_pickle=False)
        else:
            path.write_text(_config(content))
    for t in tasks:
        t["config"] = str(workdir / t["config"])
        t["out"] = str(workdir / "out" / t["name"])
        if "states" in t:
            t["states"] = str(workdir / t["states"])
    (workdir / "plan.json").write_text(json.dumps(tasks, indent=1) + "\n")
    return tasks
