"""Microseconds per forward or dual step and per feedback-law call,
milliseconds per null control or witness check, per state of a Volterra
round trip and per kernel solve, two source trees against each other, each
timed in processes of its own.

    python3 tools/step_bench.py PARENT_SRC CHANGE_SRC [--seed S] [--rounds R] [--label TEXT]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  The
shapes are those of the two benchmark workloads, built from the config
files ``perfbench.workloads.generate`` writes for SEED:

- ``coupled_2x2_N128``: the coupled 2x2 of ``linear``'s ``nullctrl`` and
  ``sweep`` (N = 128, CFL 0.95, T = 2.2), one run;
- ``witness_b51_N400``: a step of a batch of 51 runs from random states on
  the uncoupled 2x2 (k = m = 1) of ``witness.cfg`` (N = 400, T = 1.0), the
  batch size the ``witness`` task ran at 50 samples before it ran one batch
  of 1 + 9m knot responses, whatever the samples;
- ``witness_N400``: ``linear``'s ``witness`` task, one ``verify_witness``
  call on ``witness.cfg``'s witness (N = 400) with its ``[witness]
  samples`` and amplitude and its ``[run] seed``, in ms per call;
- ``feedback_1x2_N4000``: the 1x2 of ``feedback`` under its law (N = 4000),
  over the first 0.3 of its horizon, where the law reads the state;
- ``coupled_2x2_N4000``: the coupled 2x2 of ``simulate`` (N = 4000) over 0.3;
- ``dual_b14_N500``: the dual run of ``observability`` at T = 2.5, the 1x2
  of ``observe.cfg`` (B = 0, no source matrix, N = 500) on a batch of 14
  random states, in us per step;
- ``dual_kernel_N4000``: ``kernel_quasilinear``'s ``dual --use-kernel 64``,
  the dual run of ``coupled.cfg`` from its dual datum (N = 4000) with the
  source matrix of its NK = 64 kernel, solved once per process, over the
  first 0.3, in us per step;
- ``dual_coupled_N4000``: the same dual run without a kernel, so on
  ``coupled.cfg``'s coupled system, in us per step;
- ``nullctrl_2x2_N128``: ``linear``'s ``nullctrl_above`` task, one
  ``null_control_openloop`` call at T = 2.2 on ``coupled.cfg`` (N = 128)
  with the segments and regularization of its ``[nullctrl]`` section, in
  ms per call: its free, basis and assembled runs and its least squares;
- ``nullctrl_2x2_N128_T1``: the same for ``linear``'s ``nullctrl_below``
  task, at T = 1.0;
- ``sweep_2x2_N128``: one point of ``linear``'s ``sweep`` task, the
  ``null_control_openloop`` call of ``coupled.cfg`` itself (gamma and b
  scale 1) at T = 2.2 with the segments and regularization of its
  ``[sweep]`` section, in ms per call;
- ``law_call``: one call of the ``feedback`` law on its initial state's
  values, as ``solve_forward`` passes them, at 2000 times spread over [0, 0.3];
- ``quasi_1x2_N2000``: ``kernel_quasilinear``'s ``quasi.cfg``, the 1x2 with
  speeds 1 + 0.1 w2^2 and 2 + 0.1 w3^2, at N = 2000 (its ``simulate``
  task's grid) over the first 0.3;
- ``volterra_round_trip``: ``kernel_quasilinear``'s ``volterra`` task, the
  transform and inverse of its four states (N = 400) with the NK = 64 kernel
  of its ``coupled.cfg``, in ms per state.  The kernel is solved once per
  process; each repeat wraps its values in a fresh ``Kernel``, as the task
  starts from a fresh kernel, so an operator kept by the kernel is built
  once per repeat, not once per round;
- ``kernel_2x2_NK128``: ``kernel_quasilinear``'s ``kernel_2x2`` task,
  ``solve_kernel`` on the gauged system of its ``coupled.cfg`` at NK = 128,
  in ms per solve; ``kernel_2x2_NK128_peak`` is the ``tracemalloc`` peak of
  one such solve, in MB, taken apart from the timed solves;
- ``kernel_3x3_NK64`` and ``kernel_3x3_NK64_peak``: the same for the
  ``kernel_3x3`` task, ``three.cfg`` (k = 1, m = 2, so two coupling rows per
  kernel entry) at NK = 64.

The other forward runs without a law get a constant nonzero control.  A
forward or dual step's cost is the run's time over its ``steps``.

Both trees are first copied into a temporary directory and byte-compiled
there, so no process compiles them.  Each round then times each tree in a
fresh process of its own, which imports that tree alone, the parent first in
even rounds and the change first in odd ones (ABBA).  A figure is the
minimum over a shape's repeats, which the process spreads over its life (in
pass r it runs each shape with more than r repeats once), times
``perfbench.run.REFERENCE_NOMINAL_S`` over the least time of the
``perfbench.worker.reference_block`` runs it made, one before each pass: the
figures of a host of nominal speed (tracemalloc peaks are not rescaled).  One record (the config, ``"mode": "per-process"``, the seed,
the host as ``perfbench.run.run_record`` describes it, with the time of a
reference block, and every round of both sides) is appended to
``BENCH_step.json`` at the root of this checkout, and a summary (median per
side, the median over rounds of change / parent, rounds in which the change
was faster) is printed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_step.json"
SIDES = ("parent", "change")

WORKLOADS = ("linear", "kernel_quasilinear")
# name -> (workload, config file, N, grid T or None for the config's,
# batch size or None, repeats)
SHAPES = {
    "coupled_2x2_N128": ("linear", "coupled.cfg", 128, None, None, 15),
    "witness_b51_N400": ("linear", "witness.cfg", 400, None, 51, 7),
    "feedback_1x2_N4000": ("linear", "feedback.cfg", 4000, 0.3, None, 3),
    "coupled_2x2_N4000": ("linear", "coupled_long.cfg", 4000, 0.3, None, 5),
    "dual_b14_N500": ("linear", "observe.cfg", 500, None, 14, 7),
    "dual_kernel_N4000": ("kernel_quasilinear", "coupled.cfg", 4000, 0.3, None, 5),
    "dual_coupled_N4000": ("kernel_quasilinear", "coupled.cfg", 4000, 0.3, None, 5),
    "nullctrl_2x2_N128": ("linear", "coupled.cfg", 128, 2.2, None, 3),
    "nullctrl_2x2_N128_T1": ("linear", "coupled.cfg", 128, 1.0, None, 3),
    "sweep_2x2_N128": ("linear", "coupled.cfg", 128, 2.2, None, 3),
    "witness_N400": ("linear", "witness.cfg", 400, None, None, 7),
    "quasi_1x2_N2000": ("kernel_quasilinear", "quasi.cfg", 2000, 0.3, None, 5),
}
# the null-control shapes -> the config section of their segments and reg
OPENLOOP = {"nullctrl_2x2_N128": "nullctrl", "nullctrl_2x2_N128_T1": "nullctrl",
            "sweep_2x2_N128": "sweep"}
LAW_CALLS, LAW_REPEATS = 2000, 7
DUAL_KERNEL_NK = 64
VOLTERRA_REPEATS = 5
# name -> (config file of kernel_quasilinear, NK)
KERNELS = {"kernel_2x2_NK128": ("coupled.cfg", 128), "kernel_3x3_NK64": ("three.cfg", 64)}
KERNEL_REPEATS = 3
# unit of each figure and its factor from seconds (from bytes for a peak);
# us for every other name
UNITS = {"volterra_round_trip": ("ms", 1e3), "witness_N400": ("ms", 1e3),
         **{name: ("ms", 1e3) for name in OPENLOOP},
         **{name: ("ms", 1e3) for name in KERNELS},
         **{name + "_peak": ("MB", 1e-6) for name in KERNELS}}


def _unit(name: str) -> tuple:
    return UNITS.get(name, ("us", 1e6))


def _inputs(shape: str, workdir: str, rng):
    """(run, law_calls) of one tree: run() solves the shape and returns seconds
    per step (per call for the null control and the witness), law_calls()
    seconds per law call (None without a law)."""
    import numpy as np
    from hypctrl import config, controller, simulator

    solve_forward = simulator.solve_forward
    workload, cfg_name, N, T, batch, _ = SHAPES[shape]
    cfg = config.load_config(Path(workdir) / workload / cfg_name)
    spec = cfg.system()
    grid = cfg.grid(N=N, T=T)
    if shape.startswith("dual"):
        S = None
        if batch is None:  # the config's dual datum
            data = cfg.initial_state(grid, spec.n, section="dual", prefix="v")
        else:
            data = rng.standard_normal((batch, spec.n, N + 1))
        if shape == "dual_kernel_N4000":  # and its kernel's source matrix
            from hypctrl import backstepping as bs

            base, _ = bs.preprocess_diagonal(spec)
            S = bs.source_matrix(bs.solve_kernel(base, NK=DUAL_KERNEL_NK), base)

        def run():
            start = time.perf_counter()
            dual = simulator.solve_dual(spec, S, data, grid)
            return (time.perf_counter() - start) / dual.diagnostics["steps"]

        return run, None
    if shape in OPENLOOP:
        w0 = cfg.initial_state(grid, spec.n)
        section = OPENLOOP[shape]
        segments, reg = cfg.get(section, "segments", int), cfg.get(section, "reg", float)

        def run():
            start = time.perf_counter()
            controller.null_control_openloop(spec, w0, grid, reg=reg, segments=segments)
            return time.perf_counter() - start

        return run, None
    if shape == "witness_N400":
        wit = controller.optimality_witness(spec, grid, cfg.get("witness", "amplitude", float))
        samples, seed = cfg.get("witness", "samples", int), cfg.get("run", "seed", int)

        def run():
            start = time.perf_counter()
            controller.verify_witness(spec, wit, grid, samples, rng=np.random.default_rng(seed))
            return time.perf_counter() - start

        return run, None
    law = None
    if batch is None:
        w0 = cfg.initial_state(grid, spec.n)
        control = np.full(spec.m, 0.1)
    else:
        w0 = rng.standard_normal((batch, spec.n, N + 1))
        control = np.full((batch, spec.m), 0.1)
    if shape.startswith("feedback"):
        closure = law = controller.synthesize_feedback(spec, cfg.grid().T, w0)
    else:
        def closure(t, state):
            return control

    def run():
        start = time.perf_counter()
        traj = solve_forward(spec, w0, closure, grid)
        return (time.perf_counter() - start) / traj.diagnostics["steps"]

    def law_calls():
        times = np.linspace(0.0, 0.3, LAW_CALLS)
        start = time.perf_counter()
        for t in times:
            law(t, w0.values)
        return (time.perf_counter() - start) / LAW_CALLS

    return run, (law_calls if law is not None else None)


def _volterra(workdir: str):
    """Seconds per state of the ``volterra`` task's round trips on a fresh
    ``Kernel`` holding the values of its kernel, solved here once."""
    import numpy as np
    from hypctrl import backstepping as bs
    from hypctrl import config
    from hypctrl.core import StateField
    from perfbench.workloads import VOLTERRA_NK

    folder = Path(workdir) / "kernel_quasilinear"
    base, _ = bs.preprocess_diagonal(config.load_config(folder / "coupled.cfg").system())
    solved = bs.solve_kernel(base, NK=VOLTERRA_NK)
    states = np.load(folder / "volterra_states.npy", allow_pickle=False)
    xs = np.linspace(0.0, 1.0, states.shape[-1])

    def round_trips():
        kernel = bs.Kernel(solved.n, solved.k, solved.NK, solved.values)
        start = time.perf_counter()
        for values in states:
            bs.inverse_transform(bs.transform(StateField(values, 0.0, xs), kernel), kernel)
        return (time.perf_counter() - start) / len(states)

    return round_trips


def _kernel(workdir: str, name: str):
    """(solve, peak) of one tree: solve() returns the seconds of one
    ``solve_kernel`` of the kernel shape ``name``, peak() the ``tracemalloc``
    peak in bytes of another."""
    from hypctrl import backstepping as bs
    from hypctrl import config
    cfg_name, NK = KERNELS[name]
    cfg = config.load_config(Path(workdir) / "kernel_quasilinear" / cfg_name)
    base, _ = bs.preprocess_diagonal(cfg.system())

    def solve():
        start = time.perf_counter()
        bs.solve_kernel(base, NK=NK)
        return time.perf_counter() - start

    def peak():
        tracemalloc.start()
        try:
            bs.solve_kernel(base, NK=NK)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return solve, peak


def _worker(seed: int, workdir: str) -> dict:
    """shape -> us per step (law_call: us per call; a null control, sweep or
    witness shape: ms per call; volterra_round_trip: ms per state; a kernel
    shape: ms per solve, and its peak in MB) of the tree on ``sys.path``,
    with "reference_s": the seconds of each reference block this process ran."""
    import numpy as np
    from perfbench.worker import reference_block

    warnings.simplefilter("ignore")  # corner-compatibility warnings of the drawn data
    timed = []
    for shape, (*_, repeats) in SHAPES.items():
        run, law_calls = _inputs(shape, workdir, np.random.default_rng(seed))
        timed.append((shape, repeats, run))
        if law_calls is not None:
            timed.append(("law_call", LAW_REPEATS, law_calls))
    timed.append(("volterra_round_trip", VOLTERRA_REPEATS, _volterra(workdir)))
    for name in KERNELS:
        solve, peak = _kernel(workdir, name)
        timed += [(name, KERNEL_REPEATS, solve), (name + "_peak", 1, peak)]
    # pass r runs a reference block and then each shape with more than r
    # repeats once, so each shape's repeats spread over the process's life
    best, reference_s = {name: float("inf") for name, _, _ in timed}, []
    for r in range(max(count for _, count, _ in timed)):
        reference_s.append(reference_block())
        for name, count, func in timed:
            if r < count:
                best[name] = min(best[name], func())
    return {**{name: t * _unit(name)[1] for name, t in best.items()}, "reference_s": reference_s}


def _run_process(src: str, seed: int, workdir: str) -> dict:
    """One tree's figures from a fresh process, rescaled to the nominal host."""
    from perfbench.run import REFERENCE_NOMINAL_S

    out = subprocess.run(
        [sys.executable, __file__, src, src, "--worker", "--seed", str(seed),  # src as both trees
         "--workdir", workdir],
        check=True, capture_output=True, text=True,
    )
    figures = json.loads(out.stdout.strip().splitlines()[-1])
    reference_s = figures.pop("reference_s")
    factor = REFERENCE_NOMINAL_S / min(reference_s)
    return {name: value * (1.0 if name.endswith("_peak") else factor)
            for name, value in figures.items()}


def _compiled_copy(src: str, dest: Path) -> str:
    """A byte-compiled copy of the tree ``src`` at ``dest``."""
    shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))
    if not compileall.compile_dir(str(dest), quiet=1):
        raise SystemExit(f"cannot byte-compile {src}")
    return str(dest)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seed", type=int, default=16)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--label", default="", help="what the change is, for the record")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    srcs = {
        "parent": str(Path(args.parent_src).resolve()),
        "change": str(Path(args.change_src).resolve()),
    }
    sys.path.insert(0, str(ROOT))  # perfbench, in the worker too
    if args.worker:  # the tree to time comes first
        sys.path.insert(0, srcs["parent"])
        print(json.dumps(_worker(args.seed, args.workdir)))
        return 0

    from perfbench.run import run_record
    from perfbench.workloads import generate
    from perfbench.worker import reference_block

    rounds = []
    with tempfile.TemporaryDirectory() as workdir:
        for workload in WORKLOADS:
            generate(workload, args.seed, Path(workdir) / workload)
        trees = {side: _compiled_copy(src, Path(workdir) / side / "src")
                 for side, src in srcs.items()}
        reference_ms = min(reference_block() for _ in range(3)) * 1e3
        for r in range(args.rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]  # ABBA
            rounds.append({side: _run_process(trees[side], args.seed, workdir)
                           for side in order})

    summary = {}
    for name in rounds[0]["parent"]:
        parent = [r["parent"][name] for r in rounds]
        change = [r["change"][name] for r in rounds]
        unit = _unit(name)[0]
        summary[name] = {
            f"parent_median_{unit}": median(parent),
            f"change_median_{unit}": median(change),
            # change / parent within each round, whose two sides share the host's state
            "round_ratio_median": median(c / p for p, c in zip(parent, change)),
            "change_faster_rounds": sum(c < p for p, c in zip(parent, change)),
        }
    record = {
        "config": {
            "label": args.label,
            "shapes": {
                name: dict(zip(("workload", "config", "N", "T", "batch", "repeats"), spec))
                for name, spec in SHAPES.items()
            },
            "law_calls": LAW_CALLS,
            "law_repeats": LAW_REPEATS,
            "volterra_repeats": VOLTERRA_REPEATS,
            "kernels": {name: dict(zip(("config", "NK"), spec))
                        for name, spec in KERNELS.items()},
            "kernel_repeats": KERNEL_REPEATS,
            "rounds": args.rounds,
            "dual_kernel_nk": DUAL_KERNEL_NK,
            "unit": "us per step (law_call: us per call; nullctrl_2x2_N128, "
                    "nullctrl_2x2_N128_T1, sweep_2x2_N128 and witness_N400: ms per call; "
                    "volterra_round_trip: ms per state; a kernel shape: ms per "
                    "solve; its _peak: tracemalloc MB), min over repeats, rescaled to "
                    "the nominal host but the _peak",
        },
        "mode": "per-process",
        "seed": args.seed,
        "host": {**run_record("linear", args.seed), "reference_ms": reference_ms},
        "rounds": rounds,
        "summary": summary,
    }
    records = json.loads(OUT.read_text()) if OUT.exists() else []
    records.append(record)
    OUT.write_text(json.dumps(records, indent=1) + "\n")

    print(f"{'shape':<20} {'parent':>10} {'change':>10} {'unit':>4} {'ratio':>7} {'faster':>7}")
    for name, s in summary.items():
        unit = _unit(name)[0]
        parent, change = s[f"parent_median_{unit}"], s[f"change_median_{unit}"]
        print(f"{name:<20} {parent:>10.2f} {change:>10.2f} {unit:>4} "
              f"{s['round_ratio_median']:>7.3f} {s['change_faster_rounds']:>4}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
