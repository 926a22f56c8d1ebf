"""Benchmark of the hypctrl CLI: time to result per workload, set-up and memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run writes the workload's inputs from
the seed, then starts fresh worker processes one after another in rounds
until the next round would end after S seconds; every run makes at least
``MIN_ROUNDS`` rounds.  A round is one process that only sets up (so that
set-up time has more samples) and one that runs the whole workload once (a
pass); with ``--trace 1`` a traced pass follows.  ``setup_s`` and memory
are medians; times of whole passes and tasks are means over passes, because
on a host whose speed switches between regimes for tens of seconds the
median of a few passes jumps between regimes while the mean moves less.

Every time a process reports is rescaled to a host of nominal speed: it is
multiplied by ``REFERENCE_NOMINAL_S`` over the mean time of the reference
blocks the same process ran between its tasks (``worker.reference_block``).
On a shared host whose speed swings by half from minute to minute, this
takes the swing out of the figures while a change to the program still
moves them one for one.  The unscaled pass time and the reference time are
reported as per-layer metrics.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics.  Each task's output is
checked; ``failed`` counts task runs that exited non-zero or failed their
check.

Scratch files go to ``.bench_work/`` in the checkout; the spans of the
first traced pass stay there as ``trace-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import metrics, workloads  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_ROUNDS = 2
PASS_TIMEOUT_S = 120
# seconds of one reference block on a quiet 2-core Xeon VM (lowest tenth)
REFERENCE_NOMINAL_S = 0.027
TIME_UNITS = ("s", "ms", "us")


class PassFailed(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _env() -> dict:
    env = dict(os.environ)
    env.pop("HYPCTRL_JOBS", None)  # the sweep task passes --jobs itself
    return env


def run_pass(plan: Path, result: Path, trace: Path | None = None,
             setup_only: bool = False) -> dict:
    """One worker process; returns its result dict.

    The previous pass's outputs are removed first, so that a task that
    writes nothing cannot pass its check on stale files."""
    result.unlink(missing_ok=True)
    shutil.rmtree(plan.parent / "out", ignore_errors=True)
    t0 = _now()
    cmd = [sys.executable, "-m", "perfbench.worker", "--plan", str(plan),
           "--src", str(SRC), "--t0", repr(t0), "--result", str(result)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not result.exists():
        raise PassFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(result.read_text())


def _blas_version() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"].get("version", "unknown"))
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _proc_field(path: str, key: str) -> str:
    try:
        for line in Path(path).read_text().splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_record(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _proc_field("/proc/cpuinfo", "model name"),
        "ram": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_version(),
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "sweep_jobs": workloads.sweep_jobs(),
        "commit": _git_commit(),
    }


def rescale(p: dict) -> dict:
    """A worker result with its times rescaled to the nominal host speed;
    the unscaled wall time is kept as ``raw_wall_s``."""
    factor = REFERENCE_NOMINAL_S / statistics.fmean(p["reference_s"])
    out = dict(p, setup_s=p["setup_s"] * factor)
    if "wall_s" in p:
        out["raw_wall_s"] = p["wall_s"]
        out["wall_s"] = p["wall_s"] * factor
        out["tasks"] = [dict(t, seconds=t["seconds"] * factor) for t in p["tasks"]]
    if "layers" in p:
        out["layers"] = {
            k: v * factor if metrics.PER_LAYER.get(k) in TIME_UNITS else v
            for k, v in p["layers"].items()
        }
    return out


def _command_seconds(passes: list) -> dict:
    """command -> mean over passes of the summed seconds of its tasks."""
    return {
        c: statistics.fmean(
            sum(t["seconds"] for t in p["tasks"] if t["command"] == c) for p in passes
        )
        for c in workloads.COMMANDS
    }


def _mean_wall(passes: list) -> float:
    return statistics.fmean(p["wall_s"] for p in passes)



def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    plan_tasks = workloads.generate(workload, seed, workdir)
    plan = workdir / "plan.json"
    result = workdir / "result.json"
    start = _now()
    setups, plain, traced = [], [], []
    kept_trace = WORK / f"trace-{workload}-s{seed}.json"
    while True:
        round_start = _now()
        setups.append(rescale(run_pass(plan, result, setup_only=True))["setup_s"])
        plain.append(rescale(run_pass(plan, result)))
        if trace:
            span_file = workdir / "spans.json"
            traced.append(rescale(run_pass(plan, result, trace=span_file)))
            if len(traced) == 1:
                shutil.copyfile(span_file, kept_trace)
        last_round = _now() - round_start
        if len(plain) >= MIN_ROUNDS and _now() + last_round > start + seconds:
            break

    passes = plain + traced
    failures = [f for p in passes for t in p["tasks"] for f in t["failures"]]
    attempted = len(plan_tasks) * len(passes)
    failed = sum(1 for p in passes for t in p["tasks"] if t["failures"])
    setups += [p["setup_s"] for p in passes]
    commands = _command_seconds(plain)
    summary = {
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_samples": len(setups),
        "pass_wall_s": [round(p["wall_s"], 3) for p in plain],
        "pass_raw_wall_s": [round(p["raw_wall_s"], 3) for p in plain],
        "command_s": {c: s for c, s in commands.items() if s > 0},
    }
    if trace:
        layers = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        for name in metrics.EXACT:
            seen = {p["layers"][name] for p in traced}
            if len(seen) > 1:
                failures.append(f"count {name} differs between traced passes: {sorted(seen)}")
            layers[name] = traced[0]["layers"][name]
        for c, s in commands.items():
            layers[f"cli.{c}.wall_s"] = s
        layers["trace.overhead_frac"] = _mean_wall(traced) / _mean_wall(plain) - 1.0
        layers["host.raw_wall_s"] = statistics.fmean(p["raw_wall_s"] for p in plain)
        layers["host.reference_ms"] = 1e3 * statistics.fmean(
            r for p in plain for r in p["reference_s"]
        )
        values = {name: layers[name] for name in metrics.PER_LAYER}
        units = metrics.PER_LAYER
        summary["absent"] = traced[0]["absent"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": _mean_wall(plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        units = metrics.END_TO_END
    return {
        "summary": summary,
        "failures": failures,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypctrl" / "cli.py").is_file():
        print(f"error: no hypctrl sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    record = run_record(args.workload, args.seed)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in out["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"summary": out["summary"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
