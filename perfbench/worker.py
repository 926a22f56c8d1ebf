"""One pass of a workload, in a fresh process.

    python3 -m perfbench.worker --plan PLAN --src SRC --t0 T0 --result OUT [--trace PATH]

Set-up runs from ``T0`` (the monotonic clock reading just before the parent
started this process) until ``hypctrl.cli`` is imported from ``SRC`` and
every config of the plan is parsed.  Then each task runs once and is timed
with config loading and output writing included; checks run after the last
task, outside the timed region.  After set-up and after every task the
worker times a fixed reference block (``reference_block``) that does not
touch hypctrl; ``run.py`` uses those times to rescale the pass to a host of
nominal speed, and their time is left out of ``wall_s``.  With ``--trace``
the tracer records spans around every call into hypctrl and writes them to
PATH.  With ``--setup-only`` the pass stops after set-up and one reference
block.  The result is a JSON file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_block() -> float:
    """Seconds of a fixed mix of work that does not touch hypctrl, in five
    parts of similar length, one for each kind of work the tasks do: an
    interpreted float loop, dict and string handling, many numpy calls on
    tiny arrays, transcendental numpy on mid-sized arrays and in-place
    arithmetic on arrays larger than the L2 cache.  On the host the
    benchmark was tuned on, the mix tracked the tasks' swings in speed more
    closely than any one part."""
    import numpy as np

    tiny = np.linspace(0.0, 1.0, 64)
    mid = np.linspace(0.0, 1.0, 4000)
    large = np.linspace(0.0, 1.0, 250_000)
    buf = np.empty_like(large)
    start = _now()
    acc = 0.0
    for i in range(100_000):
        acc += i * 0.5
    counts: dict = {}
    for i in range(20_000):
        counts[i % 97] = counts.get(i % 97, 0) + len(str(i))
    for _ in range(2000):
        (tiny * 2.0 + tiny).sum()
    values = mid
    for _ in range(120):
        values = np.sin(values) * 0.9 + mid[::-1] * 0.1
    for _ in range(20):
        np.multiply(large, 2.0, out=buf)
        np.add(buf, large, out=buf)
    return _now() - start


def _volterra(task) -> float:
    """Library task: kernel, then transform and inverse of each seeded state.

    Returns the worst relative round-trip error."""
    import numpy as np

    from hypctrl import backstepping as bs
    from hypctrl.config import load_config
    from hypctrl.core import StateField

    spec = load_config(task["config"]).system()
    base, _ = bs.preprocess_diagonal(spec)
    kernel = bs.solve_kernel(base, NK=task["nk"])
    states = np.load(task["states"], allow_pickle=False)
    xs = np.linspace(0.0, 1.0, states.shape[-1])
    worst = 0.0
    for values in states:
        w = StateField(values, 0.0, xs)
        back = bs.inverse_transform(bs.transform(w, kernel), kernel)
        worst = max(worst, float(np.max(np.abs(back.values - values)) / np.max(np.abs(values))))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import hypctrl.cli as cli
    from hypctrl.config import load_config

    if not Path(cli.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"hypctrl was imported from {cli.__file__}, not from {args.src}")
    tasks = json.loads(Path(args.plan).read_text())
    for path in sorted({t["config"] for t in tasks}):
        load_config(path)
    setup_s = _now() - args.t0
    reference_s = [reference_block()]
    result = {"setup_s": setup_s, "reference_s": reference_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    from . import checks

    tracer = None
    if args.trace:
        from .tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runs = []
    for task in tasks:
        argv = [task["command"], "--config", task["config"], "--out", task["out"], *task["args"]]
        span = (tracer.span(f"cli.{task['command']}", root=True) if tracer
                else contextlib.nullcontext())
        payload, error, code = None, None, 0
        start = _now()
        try:
            with span, contextlib.redirect_stdout(io.StringIO()):
                if task["command"] == "volterra":
                    payload = _volterra(task)
                else:
                    code = cli.main(argv)
        except Exception:  # noqa: BLE001 - a crashing task is a failed task
            error = traceback.format_exc(limit=3)
        seconds = _now() - start
        runs.append((task, seconds, code, error, payload))
        reference_s.append(reference_block())
    wall_s = _now() - args.t0 - sum(reference_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    report = []
    for task, seconds, code, error, payload in runs:
        failures = []
        if error is not None:
            failures.append(f"{task['name']}: raised\n{error}")
        elif code != 0:
            failures.append(f"{task['name']}: exit code {code}")
        else:
            try:
                failures = checks.verify(task, checks.observe(task, payload))
            except (OSError, ValueError, KeyError) as exc:
                failures.append(f"{task['name']}: unreadable output: {exc!r}")
        report.append({
            "name": task["name"],
            "command": task["command"],
            "seconds": seconds,
            "failures": failures,
        })
    result.update(wall_s=wall_s, peak_rss_mb=peak_rss_mb, tasks=report)
    if tracer:
        from .metrics import absent, layer_metrics

        out_bytes = sum(
            p.stat().st_size
            for t in tasks
            for p in Path(t["out"]).rglob("*")
            if p.is_file()
        )
        result["layers"] = layer_metrics(tracer, out_bytes)
        result["absent"] = absent(tracer)
        tracer.write(args.trace)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
