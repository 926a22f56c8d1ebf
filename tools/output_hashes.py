"""SHA-256 of every output of both benchmark workloads, as JSON.

    python3 tools/output_hashes.py SRC SEED WORKDIR

Imports ``hypctrl`` from SRC (the ``src`` directory of a checkout) and
writes each workload's inputs into WORKDIR with
``perfbench.workloads.generate`` from this checkout.  Every task runs once:
a CLI task through ``hypctrl.cli.main``, hashing each file it writes, its
standard output and its exit code; the ``volterra`` task through the library,
as the benchmark worker runs it, hashing the kernel values, the kernel's
sweep history (``report.changes``) and every ``transform`` and
``inverse_transform`` array.  No task runs ``times`` or ``check-b``, so
the standard output and exit code of both are hashed for every generated
config, with ``--json`` under ``CONFIG:times`` and ``CONFIG:check-b`` and
as plain text under ``CONFIG:times:text`` and ``CONFIG:check-b:text``.
No task passes ``--snap-times`` either, so every ``simulate`` task also
runs once more with ``--snap-times 0.5,1`` added, under
``WORKLOAD/TASK:snap-times``: the run that keeps the snapshot series.
Paths are relative to WORKDIR, so two checkouts run in different work
directories print the same JSON when their outputs agree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_sha(a) -> str:
    import numpy as np

    a = np.ascontiguousarray(a)
    return _sha(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())


def _volterra(task) -> dict:
    import numpy as np

    from hypctrl import backstepping as bs
    from hypctrl.config import load_config
    from hypctrl.core import StateField

    spec = load_config(task["config"]).system()
    base, _ = bs.preprocess_diagonal(spec)
    kernel = bs.solve_kernel(base, NK=task["nk"])
    states = np.load(task["states"], allow_pickle=False)
    xs = np.linspace(0.0, 1.0, states.shape[-1])
    hashes = {
        "K": _array_sha(kernel.values),
        "changes": _array_sha(np.asarray(kernel.report.changes, dtype=float)),
    }
    for s, values in enumerate(states):
        u = bs.transform(StateField(values, 0.0, xs), kernel)
        hashes[f"transform_{s}"] = _array_sha(u.values)
        hashes[f"inverse_{s}"] = _array_sha(bs.inverse_transform(u, kernel).values)
    return hashes


def _run(argv) -> dict:
    from hypctrl import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return {"stdout": _sha(stdout.getvalue().encode()), "exit_code": code}


def _cli(task) -> dict:
    argv = [task["command"], "--config", task["config"], "--out", task["out"], *task["args"]]
    hashes = _run(argv)
    out = Path(task["out"])
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        hashes[str(path.relative_to(out))] = _sha(path.read_bytes())
    return hashes


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    src, seed, workdir = Path(argv[0]).resolve(), int(argv[1]), Path(argv[2])
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.workloads import WORKLOADS, generate
    import hypctrl

    if not Path(hypctrl.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"hypctrl was imported from {hypctrl.__file__}, not from {src}")
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    result = {}
    for workload in WORKLOADS:
        tasks = generate(workload, seed, workload)
        for task in tasks:
            run = _volterra if task["command"] == "volterra" else _cli
            result[f"{workload}/{task['name']}"] = run(task)
            if task["command"] == "simulate":
                snaps = {**task, "out": task["out"] + "-snap-times",
                         "args": [*task["args"], "--snap-times", "0.5,1"]}
                result[f"{workload}/{task['name']}:snap-times"] = _cli(snaps)
        for config in sorted({task["config"] for task in tasks}):
            for command in ("times", "check-b"):
                result[f"{config}:{command}"] = _run([command, "--config", config, "--json"])
                result[f"{config}:{command}:text"] = _run([command, "--config", config])
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
