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
The workloads give speeds as numbers and expressions and the coupling as
``[coupling] matrix`` alone, so ``OWN_CONFIGS`` adds four fixed configs, written
under WORKDIR/own: sampled speeds (``lambda{i}_x``, ``lambda{i}_values``),
per-entry coupling ``c{i}_{j}`` mixing constant and x-dependent entries, and
a coupling with a nonzero diagonal, whose kernel runs on the gauged system's
sampled coupling, each run by ``simulate``, ``kernel`` and
``dual --use-kernel 32``; and the sampled speeds without coupling, run by
``simulate`` and ``feedback``, the law on travel times that no power of two
gives exactly.  Each run is hashed under ``own/NAME:COMMAND``.
A ``dual_terminal.csv`` is hashed with every state value below
``DUAL_FLOOR`` times its task's max |observation| (``observation.csv``)
written as 0.0: the dual runs the benchmark makes end at a state of
roundoff alone (at most 7.7e-14 against an observation of 0.55 to 1.0),
whose bits a regrouping of the same arithmetic may change.
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
DUAL_FLOOR = 1e-10

_GRID_AND_DATA = """
[grid]
n = 128
cfl = 0.9
t = 2.0

[initial]
w1 = 0.8*exp(-((x - 0.45)/0.1)**2)
w2 = 0.6*exp(-((x - 0.55)/0.1)**2)
w3 = 0.7*exp(-((x - 0.5)/0.1)**2)

[dual]
v1 = 0.9*exp(-((x - 0.5)/0.1)**2)
v2 = 0.5*exp(-((x - 0.4)/0.1)**2)
v3 = 0.7*exp(-((x - 0.6)/0.1)**2)
"""

KERNEL_RUNS = {"simulate": [], "kernel": [], "dual": ["--use-kernel", "32"]}
SAMPLED_SPEEDS = """
[speeds]
k = 1
m = 2
lambda1_x = 0, 0.3, 0.7, 1
lambda1_values = 1.2, 1.35, 1.1, 1.25
lambda2_x = 0, 0.5, 1
lambda2_values = 0.8, 1.0, 0.9
lambda3 = 2 - 0.25*x

[boundary]
b = 1 2
"""
# name: (the commands it runs with their arguments, the config's own sections)
OWN_CONFIGS = {
    "sampled-speeds": (KERNEL_RUNS, SAMPLED_SPEEDS + """
[coupling]
matrix = 0 0.2 0.1; 0.15 0 0.2; 0.1 0.25 0
"""),
    "entry-coupling": (KERNEL_RUNS, """
[speeds]
k = 2
m = 1
lambda1 = 2 + 0.25*x
lambda2 = 1
lambda3_x = 0, 1
lambda3_values = 1.5, 1.25

[coupling]
c1_2 = 0.3
c2_3 = 0.2*sin(3*x)
c3_1 = 0.5 + 0.25*x
c3_2 = 0.1
gamma = 0.8

[boundary]
b = 0.5; -0.25
"""),
    "diagonal-coupling": (KERNEL_RUNS, """
[speeds]
k = 1
m = 2
lambda1 = 1 + 0.5*x
lambda2 = 1 + 0.25*x
lambda3 = 2 - 0.25*x

[coupling]
c1_1 = 0.2*x
c1_2 = 0.3
c2_2 = -0.25
c2_3 = 0.15*cos(2*x)
c3_1 = 0.1
c3_3 = 0.3

[boundary]
b = 1 2
"""),
    "uncoupled-sampled-speeds": ({"simulate": [], "feedback": ["--T", "2.5"]}, SAMPLED_SPEEDS),
}


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


def _dual_terminal(path: Path) -> bytes:
    """The bytes of a dual_terminal.csv with each state value below the
    floor written as 0.0; the x column and the other values as written."""
    import numpy as np

    obs = np.loadtxt(path.parent / "observation.csv", delimiter=",", skiprows=1, ndmin=2)
    floor = DUAL_FLOOR * np.max(np.abs(obs[:, 1:]))
    header, *rows = path.read_text().splitlines()
    lines = [header]
    for row in rows:
        x, *values = row.split(",")
        lines.append(",".join([x] + [v if abs(float(v)) >= floor else "0.0" for v in values]))
    return ("\n".join(lines) + "\n").encode()


def _cli(task) -> dict:
    argv = [task["command"], "--config", task["config"], "--out", task["out"], *task["args"]]
    hashes = _run(argv)
    out = Path(task["out"])
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = _dual_terminal(path) if path.name == "dual_terminal.csv" else path.read_bytes()
        hashes[str(path.relative_to(out))] = _sha(data)
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
    Path("own").mkdir(exist_ok=True)
    for name, (runs, text) in OWN_CONFIGS.items():
        config = Path("own", f"{name}.cfg")
        config.write_text(text + _GRID_AND_DATA)
        for command, args in runs.items():
            task = {"command": command, "config": str(config),
                    "out": f"own/{name}-{command}", "args": args}
            result[f"own/{name}:{command}"] = _cli(task)
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
