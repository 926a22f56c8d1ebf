"""Correctness checks for each benchmark task.

``observe(task, payload)`` reads what a task produced (its output files, or
the in-memory result of the library task) into a dict of named values;
``verify(task, observed)`` compares them with the task's ``check`` entry and
returns the failures as strings.  Tolerances shared with
``tests/test_acceptance.py`` are the same numbers.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np


def _json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _csv_columns(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {h: np.array([float(r[i]) for r in body]) for i, h in enumerate(header)}


def observe(task: dict, payload=None) -> dict:
    """Named values a task's check needs, read from what the task produced."""
    out = Path(task["out"])
    command = task["command"]
    if command == "nullctrl":
        return {"residual": _json(out, "nullctrl_report.json")["residual"]}
    if command == "witness":
        return {"deviation": _json(out, "witness_report.json")["max_relative_deviation"]}
    if command == "observability":
        return {"estimate": _json(out, "observability_report.json")["estimate"]}
    if command == "sweep":
        cols = _csv_columns(out / "sweep.csv")
        return {"residuals": cols["residual"].tolist()}
    if command == "kernel":
        rep = _json(out, "kernel_report.json")
        return {
            "residual_linf": rep["residual_linf"],
            "lower_triangle": rep["source_lower_triangle_max"],
        }
    if command == "dual":
        cols = _csv_columns(out / "observation.csv")
        t = cols.pop("t")
        obs = np.vstack(list(cols.values()))
        energy = float(np.sum(np.trapezoid(obs**2, -t, axis=1)))
        return {"energy": energy}
    if command == "volterra":
        return {"round_trip": float(payload)}
    if command == "feedback":
        return {"terminal_rel": _json(out, "feedback_report.json")["terminal_rel"]}
    if command == "simulate":
        cols = _csv_columns(out / "terminal.csv")
        cols.pop("x")
        terminal = np.vstack(list(cols.values()))
        found = {"terminal": terminal.ravel().tolist()}
        if (out / "terminal.bin").exists():
            raw = (out / "terminal.bin").read_bytes()
            n, N, _ = struct.unpack("<qqd", raw[:24])
            values = np.frombuffer(raw[24:], dtype="<f8").reshape(n, N + 1)
            found["binary"] = values.ravel().tolist()
        return found
    raise ValueError(f"no check for command {command!r}")


def _finite(value) -> bool:
    return all(math.isfinite(v) for v in np.ravel(value))


def verify(task: dict, observed: dict) -> list:
    """Failures of one task, empty when every check holds.

    Every observed value must be finite; the task's ``check`` entry adds bounds.
    """
    spec = task["check"]
    fails = []

    def need(ok: bool, message: str):
        if not ok:
            fails.append(f"{task['name']}: {message}")

    for key, value in observed.items():
        need(_finite(value), f"{key} is not finite")
    if fails:
        return fails
    if "residual_max" in spec:
        need(observed["residual"] <= spec["residual_max"],
             f"residual {observed['residual']:.3g} > {spec['residual_max']:g}")
    if "residual_min" in spec:
        need(observed["residual"] >= spec["residual_min"],
             f"residual {observed['residual']:.3g} < {spec['residual_min']:g}")
    if "deviation_max" in spec:
        need(observed["deviation"] < spec["deviation_max"],
             f"deviation {observed['deviation']:.3g} >= {spec['deviation_max']:g}")
    if "estimate_min" in spec:
        need(observed["estimate"] > spec["estimate_min"],
             f"estimate {observed['estimate']:.3g} <= {spec['estimate_min']:g}")
    if "estimate_max" in spec:
        need(observed["estimate"] < spec["estimate_max"],
             f"estimate {observed['estimate']:.3g} >= {spec['estimate_max']:g}")
    if "points" in spec:
        res = observed["residuals"]
        need(len(res) == spec["points"], f"{len(res)} sweep points, expected {spec['points']}")
        need(max(res) <= spec["worst_max"],
             f"worst sweep residual {max(res):.3g} > {spec['worst_max']:g}")
    if "lower_triangle_vs_residual" in spec:
        bound = spec["lower_triangle_vs_residual"] * observed["residual_linf"]
        need(observed["lower_triangle"] <= bound,
             f"S_++ lower triangle {observed['lower_triangle']:.3g} > {bound:.3g}")
    if spec.get("energy_positive"):
        need(observed["energy"] > 0.0, f"observation energy {observed['energy']:.3g} <= 0")
    if "round_trip_max" in spec:
        need(observed["round_trip"] <= spec["round_trip_max"],
             f"round trip {observed['round_trip']:.3g} > {spec['round_trip_max']:g}")
    if "terminal_rel_max" in spec:
        need(observed["terminal_rel"] <= spec["terminal_rel_max"],
             f"terminal_rel {observed['terminal_rel']:.3g} > {spec['terminal_rel_max']:g}")
    if spec.get("binary"):
        need(observed.get("binary") == observed["terminal"],
             "binary terminal snapshot differs from terminal.csv")
    return fails
