"""Deterministic file writers: CSV, JSON, and the binary snapshot format.

Floats are written with repr (shortest round-trip form), so identical runs
produce byte-identical files.  The binary snapshot layout is a little-endian
header (int64 n, int64 N, float64 t) followed by the n*(N+1) row-major
float64 state values.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .core import StateField, ValidationError


def fmt(value) -> str:
    return repr(float(value))


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt(v)
    return str(v)


def _write_lines(path, header, lines):
    """The header, then the given lines (each ending in a newline)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:  # line by line: no table of Python floats at once
        f.write(",".join(header) + "\n")
        f.writelines(lines)


def write_csv(path, header, rows):
    _write_lines(path, header, (",".join(_cell(v) for v in row) + "\n" for row in rows))


def write_float_csv(path, header, columns):
    """write_csv for a table of floats given by columns (1-D arrays or 2-D blocks).

    repr of a Python float is fmt, so the bytes are those of write_csv.
    """
    rows = np.column_stack(columns)
    _write_lines(path, header, (",".join(map(repr, row.tolist())) + "\n" for row in rows))


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if np.isnan(v):
            return None
        if np.isinf(v):
            return 1e308 if v > 0 else -1e308
        return v
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    return obj


def write_json(path, obj):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_sanitize(obj), sort_keys=True, indent=2) + "\n")


def write_snapshot_csv(path, state: StateField):
    n = state.n
    header = ["x"] + [f"w_{i + 1}" for i in range(n)]
    write_float_csv(path, header, [state.xs, state.values.T])


def write_norms_csv(path, traj):
    n = traj.norms_l2.shape[1]
    header = (
        ["t"]
        + [f"l2_{i + 1}" for i in range(n)]
        + [f"linf_{i + 1}" for i in range(n)]
    )
    write_float_csv(path, header, [traj.times, traj.norms_l2, traj.norms_linf])


def write_binary_snapshot(path, state: StateField):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n, npts = state.values.shape
    header = struct.pack("<qqd", n, npts - 1, float(state.t))
    path.write_bytes(header + state.values.astype("<f8").tobytes(order="C"))


def read_binary_snapshot(path) -> StateField:
    """What ``write_binary_snapshot`` wrote, refused unless n >= 1, N >= 1,
    t is finite and the file is 24 + 8*n*(N+1) bytes long."""
    raw = Path(path).read_bytes()
    if len(raw) < 24:
        raise ValidationError(f"binary snapshot {path} is truncated")
    n, N, t = struct.unpack("<qqd", raw[:24])
    if n < 1 or N < 1 or not np.isfinite(t):
        raise ValidationError(
            f"binary snapshot {path} has a bad header: n = {n}, N = {N}, t = {t}"
        )
    expected = 24 + 8 * n * (N + 1)
    if len(raw) != expected:
        raise ValidationError(
            f"binary snapshot {path} has {len(raw)} bytes, not 24 + 8*n*(N+1) = {expected}"
        )
    values = np.frombuffer(raw[24:], dtype="<f8").reshape(n, N + 1).copy()
    return StateField(values, t, np.linspace(0.0, 1.0, N + 1))


def _write_matrix_lines(path, header, nodes, values):
    """A line per node and entry (i, j) of the (n, n, nodes) ``values``: the
    node's cells, i, j and the value; every cell is formatted once."""
    n = values.shape[0]
    entries = [f"{i + 1},{j + 1}," for i in range(n) for j in range(n)]
    per_node = values.reshape(n * n, -1).T.tolist()
    lines = (
        f"{node}{ij}{v!r}\n" for node, vals in zip(nodes, per_node) for ij, v in zip(entries, vals)
    )
    _write_lines(path, header, lines)


def write_kernel_csv(path, kernel):
    xs = [repr(x) for x in kernel.xs.tolist()]
    # node order of the triangle grid: x_p, then y_q <= x_p
    nodes = [f"{xs[p]},{xs[q]}," for p in range(kernel.NK + 1) for q in range(p + 1)]
    _write_matrix_lines(path, ["x", "y", "i", "j", "K_ij"], nodes, kernel.values)


def write_source_csv(path, source):
    nodes = [f"{x!r}," for x in source.xs.tolist()]
    _write_matrix_lines(path, ["x", "i", "j", "S_ij"], nodes, source.values)


def write_control_csv(path, signal, k: int):
    header = ["t"] + [f"W_{k + 1 + c}" for c in range(signal.m)]
    write_float_csv(path, header, [signal.times, signal.values.T])
