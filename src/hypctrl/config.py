"""Experiment configuration: structured text files with nested sections.

The format is INI-style; expressions are plain strings in x (speeds,
coupling entries, initial data) or t (open-loop controls).  ``load_config``
reads ``[speeds] k, m`` first and then accepts, for n = k + m, exactly the
keys a reader takes: the fixed ones and the numbered ``lambda{i}`` (or
``lambda{i}_x`` with ``lambda{i}_values``), ``c{i}_{j}``, ``[initial] w{i}``,
``[control] w{k+1}``..``w{n}`` and ``[dual] v{i}``.  An unknown section or
key, a ``matrix`` beside ``c{i}_{j}`` entries and a ``lambda{i}`` beside its
samples are refused by name so typos fail loudly, a value that does not
parse is refused with its section and key, and a fixed seed makes every
downstream draw reproducible.  ``SETTINGS`` declares each command's settings
once: their types, defaults and which of them the CLI also takes as flags.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from string import ascii_lowercase
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    ConfigError,
    ControlSignal,
    CouplingField,
    DimensionMismatch,
    GridSpec,
    StateField,
    SystemSpec,
    build_system,
)
from .expressions import Expr


def _floats(text: str) -> list[float]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ConfigError("need at least one number")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"cannot parse numbers from {text!r}: {exc}") from None


def _matrix(text: str) -> np.ndarray:
    rows = [r.strip() for r in text.split(";") if r.strip()]
    data = [_floats(r) for r in rows]
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise ConfigError(f"matrix rows have inconsistent widths in {text!r}")
    return np.asarray(data, dtype=float)


class Setting(NamedTuple):
    cast: Callable
    default: object  # None for ``t``: the horizon of ``[grid] t``
    flag: bool = True  # also settable by a command-line flag


_T = Setting(float, None)

# command section -> key -> setting, in the order the CLI resolves them; the
# CLI flags, the keys these sections accept and every default come from here
SETTINGS = {
    "dual": {"t": _T},
    "kernel": {
        "nk": Setting(int, 64),
        "tolerance": Setting(float, 1e-10),
        "max_iters": Setting(int, 200),
    },
    "feedback": {"t": _T},
    "nullctrl": {"t": _T, "segments": Setting(int, 64), "reg": Setting(float, 1e-8)},
    "witness": {"t": _T, "samples": Setting(int, 100), "amplitude": Setting(float, 1.0, False)},
    "observability": {"t": _T, "samples": Setting(int, 16)},
    "sweep": {
        "t": _T,
        "segments": Setting(int, 32),
        "reg": Setting(float, 1e-8),
        "gamma_values": Setting(_floats, (1.0,), False),
        "b_scale_values": Setting(_floats, (1.0,), False),
    },
}

def _accepted_keys(k: int, m: int) -> dict:
    """section -> (the plain keys its reader takes, the patterns of its
    numbered keys, the range of their indices) for n = k + m."""
    idx = range(1, k + m + 1)
    return {
        "speeds": ({"k", "m"}, ("lambda{}", "lambda{}_x", "lambda{}_values"), idx),
        "coupling": ({"matrix", "gamma"}, ("c{}_{}",), idx),
        "boundary": ({"b"}, (), idx),
        "grid": ({"n", "cfl", "t"}, (), idx),
        "initial": (set(), ("w{}",), idx),
        "control": (set(), ("w{}",), idx[k:]),
        "run": ({"seed", "out"}, (), idx),
        **{section: (set(keys), (), idx) for section, keys in SETTINGS.items()},
        "dual": (set(SETTINGS["dual"]), ("v{}",), idx),
    }


def _stem(key: str) -> str:
    """The leading letters of a key: "c" of c1_2, "lambda" of lambda1_x."""
    return key[: len(key) - len(key.lstrip(ascii_lowercase))]


@dataclass
class ExperimentConfig:
    path: str
    sections: dict = field(repr=False, default_factory=dict)
    k: int = 1
    m: int = 1
    seed: int = 0
    out: str = "."

    def has(self, section: str, key: str) -> bool:
        return section in self.sections and key in self.sections[section]

    def get(self, section: str, key: str, cast=str, default=None):
        if not self.has(section, key):
            return default
        raw = self.sections[section][key]
        try:
            return cast(raw)
        except (TypeError, ValueError, ConfigError) as exc:
            raise ConfigError(f"bad value for [{section}] {key} = {raw!r}: {exc}") from None

    # ---- builders ------------------------------------------------------- #

    def system(self) -> SystemSpec:
        k, m = self.k, self.m
        n = k + m
        sec = self.sections["speeds"]
        speeds = []
        for i in range(1, n + 1):
            name = f"lambda{i}"
            if name in sec:
                raw = sec[name]
                try:
                    speeds.append(float(raw))
                except ValueError:
                    speeds.append(raw)
            elif f"{name}_x" in sec and f"{name}_values" in sec:
                speeds.append((
                    np.asarray(self.get("speeds", f"{name}_x", _floats)),
                    np.asarray(self.get("speeds", f"{name}_values", _floats)),
                ))
            else:
                raise ConfigError(f"missing key {name!r} in [speeds]")

        csec = self.sections.get("coupling", {})
        gamma = self.get("coupling", "gamma", float, 1.0)
        entries = {
            (i, j): csec[f"c{i + 1}_{j + 1}"]
            for i in range(n) for j in range(n) if f"c{i + 1}_{j + 1}" in csec
        }
        if "matrix" in csec:
            mat = self.get("coupling", "matrix", _matrix)
            if mat.shape != (n, n):
                raise ConfigError(f"[coupling] matrix must be {n}x{n}, got {mat.shape}")
            coupling = CouplingField(n, constant=mat, gamma=gamma)
        elif entries:
            coupling = CouplingField(n, entries=entries, gamma=gamma)
        else:
            coupling = CouplingField(n, gamma=gamma)

        if not self.has("boundary", "b"):
            raise ConfigError("missing key 'b' in [boundary]")
        B = self.get("boundary", "b", _matrix)
        if B.shape != (k, m):
            raise ConfigError(f"[boundary] b must be {k}x{m}, got {B.shape}")
        return build_system(k, m, speeds, coupling, B)

    def grid(self, N=None, T=None) -> GridSpec:
        return GridSpec(
            N=N if N is not None else self.get("grid", "n", int, 256),
            cfl=self.get("grid", "cfl", float, 0.9),
            T=T if T is not None else self.get("grid", "t", float, 1.0),
        )

    def initial_state(self, grid: GridSpec, n: int, section="initial", prefix="w") -> StateField:
        """Data w1..wn of ``[initial]``; the dual's v1..vn with ``[dual]``, "v".
        A value that is not finite on the grid is refused by its key."""
        xs = grid.xs

        def on_grid(text):
            with np.errstate(all="ignore"):  # refused below, not warned about
                row = np.broadcast_to(Expr(text, ("x",))(x=xs), xs.shape)
            if not np.all(np.isfinite(row)):
                raise ValueError("non-finite on the grid")
            return row

        values = np.zeros((n, xs.size))
        for i in range(n):
            values[i] = self.get(section, f"{prefix}{i + 1}", on_grid, 0.0)
        return StateField(values, 0.0, xs)

    def control_closure(self, k: int, m: int):
        """closure(t, state) of ``[control]`` w{k+1}..w{k+m}, zero where not given; a
        value that is not finite is refused by its key and t (ConfigError)."""
        sec = self.sections.get("control", {})
        keys = [f"w{k + i + 1}" for i in range(m)]
        exprs = [(i, key, Expr(sec[key], ("t",))) for i, key in enumerate(keys) if key in sec]

        def closure(t, state):
            out = np.zeros(m)
            for i, key, e in exprs:
                try:
                    with np.errstate(all="ignore"):  # refused below, not warned about
                        out[i] = value = float(e(t=t))
                except (ArithmeticError, TypeError):  # Python float overflow, 1/0, complex
                    value = math.nan
                if not math.isfinite(value):
                    raise ConfigError(f"bad value for [control] {key} = {e.source!r}: "
                                      f"no finite value at t = {t:.6g}")
            return out

        return closure


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    if parser.defaults():  # configparser would merge these keys into every section
        raise ConfigError(f"unknown key {next(iter(parser.defaults()))!r} in section [DEFAULT]")
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    cfg = ExperimentConfig(path=str(path), sections=sections)
    speeds = sections.get("speeds")
    if speeds is None:
        raise ConfigError("missing [speeds] section")
    for key in ("k", "m"):
        if key not in speeds:
            raise ConfigError(f"missing key {key!r} in [speeds]")
    cfg.k, cfg.m = cfg.get("speeds", "k", int), cfg.get("speeds", "m", int)
    if cfg.k < 1 or cfg.m < 1:
        raise DimensionMismatch("need k >= 1 and m >= 1")

    accepted = _accepted_keys(cfg.k, cfg.m)
    for name, body in sections.items():
        if name not in accepted:
            raise ConfigError(f"unknown section [{name}] in {path}")
        plain, patterns, indices = accepted[name]
        for key in body:
            # a numbered key: each index without leading zeros and in range
            if key in plain or (re.sub(r"\d+", "{}", key) in patterns and all(
                    d == str(int(d)) and int(d) in indices for d in re.findall(r"\d+", key))):
                continue
            if _stem(key) in {_stem(a) for a in (*plain, *patterns)}:
                names = ", ".join([*sorted(plain), *(p.format("{i}", "{j}") for p in patterns)])
                each = f" with each index in {indices.start}..{indices.stop - 1}" if patterns else ""
                raise ConfigError(f"bad key [{name}] {key}: expected one of {names}{each}")
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
    for i in range(1, cfg.k + cfg.m + 1):
        for sampled in (f"lambda{i}_x", f"lambda{i}_values"):
            if f"lambda{i}" in speeds and sampled in speeds:
                raise ConfigError(f"both [speeds] lambda{i} and [speeds] {sampled} given; "
                                  f"give lambda_{i} one way")
    coupling = sections.get("coupling", {})
    entry = next((key for key in coupling if key not in ("matrix", "gamma")), None)
    if "matrix" in coupling and entry is not None:
        raise ConfigError(f"both [coupling] matrix and [coupling] {entry} given; "
                          "give C one way")

    cfg.seed = cfg.get("run", "seed", int, 0)
    cfg.out = cfg.get("run", "out", str, ".")
    return cfg
