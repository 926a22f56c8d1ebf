"""Experiment configuration: structured text files with nested sections.

The format is INI-style; expressions are plain strings in x (speeds,
coupling entries, initial data) or t (open-loop controls).  Unknown sections
or keys are rejected by name so typos fail loudly, a value that does not
parse is refused with its section and key, and a fixed seed makes every
downstream draw reproducible.  ``SETTINGS`` declares each command's settings
once: their types, defaults and which of them the CLI also takes as flags.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field
from pathlib import Path
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
    state_from_exprs,
)
from .expressions import parse_expression


def _floats(text: str) -> list[float]:
    parts = text.replace(",", " ").split()
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

# command section -> key -> setting; the CLI flags, the keys these sections
# accept and every default come from here
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
        "gamma_values": Setting(_floats, (1.0,), False),
        "b_scale_values": Setting(_floats, (1.0,), False),
        "t": _T,
        "segments": Setting(int, 32),
        "reg": Setting(float, 1e-8),
    },
}

_KNOWN_KEYS = {
    "speeds": {"k", "m"},
    "coupling": {"matrix", "gamma"},
    "boundary": {"b"},
    "grid": {"n", "cfl", "t"},
    "initial": set(),
    "control": set(),
    "run": {"seed", "out"},
    **{section: set(keys) for section, keys in SETTINGS.items()},
}
# the numbered keys a section takes besides its fixed ones
_NUMBERED = {"speeds": "lambda.*", "coupling": "c.*_.*", "initial": "w.*", "control": "w.*",
             "dual": "v.*"}


@dataclass
class ExperimentConfig:
    path: str
    sections: dict = field(repr=False, default_factory=dict)
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

    def setting(self, command: str, key: str, flag=None):
        """A command setting from ``SETTINGS``: the flag value if given, else
        ``[command] key`` from the file, else its default."""
        if flag is not None:
            return flag
        cast, default, _ = SETTINGS[command][key]
        if key == "t":
            default = self.grid().T
        return self.get(command, key, cast, default)

    # ---- builders ------------------------------------------------------- #

    def system(self) -> SystemSpec:
        sec = self.sections.get("speeds")
        if sec is None:
            raise ConfigError("missing [speeds] section")
        for key in ("k", "m"):
            if key not in sec:
                raise ConfigError(f"missing key {key!r} in [speeds]")
        k = self.get("speeds", "k", int)
        m = self.get("speeds", "m", int)
        if k < 1 or m < 1:
            raise DimensionMismatch("need k >= 1 and m >= 1")
        n = k + m
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
        entries = {}
        for key, val in csec.items():
            if re.fullmatch(_NUMBERED["coupling"], key):
                index = re.fullmatch(r"c(\d+)_(\d+)", key)
                if index is None:
                    raise ConfigError(f"bad entry key [coupling] {key}: expected cI_J")
                entries[int(index[1]) - 1, int(index[2]) - 1] = val
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
        """Data w1..wn of ``[initial]``; the dual's v1..vn with ``[dual]``, "v"."""
        sec = self.sections.get(section, {})
        exprs = [sec.get(f"{prefix}{i + 1}") for i in range(n)]
        return state_from_exprs(exprs, grid, n)

    def control_closure(self, k: int, m: int):
        sec = self.sections.get("control", {})
        exprs = []
        for i in range(m):
            raw = sec.get(f"w{k + i + 1}")
            exprs.append(parse_expression(raw, ("t",)) if raw is not None else None)

        def closure(t, state):
            out = np.zeros(m)
            for i, e in enumerate(exprs):
                if e is not None:
                    out[i] = float(e(t=t))
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

    sections: dict = {}
    for name in parser.sections():
        if name not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{name}] in {path}")
        body = dict(parser.items(name))
        for key in body:
            numbered = name in _NUMBERED and re.fullmatch(_NUMBERED[name], key)
            if key not in _KNOWN_KEYS[name] and not numbered:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
        sections[name] = body

    cfg = ExperimentConfig(path=str(path), sections=sections)
    cfg.seed = cfg.get("run", "seed", int, 0)
    cfg.out = cfg.get("run", "out", str, ".")
    return cfg
