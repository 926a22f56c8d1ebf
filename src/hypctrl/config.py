"""Experiment configuration: structured text files with nested sections.

The format is INI-style; expressions are plain strings in x (speeds,
coupling entries, initial data) or t (open-loop controls).  Unknown sections
or keys are rejected by name so typos fail loudly, and a fixed seed makes
every downstream draw reproducible.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    ConfigError,
    ControlSignal,
    CouplingField,
    GridSpec,
    ReflectionMatrix,
    SpeedProfile,
    StateField,
    SystemSpec,
    state_from_exprs,
    validate_system,
)
from .expressions import parse_expression

_KNOWN_KEYS = {
    "speeds": None,  # k, m, lambdaI / lambdaI_x / lambdaI_values (checked dynamically)
    "coupling": {"matrix", "gamma"},  # plus cI_J entries
    "boundary": {"b"},
    "grid": {"n", "cfl", "t"},
    "initial": None,  # wI
    "control": None,  # wI
    "dual": None,  # vI, t
    "kernel": {"nk", "tolerance", "max_iters"},
    "feedback": {"t"},
    "nullctrl": {"t", "segments", "reg"},
    "witness": {"t", "samples", "amplitude"},
    "observability": {"t", "samples"},
    "sweep": {"gamma_values", "b_scale_values", "t", "segments", "reg"},
    "run": {"seed", "jobs", "out"},  # jobs: accepted, no effect
}


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
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for [{section}] {key} = {raw!r}: {exc}") from None

    # ---- builders ------------------------------------------------------- #

    def system(self) -> SystemSpec:
        sec = self.sections.get("speeds")
        if sec is None:
            raise ConfigError("missing [speeds] section")
        try:
            k = int(sec["k"])
            m = int(sec["m"])
        except KeyError as exc:
            raise ConfigError(f"missing key {exc.args[0]!r} in [speeds]") from None
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
                speeds.append(
                    (np.asarray(_floats(sec[f"{name}_x"])), np.asarray(_floats(sec[f"{name}_values"])))
                )
            else:
                raise ConfigError(f"missing key {name!r} in [speeds]")
        profile = SpeedProfile(k, m, speeds)

        csec = self.sections.get("coupling", {})
        gamma = float(csec.get("gamma", 1.0))
        entries = {
            (int(key[1 : key.index("_")]) - 1, int(key[key.index("_") + 1 :]) - 1): val
            for key, val in csec.items()
            if key.startswith("c") and "_" in key
        }
        if "matrix" in csec:
            mat = _matrix(csec["matrix"])
            if mat.shape != (n, n):
                raise ConfigError(f"[coupling] matrix must be {n}x{n}, got {mat.shape}")
            coupling = CouplingField(n, constant=mat, gamma=gamma)
        elif entries:
            coupling = CouplingField(n, entries=entries, gamma=gamma)
        else:
            coupling = CouplingField(n, gamma=gamma)

        bsec = self.sections.get("boundary", {})
        if "b" not in bsec:
            raise ConfigError("missing key 'b' in [boundary]")
        B = _matrix(bsec["b"])
        if B.shape != (k, m):
            raise ConfigError(f"[boundary] b must be {k}x{m}, got {B.shape}")
        return validate_system(profile, coupling, ReflectionMatrix(B))

    def grid(self, N=None, T=None, cfl=None) -> GridSpec:
        sec = self.sections.get("grid", {})
        n_val = N if N is not None else int(sec.get("n", 256))
        cfl_val = cfl if cfl is not None else float(sec.get("cfl", 0.9))
        t_val = T if T is not None else float(sec.get("t", 1.0))
        return GridSpec(N=n_val, cfl=cfl_val, T=t_val)

    def initial_state(self, grid: GridSpec, n: int) -> StateField:
        sec = self.sections.get("initial", {})
        exprs = [sec.get(f"w{i + 1}") for i in range(n)]
        return state_from_exprs(exprs, grid, n)

    def dual_initial(self, grid: GridSpec, n: int) -> StateField:
        sec = self.sections.get("dual", {})
        exprs = [sec.get(f"v{i + 1}") for i in range(n)]
        return state_from_exprs(exprs, grid, n)

    def control_closure(self, k: int, m: int):
        sec = self.sections.get("control", {})
        exprs = []
        for i in range(m):
            raw = sec.get(f"w{k + i + 1}")
            exprs.append(parse_expression(raw, ("t",)) if raw is not None else None)

        def closure(t, state, aux):
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
        known = _KNOWN_KEYS[name]
        body = dict(parser.items(name))
        for key in body:
            if known is not None and key not in known:
                if name == "coupling" and key.startswith("c") and "_" in key:
                    continue
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
            if known is None:
                ok = (
                    (name == "speeds" and (key in ("k", "m") or key.startswith("lambda")))
                    or (name in ("initial", "control") and key.startswith("w"))
                    or (name == "dual" and (key.startswith("v") or key == "t"))
                )
                if not ok:
                    raise ConfigError(f"unknown key {key!r} in section [{name}]")
        sections[name] = body

    run = sections.get("run", {})
    cfg = ExperimentConfig(
        path=str(path),
        sections=sections,
        seed=int(run.get("seed", 0)),
        out=run.get("out", "."),
    )
    return cfg
