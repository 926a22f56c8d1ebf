"""Safe arithmetic expressions for config-supplied formulas.

Speeds, coupling entries, initial data and open-loop controls are given as
strings like ``1 + 0.5*x`` or ``1 + 0.1*w2**2``.  They are parsed once with
:mod:`ast`, checked against a whitelist, and evaluated with numpy so that a
single call handles whole grids.
"""

from __future__ import annotations

import ast
import math

import numpy as np

_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "arctan": np.arctan,
    "abs": np.abs,
    "minimum": np.minimum,
    "maximum": np.maximum,
}

_CONSTS = {"pi": math.pi, "e": math.e}

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Constant,
    ast.Name,
    ast.Load,
    ast.Call,
)


class ExpressionError(ValueError):
    """Raised when an expression string cannot be parsed or uses forbidden names."""


class Expr:
    """A compiled arithmetic expression over a fixed set of variable names."""

    def __init__(self, source: str, variables: tuple[str, ...]):
        self.source = source
        self.variables = tuple(variables)
        try:
            tree = ast.parse(source, mode="eval")
        except SyntaxError as exc:
            raise ExpressionError(f"cannot parse expression {source!r}: {exc}") from None
        used: set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, _ALLOWED_NODES):
                raise ExpressionError(
                    f"forbidden construct {type(node).__name__!r} in expression {source!r}"
                )
            if isinstance(node, ast.Call):
                if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                    raise ExpressionError(f"unknown function call in expression {source!r}")
                if node.keywords:
                    raise ExpressionError(f"keyword arguments not allowed in {source!r}")
            if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
                raise ExpressionError(f"non-numeric constant in expression {source!r}")
            if isinstance(node, ast.Name):
                used.add(node.id)
        unknown = used - set(variables) - set(_FUNCS) - set(_CONSTS)
        if unknown:
            raise ExpressionError(
                f"unknown name(s) {sorted(unknown)} in expression {source!r}; "
                f"allowed variables: {list(variables)}"
            )
        self.names = tuple(sorted(used - set(_FUNCS) - set(_CONSTS)))
        self._code = compile(tree, "<expr>", "eval")

    def __call__(self, **bindings):
        env = dict(_FUNCS)
        env.update(_CONSTS)
        env.update(bindings)
        return eval(self._code, {"__builtins__": {}}, env)  # noqa: S307 - whitelisted AST

    def __repr__(self):
        return f"Expr({self.source!r})"

