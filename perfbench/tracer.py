"""Spans and counters around the calls into hypctrl, installed from outside.

``Tracer.install()`` replaces every public function of every loaded
``hypctrl.*`` module with a wrapper that records a span: name, start, end and
the span that was open when it was called.  A function imported by name into
another module (``controller`` and ``cli`` import ``solve_forward`` that way)
is replaced there too, so a call records the same span whichever module it
goes through.  A few methods get spans as well, and the hottest calls
(``Expr.__call__`` runs ~10^5 times a workload) are hooked as counters only,
because a span each would cost more than the work.

Spans stay in memory; ``write()`` dumps them, and ``busy_time()`` and
``self_time()`` sum them up.  ``names`` holds every name that was wrapped;
a method target that no longer exists is skipped, so a later refactor that
deletes a name does not break the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
import types
from collections import Counter

PACKAGE = "hypctrl"

# functions of these modules are the entry points the benchmark itself spans
_UNWRAPPED_MODULES = {"hypctrl.cli"}
# called once per CSV cell (~2e5 times a workload); the write spans cover it
_UNWRAPPED_FUNCTIONS = {"hypctrl.outputs.fmt"}

METHOD_SPANS = (
    ("hypctrl.controller", "FeedbackLaw", "__call__"),
)
METHOD_COUNTERS = (
    ("hypctrl.expressions", "Expr", "__call__"),
    ("hypctrl.backstepping", "Kernel", "rows_at"),
)

# span name -> (count key, function of the return value)
RESULT_COUNTS = {
    "simulator.solve_forward": ("steps", lambda r: r.times.size - 1),
    "simulator.solve_dual": ("steps", lambda r: r.times.size - 1),
    "backstepping.solve_kernel": ("iterations", lambda r: r.report.iterations),
}


def _short(module: str) -> str:
    return module[len(PACKAGE) + 1:] if module.startswith(PACKAGE + ".") else module


class Tracer:
    def __init__(self):
        self.spans: list = []  # (id, parent id, name, start, end)
        self.counts: Counter = Counter()
        self.names: set = set()
        self.root = None  # span that adopts spans opened on worker threads
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list = []  # (owner, attribute, original)

    # ---- recording ------------------------------------------------------ #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, name: str, token):
        end = time.perf_counter()
        sid, parent, start = token
        self._stack().pop()
        self.spans.append((sid, parent, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str, root: bool = False):
        """Span around a block; a root span also adopts spans that worker
        threads open while it is open."""
        token = self.open()
        if root:
            self.root = token[0]
        try:
            yield
        finally:
            self.close(name, token)
            if root:
                self.root = None

    def count(self, key: str, amount: int = 1):
        with self._lock:
            self.counts[key] += amount

    # ---- patching ------------------------------------------------------- #

    def _span_wrapper(self, name: str, func):
        result_count = RESULT_COUNTS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            token = self.open()
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(name, token)
            self.count(name + ".calls")
            if result_count is not None:
                key, extract = result_count
                self.count(f"{name}.{key}", int(extract(result)))
            return result

        return wrapper

    def _count_wrapper(self, name: str, func):
        key = name + ".calls"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.count(key)
            return func(*args, **kwargs)

        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrappers = {}  # original function -> wrapper
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType) or attr.startswith("_"):
                    continue
                home = value.__module__ or ""
                if (not home.startswith(PACKAGE + ".") or home in _UNWRAPPED_MODULES
                        or f"{home}.{value.__name__}" in _UNWRAPPED_FUNCTIONS):
                    continue
                if value not in wrappers:
                    name = f"{_short(home)}.{value.__name__}"
                    wrappers[value] = self._span_wrapper(name, value)
                    self.names.add(name)
                self._patch(mod, attr, wrappers[value])
        for targets, make in ((METHOD_SPANS, self._span_wrapper),
                              (METHOD_COUNTERS, self._count_wrapper)):
            for module, cls_name, method in targets:
                cls = getattr(sys.modules.get(module), cls_name, None)
                func = None if cls is None else cls.__dict__.get(method)
                if isinstance(func, types.FunctionType):
                    name = f"{_short(module)}.{cls_name}.{method}"
                    self._patch(cls, method, make(name, func))
                    self.names.add(name)

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- output --------------------------------------------------------- #

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start", "end"],
                    "spans": self.spans,
                    "counts": dict(sorted(self.counts.items())),
                    "wrapped": sorted(self.names),
                },
                fh,
            )

    def busy_time(self, match) -> float:
        """Seconds spent in spans whose name satisfies ``match``.

        A span nested inside another matching span is not counted again;
        matching spans on different threads that overlap are each counted.
        """
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for sid, parent, name, start, end in self.spans:
            if not match(name):
                continue
            ancestor = by_id.get(parent)
            while ancestor is not None and not match(ancestor[2]):
                ancestor = by_id.get(ancestor[1])
            if ancestor is None:
                total += end - start
        return total

    def self_time(self, match) -> float:
        """Seconds in matching spans not covered by any of their child spans."""
        children: dict = {}
        for s in self.spans:
            children.setdefault(s[1], []).append((s[3], s[4]))
        return sum(
            (end - start) - _covered(children.get(sid, ()), start, end)
            for sid, _, name, start, end in self.spans
            if match(name)
        )


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
