"""Metric names, units and how the per-layer ones come out of a trace.

The names here and in ``BENCHMARK.json`` are the same lists; a test keeps
them in step.  ``README.md`` in this directory says which end-to-end metric
and workload each per-layer metric should move.
"""

from __future__ import annotations

from .workloads import COMMANDS

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# layer group -> span names it covers
GROUPS = {
    "simulator.forward": ("simulator.solve_forward",),
    "simulator.dual": ("simulator.solve_dual",),
    "simulator.flow": ("simulator.characteristic_flow",),
    "controller.law": ("controller.FeedbackLaw.__call__",),
    "controller.nullctrl": ("controller.null_control_openloop",),
    "controller.witness": ("controller.optimality_witness", "controller.verify_witness"),
    "controller.observability": ("controller.verify_observability",),
    "controller.synthesize": ("controller.synthesize_feedback",),
    "backstepping.kernel": ("backstepping.solve_kernel",),
    "backstepping.preprocess": ("backstepping.preprocess_diagonal",),
    "backstepping.source": ("backstepping.source_matrix",),
    "backstepping.transform": ("backstepping.transform",),
    "backstepping.inverse": ("backstepping.inverse_transform",),
    "times.cumulative_travel": ("times.cumulative_travel",),
    "times.travel_times": ("times.travel_times",),
    "config.load": ("config.load_config",),
    **{f"cli.{c}": (f"cli.{c}",) for c in COMMANDS},
}

# counter group -> count keys it sums (spans count "<name>.calls" as well)
COUNTERS = {
    "expressions.evals": ("expressions.Expr.__call__.calls",),
    "backstepping.rows_at.calls": ("backstepping.Kernel.rows_at.calls",),
}

PER_LAYER = {
    "simulator.forward.calls": "count",
    "simulator.forward.steps": "count",
    "simulator.forward.self_s": "s",
    "simulator.forward.us_per_step": "us",
    "simulator.dual.calls": "count",
    "simulator.dual.steps": "count",
    "simulator.dual.self_s": "s",
    "simulator.dual.us_per_step": "us",
    "simulator.flow.calls": "count",
    "simulator.flow.busy_s": "s",
    "controller.law.calls": "count",
    "controller.law.self_s": "s",
    "controller.law.us_per_call": "us",
    "controller.nullctrl.self_s": "s",
    "controller.witness.self_s": "s",
    "controller.observability.self_s": "s",
    "controller.synthesize.busy_s": "s",
    "backstepping.kernel.calls": "count",
    "backstepping.kernel.busy_s": "s",
    "backstepping.kernel.iterations": "count",
    "backstepping.preprocess.busy_s": "s",
    "backstepping.source.busy_s": "s",
    "backstepping.transform.ms_per_state": "ms",
    "backstepping.inverse.ms_per_state": "ms",
    "backstepping.rows_at.calls": "count",
    "times.cumulative_travel.calls": "count",
    "times.cumulative_travel.busy_s": "s",
    "times.travel_times.busy_s": "s",
    "expressions.evals": "count",
    "config.load.busy_s": "s",
    "outputs.write.busy_s": "s",
    "outputs.bytes": "bytes",
    **{f"cli.{c}.self_s": "s" for c in COMMANDS},
    **{f"cli.{c}.wall_s": "s" for c in COMMANDS},
    "trace.overhead_frac": "ratio",
    "host.raw_wall_s": "s",
    "host.reference_ms": "ms",
}

# counts that must repeat exactly between passes of the same inputs
EXACT = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "bytes"))


def absent(tracer) -> list:
    """Names the per-layer metrics read that the traced hypctrl lacks; their
    metrics read 0."""
    expected = {n for names in GROUPS.values() for n in names if not n.startswith("cli.")}
    expected |= {k.removesuffix(".calls") for keys in COUNTERS.values() for k in keys}
    return sorted(expected - tracer.names)


def layer_metrics(tracer, output_bytes: int) -> dict:
    """Per-layer values of one traced pass: all but the ``cli.*.wall_s`` and
    ``trace.overhead_frac`` entries, which need the untraced passes."""
    counts = tracer.counts

    def busy(group):
        return tracer.busy_time(GROUPS[group].__contains__)

    def self_s(group):
        return tracer.self_time(GROUPS[group].__contains__)

    def calls(group):
        return sum(counts.get(s + ".calls", 0) for s in GROUPS[group])

    def per(numer, denom, scale):
        return numer / denom * scale if denom else 0.0

    fwd_steps = counts.get("simulator.solve_forward.steps", 0)
    dual_steps = counts.get("simulator.solve_dual.steps", 0)
    states = {g: calls(g) for g in ("backstepping.transform", "backstepping.inverse")}
    out = {
        "simulator.forward.calls": calls("simulator.forward"),
        "simulator.forward.steps": fwd_steps,
        "simulator.forward.self_s": self_s("simulator.forward"),
        "simulator.forward.us_per_step": per(self_s("simulator.forward"), fwd_steps, 1e6),
        "simulator.dual.calls": calls("simulator.dual"),
        "simulator.dual.steps": dual_steps,
        "simulator.dual.self_s": self_s("simulator.dual"),
        "simulator.dual.us_per_step": per(self_s("simulator.dual"), dual_steps, 1e6),
        "simulator.flow.calls": calls("simulator.flow"),
        "simulator.flow.busy_s": busy("simulator.flow"),
        "controller.law.calls": calls("controller.law"),
        "controller.law.self_s": self_s("controller.law"),
        # inclusive: the characteristic tracing the law calls is its cost
        "controller.law.us_per_call": per(
            busy("controller.law"), calls("controller.law"), 1e6
        ),
        "controller.nullctrl.self_s": self_s("controller.nullctrl"),
        "controller.witness.self_s": self_s("controller.witness"),
        "controller.observability.self_s": self_s("controller.observability"),
        "controller.synthesize.busy_s": busy("controller.synthesize"),
        "backstepping.kernel.calls": calls("backstepping.kernel"),
        "backstepping.kernel.busy_s": busy("backstepping.kernel"),
        "backstepping.kernel.iterations": counts.get("backstepping.solve_kernel.iterations", 0),
        "backstepping.preprocess.busy_s": busy("backstepping.preprocess"),
        "backstepping.source.busy_s": busy("backstepping.source"),
        "backstepping.transform.ms_per_state": per(
            busy("backstepping.transform"), states["backstepping.transform"], 1e3
        ),
        "backstepping.inverse.ms_per_state": per(
            busy("backstepping.inverse"), states["backstepping.inverse"], 1e3
        ),
        "times.cumulative_travel.calls": calls("times.cumulative_travel"),
        "times.cumulative_travel.busy_s": busy("times.cumulative_travel"),
        "times.travel_times.busy_s": busy("times.travel_times"),
        "config.load.busy_s": busy("config.load"),
        "outputs.write.busy_s": tracer.busy_time(lambda n: n.startswith("outputs.write_")),
        "outputs.bytes": output_bytes,
    }
    for name, keys in COUNTERS.items():
        out[name] = sum(counts.get(k, 0) for k in keys)
    for c in COMMANDS:
        out[f"cli.{c}.self_s"] = self_s(f"cli.{c}")
    return out
