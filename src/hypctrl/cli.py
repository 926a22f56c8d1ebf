"""Command-line front end.

Subcommands: times, check-b, simulate, dual, kernel, feedback, nullctrl,
witness, observability, sweep.  Exit codes: 0 success, 1 usage error,
2 validation/configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import backstepping as bs
from . import bmatrix, controller, outputs
from .config import SETTINGS, load_config
from .core import (BoundaryClosureFailure, ConfigError, HypctrlError, NumericalError,
                   ValidationError, build_system)
from .expressions import ExpressionError
from .simulator import solve_dual, solve_forward
from .times import time_report


class UsageError(HypctrlError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _float_list(text: str) -> list:
    return [float(s) for s in text.split(",") if s.strip()]


def _build_parser() -> _Parser:
    p = _Parser(prog="hypctrl", description=__doc__)
    sub = p.add_subparsers(dest="command", metavar="command")

    def command(name, help, grid_flags=True, draws=False):
        """Subparser with the common flags and one flag per ``SETTINGS`` key;
        a command's ``t`` setting reads ``--T``, one that draws takes ``--seed``."""
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--out", default=None, help="output directory")
        if draws:
            sp.add_argument("--seed", type=int, default=None)
        if grid_flags:
            sp.add_argument("--N", type=int, default=None, help="grid cells")
            sp.add_argument("--T", type=float, default=None, help="time horizon")
        for key, (cast, default, flag) in SETTINGS.get(name, {}).items():
            if flag and key != "t":
                sp.add_argument("--" + key.replace("_", "-"), type=cast, default=None,
                                help=f"default: [{name}] {key}, else {default:g}")
        return sp

    sp = command("times", "travel times and control-time landmarks", grid_flags=False)
    sp.add_argument("--json", action="store_true")

    sp = command("check-b", "reflection-matrix class membership", grid_flags=False)
    sp.add_argument("--json", action="store_true")

    sp = command("simulate", "forward run with configured controls")
    sp.add_argument("--snap-times", type=_float_list, default=[],
                    help="comma-separated snapshot times in [0, T]")
    sp.add_argument("--binary", action="store_true", help="also write a binary terminal snapshot")

    sp = command("dual", "backward dual run with observation trace")
    sp.add_argument("--use-kernel", type=int, default=0, metavar="NK",
                    help="solve the kernel at this resolution and use its source matrix")

    command("kernel", "solve the kernel equations and export", grid_flags=False)
    command("feedback", "synthesize and run the finite-time feedback")
    command("nullctrl", "open-loop least-squares null control")
    command("witness", "below-optimal-time witness construction", draws=True)
    command("observability", "Monte Carlo observability estimate", draws=True)
    sp = command("sweep", "parameter sweep of null-control residuals")
    sp.add_argument("--jobs", type=int, default=None, help="ignored; points run one by one")
    return p


def _resolve(args, cfg) -> None:
    """Set each ``SETTINGS`` value of the command on ``args``: its flag if
    given, else ``[command] key``, else its default (``t`` as ``args.T``,
    whose default None leaves the horizon to ``[grid] t``); also the output
    directory and, for a command that draws, its seed."""
    for key, (cast, default, _) in SETTINGS.get(args.command, {}).items():
        name = "T" if key == "t" else key
        if getattr(args, name, None) is None:
            setattr(args, name, cfg.get(args.command, key, cast, default))
    args.out = Path(args.out if args.out is not None else cfg.out)
    if "seed" in vars(args):
        args.seed = cfg.seed if args.seed is None else args.seed
        if args.seed < 0:
            raise ValidationError(f"seed must be >= 0, got seed = {args.seed}")


# --------------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------------- #

def _cmd_times(args, cfg, spec) -> int:
    report = time_report(spec)
    if args.json:
        print(json.dumps(outputs._sanitize(report), sort_keys=True))
    else:
        for key, value in report.items():
            print(f"{key} = {value}")
    return 0


def _cmd_check_b(args, cfg, spec) -> int:
    rep = bmatrix.class_report(spec.B)
    if args.json:
        print(json.dumps(outputs._sanitize(rep), sort_keys=True))
    else:
        print(f"in class B:  {'yes' if rep['in_class_B'] else 'no'}")
        print(f"in class Be: {'yes' if rep['in_class_Be'] else 'no'}" + (
            f"  ({rep['note']})" if rep["note"] else ""
        ))
        for i, info in rep["minors"].items():
            print(
                f"trailing minor {i}x{i}: invertible={'yes' if info['invertible'] else 'no'} "
                f"rcond={info['rcond']!r}"
            )
        if rep["in_class_B"]:
            for j, row in enumerate(bmatrix.boundary_elimination(spec.B), start=1):
                coef = ", ".join(repr(c) for c in row)
                print(f"level {j}: w_{spec.n + 1 - j}(t,0) = [{coef}] . args")
    return 0


def _cmd_simulate(args, cfg, spec) -> int:
    grid = cfg.grid(N=args.N, T=args.T)
    w0 = cfg.initial_state(grid, spec.n)
    closure = cfg.control_closure(spec.k, spec.m)
    for t in args.snap_times:
        if not 0.0 <= t <= grid.T:
            raise ValidationError(f"snapshot time {t:g} outside [0, T = {grid.T:g}]")
    # a series of about 512 snapshots only where a --snap-times file is taken
    # from it; else the run keeps the initial and terminal states
    n_steps, _ = grid.steps(spec.lambda_max)
    stride = int(np.ceil((n_steps + 1) / 512)) if args.snap_times else None
    try:
        traj = solve_forward(spec, w0, closure, grid, stride)
    except BoundaryClosureFailure as exc:  # a [control] value is refused by its key
        raise exc.__cause__ if isinstance(exc.__cause__, ConfigError) else exc
    outputs.write_norms_csv(args.out / "norms.csv", traj)
    # each file holds the stored snapshot nearest the requested time; record its time
    taken = {}
    for t in args.snap_times:
        state = traj.state_at(t)
        name = f"snapshot_t{t:g}.csv"
        outputs.write_snapshot_csv(args.out / name, state)
        taken[name] = {"requested": t, "t": state.t}
    if taken:
        outputs.write_json(args.out / "snapshots.json", taken)
    term = traj.terminal_state()
    outputs.write_snapshot_csv(args.out / "terminal.csv", term)
    if args.binary:
        outputs.write_binary_snapshot(args.out / "terminal.bin", term)
    print(
        f"simulate: T={grid.T} N={grid.N} terminal max|w| = "
        f"{outputs.fmt(np.max(np.abs(term.values)))}"
    )
    return 0


def _cmd_dual(args, cfg, spec) -> int:
    grid = cfg.grid(N=args.N, T=args.T)
    v0 = cfg.initial_state(grid, spec.n, section="dual", prefix="v")
    S = None
    if args.use_kernel:  # with [kernel]'s settings, which dual takes no flags for
        limits = (cfg.get("kernel", key, *SETTINGS["kernel"][key][:2])
                  for key in ("max_iters", "tolerance"))
        S = _kernel(spec, args.use_kernel, *limits)[2]
    dual = solve_dual(spec, S, v0, grid)
    outputs.write_float_csv(
        args.out / "observation.csv",
        ["t"] + [f"v_{spec.k + 1 + c}" for c in range(spec.m)],
        [-dual.times, dual.observation],
    )
    outputs.write_snapshot_csv(args.out / "dual_terminal.csv", dual.terminal_state())
    print(f"dual: T={grid.T} observation energy = {outputs.fmt(dual.observation_energy())}")
    return 0


def _kernel(spec, NK, max_iters, tolerance):
    """The kernel of ``spec`` at resolution NK, solved on its diagonal gauge in
    at most ``max_iters`` sweeps to ``tolerance``; the gauge; the source matrix."""
    base, gauge = bs.preprocess_diagonal(spec)
    kernel = bs.solve_kernel(base, NK=NK, max_iters=max_iters, fp_tolerance=tolerance)
    return kernel, gauge, bs.source_matrix(kernel, base)


def _cmd_kernel(args, cfg, spec) -> int:
    kernel, gauge, source = _kernel(spec, args.nk, args.max_iters, args.tolerance)
    outputs.write_kernel_csv(args.out / "kernel.csv", kernel)
    outputs.write_source_csv(args.out / "source.csv", source)
    rep = kernel.report
    outputs.write_json(
        args.out / "kernel_report.json",
        {
            "NK": args.nk,
            "iterations": rep.iterations,
            "final_change": rep.final_change,
            "residual_linf": rep.residual_linf,
            "source_lower_triangle_max": source.lower_triangle_max,
            "diagonal_gauge_applied": not gauge.identity,
        },
    )
    print(
        f"kernel: NK={args.nk} iterations={rep.iterations} "
        f"residual={outputs.fmt(rep.residual_linf)} S_++ lower max={outputs.fmt(source.lower_triangle_max)}"
    )
    return 0


def _cmd_feedback(args, cfg, spec) -> int:
    grid = cfg.grid(N=args.N, T=args.T)
    w0 = cfg.initial_state(grid, spec.n)
    law = controller.synthesize_feedback(spec, grid.T, w0)
    traj, rep = controller.run_closed_loop(law, w0, grid)
    outputs.write_norms_csv(args.out / "closed_loop_norms.csv", traj)
    outputs.write_json(
        args.out / "feedback_report.json",
        {
            "T": grid.T,
            "T_opt": law.Topt,
            "delta": law.T - law.Topt,
            "initial_linf": rep.initial_linf,
            "terminal_linf": rep.terminal_linf,
            "terminal_rel": rep.terminal_rel,
            "first_below_1e2": rep.first_below_1e2,
            "first_below_1e3": rep.first_below_1e3,
        },
    )
    print(
        f"feedback: T={grid.T} T_opt={outputs.fmt(law.Topt)} "
        f"terminal rel = {outputs.fmt(rep.terminal_rel)}"
    )
    return 0


def _cmd_nullctrl(args, cfg, spec) -> int:
    grid = cfg.grid(N=args.N, T=args.T)
    w0 = cfg.initial_state(grid, spec.n)
    res = controller.null_control_openloop(spec, w0, grid, reg=args.reg, segments=args.segments)
    outputs.write_control_csv(args.out / "control.csv", res.signal, spec.k)
    outputs.write_json(
        args.out / "nullctrl_report.json",
        {
            "T": grid.T,
            "segments": args.segments,
            "reg": args.reg,
            "residual": res.residual,
            "condition": res.condition,
            "ill_conditioned": res.ill_conditioned,
        },
    )
    print(f"nullctrl: T={grid.T} residual = {outputs.fmt(res.residual)}")
    return 0


def _cmd_witness(args, cfg, spec) -> int:
    grid = cfg.grid(N=args.N, T=args.T)
    rng = np.random.default_rng(args.seed)
    wit = controller.optimality_witness(spec, grid, amplitude=args.amplitude)
    deviation, values = controller.verify_witness(spec, wit, grid, n_controls=args.samples, rng=rng)
    outputs.write_snapshot_csv(args.out / "witness_initial.csv", wit.w0)
    outputs.write_json(
        args.out / "witness_report.json",
        {
            "T": grid.T,
            "probe_component": wit.probe_component,
            "probe_x": wit.probe_x,
            "expected": wit.expected,
            "bump_component": wit.bump_component,
            "bump_center": wit.bump_center,
            "bump_halfwidth": wit.bump_halfwidth,
            "description": wit.description,
            "max_relative_deviation": deviation,
            "n_controls": args.samples,
        },
    )
    print(
        f"witness: T={grid.T} probe w_{wit.probe_component}({outputs.fmt(wit.probe_x)}) "
        f"max deviation = {outputs.fmt(deviation)} over {args.samples} controls"
    )
    return 0


def _cmd_observability(args, cfg, spec) -> int:
    grid = cfg.grid(N=args.N, T=args.T)
    rng = np.random.default_rng(args.seed)
    res = controller.verify_observability(spec, args.samples, grid, rng=rng)
    outputs.write_csv(
        args.out / "observability_samples.csv",
        ["sample", "ratio"],
        ([label, ratio] for label, ratio in zip(res.labels, res.ratios)),
    )
    outputs.write_json(
        args.out / "observability_report.json",
        {"T": grid.T, "samples": args.samples, "estimate": res.estimate},
    )
    print(f"observability: T={grid.T} estimate = {outputs.fmt(res.estimate)}")
    return 0


def _cmd_sweep(args, cfg, base_spec) -> int:
    grid = cfg.grid(N=args.N, T=args.T)
    # refuse a bad system or least-squares setting once, not as NaN rows;
    # every point has the speeds, and so the time steps, of the base system
    controller.check_null_control(base_spec, grid, args.reg, args.segments)

    # every point reads the same [initial] data, so bad data is refused once too
    w0 = cfg.initial_state(grid, base_spec.n)

    def run_point(gamma, bscale):
        try:
            spec = build_system(
                base_spec.k,
                base_spec.m,
                base_spec.speeds,
                coupling=base_spec.coupling.with_gamma(
                    base_spec.coupling.gamma * gamma
                ),
                b=bscale * base_spec.B,
            )
            res = controller.null_control_openloop(
                spec, w0, grid, reg=args.reg, segments=args.segments
            )
            return gamma, bscale, res.residual, res.condition
        except HypctrlError as exc:
            print(
                f"sweep: gamma = {gamma:g} b_scale = {bscale:g} failed: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            return gamma, bscale, float("nan"), float("nan")

    results = [run_point(g, bsc) for g in args.gamma_values for bsc in args.b_scale_values]

    outputs.write_csv(
        args.out / "sweep.csv",
        ["gamma", "b_scale", "residual", "condition"],
        results,
    )
    finite = [r[2] for r in results if np.isfinite(r[2])]
    worst = max(finite) if finite else float("nan")
    print(f"sweep: {len(results)} points, worst residual = {outputs.fmt(worst)}")
    return 0


_COMMANDS = {
    "times": _cmd_times,
    "check-b": _cmd_check_b,
    "simulate": _cmd_simulate,
    "dual": _cmd_dual,
    "kernel": _cmd_kernel,
    "feedback": _cmd_feedback,
    "nullctrl": _cmd_nullctrl,
    "witness": _cmd_witness,
    "observability": _cmd_observability,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
        cfg = load_config(args.config)
        spec = cfg.system()
        _resolve(args, cfg)
        return _COMMANDS[args.command](args, cfg, spec)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (ValidationError, ExpressionError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
