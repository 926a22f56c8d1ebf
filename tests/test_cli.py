import inspect
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hypctrl
from hypctrl import cli, core
from hypctrl.cli import _build_parser, main
from hypctrl.config import load_config
from hypctrl.controller import null_control_openloop
from hypctrl.core import ConfigError, GridSpec, StateField, build_system
from hypctrl.backstepping import Kernel, SourceMatrix, solve_kernel
from hypctrl.outputs import (
    read_binary_snapshot,
    write_binary_snapshot,
    write_csv,
    write_float_csv,
    write_kernel_csv,
    write_source_csv,
)

BASE_CFG = """
[speeds]
k = 1
m = 1
lambda1 = 1 + x
lambda2 = 2

[coupling]
matrix = 0 0; 0 0
gamma = 1.0

[boundary]
b = 0.5

[grid]
n = 96
cfl = 0.9
t = 1.5

[initial]
w1 = 0
w2 = exp(-((x - 0.5)/0.12)**2)

[run]
seed = 1234
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "sys.cfg"
    path.write_text(BASE_CFG)
    return path


def test_cli_import_needs_no_scipy():
    # numpy is the only runtime dependency
    src = str(Path(hypctrl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, hypctrl.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_times_output(cfg_path, capsys):
    assert main(["times", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "tau_1 = 0.69314718" in out
    assert "tau_2 = 0.5" in out
    assert "T_opt = 1.19314718" in out


def test_times_json(cfg_path, capsys):
    assert main(["times", "--config", str(cfg_path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tau_1"] == pytest.approx(np.log(2.0), abs=1e-9)


def test_times_sampled_speeds(tmp_path, capsys):
    # the piecewise-linear profile through (0, 1), (0.5, 2), (1, 1.5)
    path = tmp_path / "sampled.cfg"
    path.write_text(BASE_CFG.replace(
        "lambda1 = 1 + x", "lambda1_x = 0 0.5 1\nlambda1_values = 1 2 1.5"
    ).replace("lambda2 = 2", "lambda2 = 1"))
    assert main(["times", "--config", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    tau_1 = 0.5 * np.log(2.0) + np.log(4.0 / 3.0)
    assert data["tau_1"] == pytest.approx(tau_1, abs=1e-13)
    assert data["T_opt"] == pytest.approx(tau_1 + 1.0, abs=1e-13)


def test_times_refuses_speed_vanishing_between_validation_nodes(tmp_path, capsys):
    path = tmp_path / "vanish.cfg"
    path.write_text(BASE_CFG.replace("lambda1 = 1 + x", "lambda1 = abs(x - 0.50048828125)"))
    assert main(["times", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: lambda_1 is not finite and positive")


@pytest.mark.parametrize("sizes", ["k = 0\nm = 1", "k = 1\nm = 0"])
def test_times_refuses_an_empty_block(tmp_path, capsys, sizes):
    # refused before any speed or the [boundary] shape is read
    path = tmp_path / "empty.cfg"
    path.write_text(BASE_CFG.replace("k = 1\nm = 1", sizes))
    assert main(["times", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "validation error: need k >= 1 and m >= 1\n"


def test_coupling_entries_give_the_matrix_kernel(tmp_path):
    # c1_2 as an expression entry and the same constant matrix: identical kernels
    def kernel(coupling):
        path = tmp_path / "c.cfg"
        path.write_text(COUPLED_CFG.replace("matrix = 0 0.5; 0.5 0", coupling))
        return solve_kernel(load_config(path).system(), NK=16).values

    entries = kernel("c1_2 = 0.25 + 0.25\nc2_1 = 0.5")
    assert np.any(entries) and np.array_equal(entries, kernel("matrix = 0 0.5; 0.5 0"))


def test_check_b_zero_matrix(tmp_path, capsys):
    path = tmp_path / "b0.cfg"
    path.write_text(BASE_CFG.replace("b = 0.5", "b = 0"))
    assert main(["check-b", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "in class B:  yes" in out
    assert "in class Be: no" in out


def test_malformed_config_names_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE_CFG.replace("cfl = 0.9", "cfl = 0.9\nbogus_key = 3"))
    code = main(["simulate", "--config", str(path)])
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


def test_bad_config_expression_exit_code(tmp_path, capsys):
    path = tmp_path / "expr.cfg"
    path.write_text(BASE_CFG.replace("lambda1 = 1 + x", "lambda1 = 1 + y"))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "1 + y" in err


_ERROR_CLASSES = [
    cls for _, cls in inspect.getmembers(core, inspect.isclass)
    if issubclass(cls, core.HypctrlError) and cls.__module__ == core.__name__
    and cls not in (core.HypctrlError, core.ValidationError, core.NumericalError)
]


@pytest.mark.parametrize("error", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_class_maps_to_exit_code(cfg_path, capsys, monkeypatch, error):
    validation = issubclass(error, core.ValidationError)
    assert validation != issubclass(error, core.NumericalError)

    def command(args, cfg, spec):
        raise error("raised by the command")

    monkeypatch.setitem(cli._COMMANDS, "times", command)
    assert main(["times", "--config", str(cfg_path)]) == (2 if validation else 3)
    kind = "validation error" if validation else "numerical failure"
    assert capsys.readouterr().err == f"{kind}: raised by the command\n"


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad2.cfg"
    path.write_text(BASE_CFG + "\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="mystery"):
        load_config(path)


def test_default_section_keys_refused_by_its_name(tmp_path, capsys):
    # configparser merges [DEFAULT] into every section; its keys are refused
    # as [DEFAULT]'s own, not blamed on the first section read
    path = tmp_path / "default.cfg"
    path.write_text("[DEFAULT]\nq = 1\n" + BASE_CFG)
    with pytest.raises(ConfigError, match=r"unknown key 'q' in section \[DEFAULT\]"):
        load_config(path)
    assert main(["times", "--config", str(path)]) == 2
    assert "[speeds]" not in capsys.readouterr().err


def test_run_jobs_key_rejected(tmp_path, capsys):
    # [run] jobs had no effect and is no longer a key: refused as any unknown key
    path = tmp_path / "jobs.cfg"
    path.write_text(BASE_CFG + "jobs = 2\n")
    with pytest.raises(ConfigError, match=r"'jobs' in section \[run\]"):
        load_config(path)
    assert main(["times", "--config", str(path)]) == 2
    assert "'jobs'" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main([]) == 1
    assert main(["times"]) == 1  # missing --config
    assert main(["simulate", "--config", "any.cfg", "--snap-times", "0.5,abc"]) == 1
    assert main(["simulate", "--config", "any.cfg", "--seed", "3"]) == 1  # it draws nothing


def test_simulate_outputs_parse(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(
        ["simulate", "--config", str(cfg_path), "--out", str(out), "--binary",
         "--snap-times", "0.5"]
    ) == 0
    norms = np.genfromtxt(out / "norms.csv", delimiter=",", names=True)
    assert norms["t"][0] == 0.0
    snap = np.genfromtxt(out / "snapshot_t0.5.csv", delimiter=",", names=True)
    assert snap["x"][-1] == 1.0
    state = read_binary_snapshot(out / "terminal.bin")
    term = np.genfromtxt(out / "terminal.csv", delimiter=",", names=True)
    assert np.allclose(state.values[0], term["w_1"])


def test_binary_snapshot_round_trip(tmp_path):
    grid = GridSpec(N=32, cfl=0.9, T=1.0)
    rng = np.random.default_rng(0)
    state = StateField(rng.standard_normal((3, 33)), 0.75, grid.xs)
    path = tmp_path / "snap.bin"
    write_binary_snapshot(path, state)
    back = read_binary_snapshot(path)
    assert back.t == state.t
    assert np.array_equal(back.values, state.values)


def test_binary_snapshot_refuses_malformed_files(tmp_path):
    path = tmp_path / "snap.bin"
    write_binary_snapshot(path, StateField(np.ones((2, 9)), 0.5, np.linspace(0.0, 1.0, 9)))
    good = path.read_bytes()
    assert len(good) == 24 + 8 * 2 * 9
    bad = {
        "8 bytes short": (good[:-8], "has 160 bytes.*= 168"),
        "3 bytes short": (good[:-3], "has 165 bytes.*= 168"),
        "negative N": (struct.pack("<qqd", 2, -3, 0.5) + good[24:], "bad header"),
        "n = 0": (struct.pack("<qqd", 0, 8, 0.5), "bad header"),
        "N = 0": (struct.pack("<qqd", 2, 0, 0.5) + good[24:40], "bad header"),
        "NaN t": (struct.pack("<qqd", 2, 8, np.nan) + good[24:], "bad header"),
    }
    for raw, message in bad.values():
        path.write_bytes(raw)
        with pytest.raises(core.ValidationError, match=message):
            read_binary_snapshot(path)


def test_float_csv_bytes_match_cell_writer(tmp_path):
    rng = np.random.default_rng(0)
    times = np.linspace(0.0, 1.0, 50)
    block = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-320, 300, (50, 3))
    block[:4, 0] = [-0.0, 5e-310, np.inf, np.nan]
    header = ["t", "a", "b", "c"]
    write_float_csv(tmp_path / "fast.csv", header, [times, block])
    rows = ([times[s]] + [block[s, c] for c in range(3)] for s in range(50))
    write_csv(tmp_path / "cells.csv", header, rows)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def _special_values(rng, shape):
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    values.reshape(-1)[:4] = [-0.0, 5e-310, np.nan, np.inf]
    return values


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("NK", [8, 13])
def test_kernel_and_source_csv_bytes_match_row_writer(tmp_path, n, NK):
    rng = np.random.default_rng(n * NK)
    kernel = Kernel(n=n, k=1, NK=NK, values=_special_values(rng, (n, n, (NK + 1) * (NK + 2) // 2)))
    source = SourceMatrix(k=1, m=n - 1, xs=kernel.xs, values=_special_values(rng, (n, n, NK + 1)))
    write_kernel_csv(tmp_path / "kernel.csv", kernel)
    write_source_csv(tmp_path / "source.csv", source)
    # the row writers these replaced: one list of cells per line, each cell formatted alone
    xs = kernel.xs
    kernel_rows = (
        [xs[p], xs[q], i + 1, j + 1, kernel.values[i, j, p * (p + 1) // 2 + q]]
        for p in range(NK + 1) for q in range(p + 1) for i in range(n) for j in range(n)
    )
    source_rows = (
        [x, i + 1, j + 1, source.values[i, j, q]]
        for q, x in enumerate(source.xs) for i in range(n) for j in range(n)
    )
    write_csv(tmp_path / "kernel_rows.csv", ["x", "y", "i", "j", "K_ij"], kernel_rows)
    write_csv(tmp_path / "source_rows.csv", ["x", "i", "j", "S_ij"], source_rows)
    for name in ("kernel", "source"):
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_rows.csv").read_bytes()


def _run_twice(argv, tmp_path, names):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(argv + ["--out", str(out)]) == 0
        outs.append({name: (out / name).read_bytes() for name in names})
    return outs


def test_simulate_deterministic(cfg_path, tmp_path):
    a, b = _run_twice(
        ["simulate", "--config", str(cfg_path), "--binary"],
        tmp_path,
        ["norms.csv", "terminal.csv", "terminal.bin"],
    )
    assert a == b


def test_nullctrl_deterministic_and_parseable(cfg_path, tmp_path):
    argv = ["nullctrl", "--config", str(cfg_path), "--T", "2.4", "--segments", "12"]
    a, b = _run_twice(argv, tmp_path, ["control.csv", "nullctrl_report.json"])
    assert a == b
    report = json.loads(a["nullctrl_report.json"])
    assert report["residual"] < 0.5


def test_observability_deterministic(cfg_path, tmp_path):
    argv = [
        "observability", "--config", str(cfg_path), "--T", "2.0", "--samples", "2",
        "--N", "64",
    ]
    a, b = _run_twice(argv, tmp_path, ["observability_report.json", "observability_samples.csv"])
    assert a == b


def test_sweep_gamma_zero_matches_uncoupled_run(tmp_path):
    cfg_text = BASE_CFG.replace(
        "[run]",
        "[sweep]\ngamma_values = 0\nb_scale_values = 1\nt = 2.4\nsegments = 12\n\n[run]",
    ).replace("matrix = 0 0; 0 0", "matrix = 0 0.4; 0.4 0")
    path = tmp_path / "sweep.cfg"
    path.write_text(cfg_text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    rows = np.genfromtxt(out / "sweep.csv", delimiter=",", names=True)
    # gamma = 0 must match a direct uncoupled solve exactly
    spec = build_system(1, 1, ["1 + x", 2.0], b=[[0.5]])
    cfg = load_config(path)
    grid = cfg.grid(T=2.4)
    w0 = cfg.initial_state(grid, 2)
    direct = null_control_openloop(spec, w0, grid, segments=12)
    assert float(rows["residual"]) == pytest.approx(direct.residual, abs=1e-14)


COUPLED_CFG = BASE_CFG.replace("matrix = 0 0; 0 0", "matrix = 0 0.5; 0.5 0").replace(
    "lambda1 = 1 + x", "lambda1 = 1"
).replace("lambda2 = 2", "lambda2 = 1")


def test_kernel_command(tmp_path, capsys):
    path = tmp_path / "ker.cfg"
    path.write_text(COUPLED_CFG)
    out = tmp_path / "out"
    assert main(["kernel", "--config", str(path), "--nk", "24", "--out", str(out)]) == 0
    report = json.loads((out / "kernel_report.json").read_text())
    assert report["iterations"] >= 2
    kcsv = (out / "kernel.csv").read_text().splitlines()
    assert kcsv[0] == "x,y,i,j,K_ij"
    assert len(kcsv) == 1 + 25 * 26 // 2 * 4


def test_kernel_max_iters_exit_code(tmp_path, capsys):
    path = tmp_path / "ker.cfg"
    path.write_text(COUPLED_CFG)
    argv = ["kernel", "--config", str(path), "--nk", "32", "--max-iters", "1", "--out", str(tmp_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: kernel iteration did not reach")
    assert "in row 1 " in err


@pytest.mark.parametrize(
    "flag, value, named",
    [("--max-iters", "0", "max_iters = 0"), ("--tolerance", "-1", "tolerance = -1.0"),
     ("--tolerance", "nan", "tolerance = nan"), ("--nk", "7", "need NK >= 8, got NK = 7")],
)
def test_bad_kernel_setting_refused(tmp_path, capsys, flag, value, named):
    path = tmp_path / "ker.cfg"
    path.write_text(COUPLED_CFG)
    out = tmp_path / "out"
    argv = ["kernel", "--config", str(path), "--nk", "16", "--out", str(out)]
    assert main(argv + [flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and named in err
    assert not out.exists()


def test_dual_kernel_grid_too_coarse(tmp_path, capsys):
    path = tmp_path / "dual.cfg"
    path.write_text(COUPLED_CFG + "\n[dual]\nv1 = 0\nv2 = sin(pi*x)\nt = 1.0\n")
    out = tmp_path / "out"
    argv = ["dual", "--config", str(path), "--N", "64", "--use-kernel", "7", "--out", str(out)]
    assert main(argv) == 2
    assert "need NK >= 8, got NK = 7" in capsys.readouterr().err
    assert not out.exists()


def test_kernel_divergence_exit_code(tmp_path, capsys):
    # gamma*C = [[0, 20], [20, 0]]: the successive approximation grows sweep after sweep
    path = tmp_path / "strong.cfg"
    path.write_text(COUPLED_CFG.replace("gamma = 1.0", "gamma = 40"))
    assert main(["kernel", "--config", str(path), "--nk", "16", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "kernel iteration diverging" in err and "in row 1" in err


def test_feedback_command(tmp_path):
    cfg_text = BASE_CFG.replace("lambda1 = 1 + x", "lambda1 = 1").replace(
        "lambda2 = 2", "lambda2 = 1"
    ).replace("t = 1.5", "t = 2.2").replace(
        "w2 = exp(-((x - 0.5)/0.12)**2)", "w2 = exp(-((x - 0.4)/0.09)**2)"
    )
    path = tmp_path / "fb.cfg"
    path.write_text(cfg_text)
    out = tmp_path / "out"
    assert main(["feedback", "--config", str(path), "--N", "300", "--out", str(out)]) == 0
    report = json.loads((out / "feedback_report.json").read_text())
    assert report["T_opt"] == pytest.approx(2.0)
    assert report["terminal_rel"] <= 5e-2


def test_witness_command(tmp_path):
    cfg_text = BASE_CFG.replace("lambda1 = 1 + x", "lambda1 = 1").replace(
        "lambda2 = 2", "lambda2 = 1"
    )
    path = tmp_path / "wit.cfg"
    path.write_text(cfg_text)
    out = tmp_path / "out"
    assert main(
        ["witness", "--config", str(path), "--T", "1.0", "--N", "200",
         "--samples", "5", "--out", str(out)]
    ) == 0
    report = json.loads((out / "witness_report.json").read_text())
    assert report["max_relative_deviation"] < 0.1


_STATE_DEPENDENT_REFUSALS = {
    "witness": "witness construction",
    "nullctrl": "open-loop least squares",
    "sweep": "open-loop least squares",
    "dual": "dual solver",
    "observability": "dual solver",
    "kernel": "diagonal preprocessing",
}


@pytest.mark.parametrize("command", _STATE_DEPENDENT_REFUSALS)
def test_refuses_state_dependent_speeds(tmp_path, capsys, command):
    # refused once, before any output: a sweep writes no row of NaN per point
    path = tmp_path / "ql.cfg"
    path.write_text(BASE_CFG.replace("lambda1 = 1 + x", "lambda1 = 1").replace(
        "lambda2 = 2", "lambda2 = 1 + 0.1*w2**2"
    ) + "\n[dual]\nv2 = sin(pi*x)\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out)]
    if command != "kernel":
        argv += ["--T", "1.0", "--N", "64"]
    assert main(argv) == 2
    message = _STATE_DEPENDENT_REFUSALS[command]
    assert f"{message} requires state-independent speeds" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_dual_command(tmp_path):
    cfg_text = BASE_CFG + "\n[dual]\nv1 = 0\nv2 = sin(pi*x)\nt = 1.0\n"
    path = tmp_path / "dual.cfg"
    path.write_text(cfg_text)
    out = tmp_path / "out"
    assert main(["dual", "--config", str(path), "--N", "64", "--out", str(out)]) == 0
    obs = np.genfromtxt(out / "observation.csv", delimiter=",", names=True)
    assert obs["t"][0] == 0.0
    assert obs["t"][-1] == pytest.approx(-1.0)


def test_sweep_failed_point_writes_nan_row(tmp_path, capsys):
    # gamma = 1e308 overflows the forward run; that point alone reads nan, and
    # its cause goes to stderr without a numpy overflow warning
    cfg_text = BASE_CFG.replace(
        "[run]",
        "[sweep]\ngamma_values = 1 1e308\nb_scale_values = 1\nt = 2.4\nsegments = 12\n\n[run]",
    ).replace("matrix = 0 0; 0 0", "matrix = 0 0.4; 0.4 0")
    path = tmp_path / "sweep.cfg"
    path.write_text(cfg_text)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--config", str(path), "--N", "32", "--out", str(out)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3 and rows[2] == "1e+308,1.0,nan,nan"
    assert "nan" not in rows[1]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("sweep: gamma = 1e+308 b_scale = 1 failed: NonFiniteState: "
                             "state blew up at t = ")


def test_sweep_refuses_non_finite_initial_data_once(tmp_path, capsys):
    # every point reads the same [initial] data: refused once, not as NaN rows
    cfg_text = BASE_CFG.replace(
        "[run]",
        "[sweep]\ngamma_values = 0 1\nb_scale_values = 1\nt = 2.4\nsegments = 12\n\n[run]",
    ).replace("w2 = exp(-((x - 0.5)/0.12)**2)", "w2 = sqrt(x - 2)")
    path = tmp_path / "sweep.cfg"
    path.write_text(cfg_text)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # sqrt of a negative number
        assert main(["sweep", "--config", str(path), "--N", "16", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "non-finite" in err
    assert not out.exists()


def test_sweep_grid_above_topt_all_controllable(tmp_path):
    # 5x5 grid over (gamma, b): every point steers below 1e-2 just above T_opt
    cfg_text = BASE_CFG.replace("lambda1 = 1 + x", "lambda1 = 1").replace(
        "lambda2 = 2", "lambda2 = 1"
    ).replace("matrix = 0 0; 0 0", "matrix = 0 1; 1 0").replace(
        "gamma = 1.0", "gamma = 0.1"
    ).replace(
        "[run]",
        "[sweep]\ngamma_values = 0 0.25 0.5 0.75 1\n"
        "b_scale_values = 0.2 0.6 1.0 1.4 1.8\nt = 2.2\nsegments = 16\n\n[run]",
    )
    path = tmp_path / "grid.cfg"
    path.write_text(cfg_text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--N", "96", "--out", str(out)]) == 0
    rows = np.genfromtxt(out / "sweep.csv", delimiter=",", names=True)
    assert rows.size == 25
    assert np.all(np.isfinite(rows["residual"]))
    assert np.max(rows["residual"]) <= 1e-2


def test_sweep_jobs_deterministic(tmp_path, monkeypatch):
    cfg_text = BASE_CFG.replace(
        "[run]",
        "[sweep]\ngamma_values = 0 1\nb_scale_values = 0.5 1\nt = 2.2\nsegments = 8\n\n[run]",
    )
    path = tmp_path / "jobs.cfg"
    path.write_text(cfg_text)
    outputs = []
    for tag, jobs in (("serial", "1"), ("parallel", "3")):
        out = tmp_path / tag
        monkeypatch.setenv("HYPCTRL_JOBS", jobs)
        assert main(["sweep", "--config", str(path), "--N", "64", "--out", str(out)]) == 0
        outputs.append((out / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_quasilinear_config_simulate(tmp_path):
    cfg_text = BASE_CFG.replace("lambda2 = 2", "lambda2 = 2 + 0.1*w2**2")
    path = tmp_path / "ql.cfg"
    path.write_text(cfg_text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--N", "64", "--out", str(out)]) == 0
    norms = np.genfromtxt(out / "norms.csv", delimiter=",", names=True)
    assert np.all(np.isfinite(norms["linf_2"]))


def test_kernel_cli_applies_diagonal_gauge(tmp_path):
    cfg_text = BASE_CFG.replace("lambda1 = 1 + x", "lambda1 = 1").replace(
        "lambda2 = 2", "lambda2 = 1"
    ).replace("matrix = 0 0; 0 0", "matrix = 0.3 0.5; 0.5 0")
    path = tmp_path / "diag.cfg"
    path.write_text(cfg_text)
    out = tmp_path / "out"
    assert main(["kernel", "--config", str(path), "--nk", "16", "--out", str(out)]) == 0
    report = json.loads((out / "kernel_report.json").read_text())
    assert report["diagonal_gauge_applied"] is True


def test_control_expressions_drive_simulation(tmp_path):
    cfg_text = BASE_CFG + "\n[control]\nw2 = 0.5*sin(2*t)\n"
    path = tmp_path / "ctrl.cfg"
    path.write_text(cfg_text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--N", "64", "--out", str(out)]) == 0
    term = np.genfromtxt(out / "terminal.csv", delimiter=",", names=True)
    assert np.max(np.abs(term["w_2"])) > 0.1  # the control keeps feeding the state


def test_cfl_violation_exit_code(tmp_path, capsys):
    # dt is set by the speeds at w = 0 (lambda_max = 2); at w2 = 1 the speed
    # is 1e5 + 2, which would need more than 2**12 sub-steps per step
    path = tmp_path / "fast.cfg"
    path.write_text(BASE_CFG.replace("lambda2 = 2", "lambda2 = 2 + 1e5*w2**2"))
    assert main(["simulate", "--config", str(path), "--N", "32", "--out", str(tmp_path)]) == 3
    assert "CFL could not be restored" in capsys.readouterr().err
    # the solver test's case: lambda_2 = 1 + 1e6 w2^2 on a unit bump, N = 64, T = 0.2
    cfg = (BASE_CFG.replace("lambda1 = 1 + x", "lambda1 = 1")
           .replace("lambda2 = 2", "lambda2 = 1 + 1e6*w2**2")
           .replace("w2 = exp(-((x - 0.5)/0.12)**2)", "w2 = exp(-((x - 0.5)/0.1)**2)")
           .replace("t = 1.5", "t = 0.2"))
    path.write_text(cfg)
    assert main(["simulate", "--config", str(path), "--N", "64", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: CFL could not be restored by halving at t = 0.0133333\n"
    )


def test_speed_that_is_not_positive_exits_3_at_once(tmp_path, capsys):
    # lambda_2 = 1 - 0.7 w2^2 is -0.183 at the peak of the initial bump
    cfg = (BASE_CFG.replace("lambda1 = 1 + x", "lambda1 = 1")
           .replace("lambda2 = 2", "lambda2 = 1.0 - 0.7*w2**2")
           .replace("w2 = exp(-((x - 0.5)/0.12)**2)", "w2 = 1.3*exp(-((x - 0.5)/0.1)**2)")
           .replace("t = 1.5", "t = 0.5"))
    path = tmp_path / "negative.cfg"
    path.write_text(cfg)
    assert main(["simulate", "--config", str(path), "--N", "200", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: lambda_2 = -0.183 is not finite and positive at t = 0, x = 0.5\n"
    )


def test_singular_boundary_speed_exit_codes(tmp_path, capsys):
    dual = "\n[dual]\nv1 = 0\nv2 = sin(pi*x)\nt = 0.5\n"
    argv = ["dual", "--N", "32", "--out", str(tmp_path), "--config"]
    # a positive speed below 1e-12 at x = 0 passes validation; the dual refuses it
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(BASE_CFG.replace("lambda2 = 2", "lambda2 = x + 1e-13") + dual)
    assert main(argv + [str(tiny)]) == 3
    assert "vanishes at x = 0" in capsys.readouterr().err
    # one that is exactly zero there is already refused when the system is built
    zero = tmp_path / "zero.cfg"
    zero.write_text(BASE_CFG.replace("lambda2 = 2", "lambda2 = x") + dual)
    assert main(argv + [str(zero)]) == 2
    assert "touches zero" in capsys.readouterr().err


ONE_BY_TWO_CFG = """
[speeds]
k = 1
m = 2
lambda1 = 1
lambda2 = 1
lambda3 = 2

[boundary]
b = 1 2

[grid]
n = 2000
cfl = 0.9
t = 1.7

[initial]
w1 = 0.5*exp(-((x - 0.5)/0.08)**2)
w2 = exp(-((x - 0.45)/0.08)**2)
w3 = 0.7*exp(-((x - 0.55)/0.08)**2)
"""


@pytest.mark.parametrize("command, args", [("feedback", []), ("simulate", ["--T", "0.5"])])
def test_forward_commands_store_no_snapshot_series(tmp_path, command, args):
    # 7,556 (2,223) steps at N = 2000: the default stride would keep 505 (446)
    # states of 48 kB, 24 (21) MB, that neither command writes; they keep the
    # first and the last state
    import tracemalloc

    path = tmp_path / "one_by_two.cfg"
    path.write_text(ONE_BY_TWO_CFG)
    tracemalloc.start()
    try:
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out"), *args]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_simulate_snap_times_record_actual_time(cfg_path, tmp_path):
    # N = 96, T = 1.5, lambda_max = 2: 320 steps of 1.5/320, stored every step
    out = tmp_path / "out"
    assert main(
        ["simulate", "--config", str(cfg_path), "--out", str(out), "--snap-times", "0.5,0.75"]
    ) == 0
    taken = json.loads((out / "snapshots.json").read_text())
    assert set(taken) == {"snapshot_t0.5.csv", "snapshot_t0.75.csv"}
    dt = 1.5 / 320
    assert taken["snapshot_t0.75.csv"] == {"requested": 0.75, "t": 160 * dt}
    half = taken["snapshot_t0.5.csv"]
    assert half["requested"] == 0.5 and half["t"] != 0.5
    assert half["t"] == pytest.approx(round(0.5 / dt) * dt, abs=1e-15)


@pytest.mark.parametrize("bad", ["5", "-1", "nan"])
def test_simulate_snap_times_outside_horizon_refused(cfg_path, tmp_path, capsys, bad):
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(cfg_path), "--out", str(out), "--snap-times", f"0.5,{bad}"]
    assert main(argv) == 2
    assert f"snapshot time {bad} outside [0, T = 1.5]" in capsys.readouterr().err
    assert not (out / "snapshot_t0.5.csv").exists()


@pytest.mark.parametrize(
    "command, old, new, named",
    [
        ("simulate", "gamma = 1.0", "gamma = abc", "[coupling] gamma"),
        ("simulate", "seed = 1234", "seed = x", "[run] seed"),
        ("simulate", "n = 96", "n = 6x", "[grid] n"),
        ("simulate", "cfl = 0.9", "cfl = abc", "[grid] cfl"),
        ("simulate", "t = 1.5", "t = abc", "[grid] t"),
        ("simulate", "k = 1", "k = one", "[speeds] k"),
        ("simulate", "m = 1", "m = one", "[speeds] m"),
        ("sweep", "[run]", "[sweep]\ngamma_values = 0, abc\n\n[run]", "[sweep] gamma_values"),
        ("sweep", "[run]", "[sweep]\ngamma_values =\n\n[run]", "[sweep] gamma_values"),
        ("sweep", "[run]", "[sweep]\nb_scale_values =\n\n[run]", "[sweep] b_scale_values"),
        ("simulate", "lambda2 = 2", "lambda2_x =\nlambda2_values =", "[speeds] lambda2_x"),
        ("simulate", "gamma = 1.0", "gamma = 1.0\nc1_x = 1", "[coupling] c1_x"),
    ],
)
def test_bad_config_value_names_section_and_key(tmp_path, capsys, command, old, new, named):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE_CFG.replace(old, new))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and named in err


@pytest.mark.parametrize(
    "command", ["simulate", "dual", "feedback", "nullctrl", "witness", "observability", "sweep"]
)
@pytest.mark.parametrize("T", ["nan", "inf"])
def test_non_finite_horizon_refused(tmp_path, capsys, command, T):
    path = tmp_path / "sys.cfg"
    path.write_text(BASE_CFG + "\n[dual]\nv2 = sin(pi*x)\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--T", T, "--N", "16", "--out", str(out)]
    assert main(argv) == 2
    assert f"time horizon must be finite and positive, got T = {T}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["nullctrl", "sweep"])
@pytest.mark.parametrize(
    "flag, value, named",
    [("--segments", "0", "segments = 0"), ("--segments", "-1", "segments = -1"),
     ("--reg", "nan", "reg = nan"), ("--reg", "-1", "reg = -1.0"), ("--reg", "inf", "reg = inf"),
     ("--segments", "1000", "segments = 1000 for 72 steps"),
     ("--segments", "72", "segments = 72 for 72 steps")],
)
def test_bad_null_control_setting_refused(cfg_path, tmp_path, capsys, command, flag, value, named):
    # the sweep refuses once, before its points, instead of writing NaN rows
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg_path), "--T", "2", "--N", "16", "--out", str(out)]
    assert main(argv + [flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and named in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["witness", "observability"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_negative_seed_refused(cfg_path, tmp_path, capsys, command, via):
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg_path), "--T", "1.0", "--N", "16", "--out", str(out)]
    if via == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg_path.write_text(BASE_CFG.replace("seed = 1234", "seed = -4"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert ("seed = -1" if via == "flag" else "seed = -4") in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["witness", "observability"])
@pytest.mark.parametrize("samples", ["0", "-1"])
def test_no_samples_refused(cfg_path, tmp_path, capsys, command, samples):
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg_path), "--T", "1.0", "--N", "16", "--out", str(out)]
    assert main(argv + ["--samples", samples]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and f"samples = {samples}" in err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, written", [
    ("nullctrl", ["--segments", "4"], "nullctrl_report.json"),
    ("observability", ["--samples", "2"], "observability_report.json"),
    ("sweep", ["--segments", "4"], "sweep.csv"),
])
def test_grid_is_built_at_the_horizon_run(tmp_path, command, flags, written):
    # [grid] t = 0 is not a horizon, but the command runs at --T 2
    path = tmp_path / "sys.cfg"
    path.write_text(BASE_CFG.replace("t = 1.5", "t = 0"))
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--T", "2", "--N", "16", "--out", str(out)]
    assert main(argv + flags) == 0
    assert (out / written).is_file()


def test_feedback_refuses_coupled_system(tmp_path, capsys):
    path = tmp_path / "coupled.cfg"
    path.write_text(BASE_CFG.replace("matrix = 0 0; 0 0", "matrix = 0 0.4; 0.4 0"))
    out = tmp_path / "a" / "b"
    argv = ["feedback", "--config", str(path), "--T", "2.2", "--N", "64", "--out", str(out)]
    assert main(argv) == 2
    assert "finite-time feedback requires zero coupling" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()  # refused before any writer made a directory


@pytest.mark.parametrize("command, flags, written", [
    ("simulate", ["--N", "16"], "norms.csv"),
    ("dual", ["--N", "16"], "observation.csv"),
    ("kernel", ["--nk", "16"], "kernel.csv"),
    ("feedback", ["--N", "16"], "feedback_report.json"),
    ("nullctrl", ["--N", "16", "--segments", "4"], "control.csv"),
    ("witness", ["--N", "16", "--T", "1.0", "--samples", "2"], "witness_report.json"),
    ("observability", ["--N", "16", "--samples", "2"], "observability_report.json"),
    ("sweep", ["--N", "16", "--segments", "4"], "sweep.csv"),
])
def test_writers_create_a_missing_out_directory(cfg_path, tmp_path, command, flags, written):
    out = tmp_path / "a" / "b"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # corner compatibility at N = 16
        assert main([command, "--config", str(cfg_path), "--out", str(out), *flags]) == 0
    assert (out / written).is_file()


@pytest.mark.parametrize("old, new, section, key", [
    ("w1 = 0", "w1 = 0\nw_2 = 1", "initial", "w_2"),
    ("w1 = 0", "w1 = 0\nw3 = 1", "initial", "w3"),
    ("lambda2 = 2", "lambda2 = 2\nlambda3 = 2", "speeds", "lambda3"),
    ("lambda2 = 2", "lambda2 = 2\nlambdafoo = 2", "speeds", "lambdafoo"),
    ("[run]", "[control]\nw1 = sin(t)\n\n[run]", "control", "w1"),
    ("[run]", "[dual]\nv3 = 1\n\n[run]", "dual", "v3"),
    ("gamma = 1.0", "gamma = 1.0\nc1_2 = 0.5", "coupling", "c1_2"),
    ("lambda1 = 1 + x", "lambda1 = 1 + x\nlambda1_x = 0 1", "speeds", "lambda1_x"),
])
def test_config_key_no_reader_takes_is_refused(tmp_path, capsys, old, new, section, key):
    # n = k + m = 2 here: no w3, lambda3 or v3, and [control] drives w2 only
    path = tmp_path / "keys.cfg"
    path.write_text(BASE_CFG.replace(old, new))
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["nullctrl", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and f"[{section}]" in err and key in err
    assert not (tmp_path / "out").exists()


def test_every_benchmark_config_is_accepted(tmp_path):
    from perfbench.workloads import WORKLOADS, generate

    for workload in WORKLOADS:
        for config in {task["config"] for task in generate(workload, 5, tmp_path / workload)}:
            load_config(config).system()


@pytest.mark.parametrize("amplitude", ["nan", "inf"])
def test_non_finite_witness_amplitude_refused(cfg_path, tmp_path, capsys, amplitude):
    cfg_path.write_text(BASE_CFG + f"\n[witness]\namplitude = {amplitude}\n")
    argv = ["witness", "--config", str(cfg_path), "--N", "16", "--T", "1.0",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert (f"witness amplitude must be finite, got amplitude = {amplitude}"
            in capsys.readouterr().err)


def test_zero_witness_amplitude_refused(tmp_path, capsys):
    # a zero bump makes the expected probe value 0 and the deviation numerical
    # leakage: the witness would show nothing
    path = tmp_path / "wit.cfg"
    cfg_text = BASE_CFG.replace("lambda2 = 2", "lambda2 = 1")
    path.write_text(cfg_text + "\n[witness]\namplitude = 0\n")
    out = tmp_path / "out"
    argv = ["witness", "--config", str(path), "--T", "1.0", "--N", "16", "--samples", "3",
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "amplitude = 0.0" in err
    assert not out.exists()


# every option of every subcommand; the config-only settings of
# config.SETTINGS, such as [witness] amplitude, must not gain a flag, and
# only the commands that draw take --seed
_COMMON_OPTIONS = {"-h", "--help", "--config", "--out"}
_GRID_OPTIONS = _COMMON_OPTIONS | {"--N", "--T"}
_COMMAND_OPTIONS = {
    "times": _COMMON_OPTIONS | {"--json"},
    "check-b": _COMMON_OPTIONS | {"--json"},
    "simulate": _GRID_OPTIONS | {"--snap-times", "--binary"},
    "dual": _GRID_OPTIONS | {"--use-kernel"},
    "kernel": _COMMON_OPTIONS | {"--nk", "--tolerance", "--max-iters"},
    "feedback": _GRID_OPTIONS,
    "nullctrl": _GRID_OPTIONS | {"--segments", "--reg"},
    "witness": _GRID_OPTIONS | {"--samples", "--seed"},
    "observability": _GRID_OPTIONS | {"--samples", "--seed"},
    "sweep": _GRID_OPTIONS | {"--jobs", "--segments", "--reg"},
}


def test_every_subcommand_keeps_exactly_its_options():
    (subparsers,) = [a for a in _build_parser()._actions if a.dest == "command"]
    options = {name: set(sp._option_string_actions) for name, sp in subparsers.choices.items()}
    assert options == _COMMAND_OPTIONS


def test_nullctrl_settings_follow_flag_then_file_then_default(tmp_path):
    def report(cfg_text, *flags):
        path = tmp_path / "prec.cfg"
        path.write_text(cfg_text)
        out = tmp_path / "out"
        # N = 32: at N = 16 the default 64 segments exceed the 54 steps over [grid] t
        assert main(["nullctrl", "--config", str(path), "--N", "32", "--out", str(out), *flags]) == 0
        rep = json.loads((out / "nullctrl_report.json").read_text())
        return rep["T"], rep["segments"], rep["reg"]

    in_file = BASE_CFG + "\n[nullctrl]\nt = 2.0\nsegments = 5\nreg = 1e-6\n"
    assert report(in_file, "--T", "2.5", "--segments", "3", "--reg", "1e-4") == (2.5, 3, 1e-4)
    assert report(in_file) == (2.0, 5, 1e-6)
    assert report(BASE_CFG) == (1.5, 64, 1e-8)  # t falls back to [grid] t


def test_kernel_max_iters_flag_overrides_file(tmp_path, capsys):
    path = tmp_path / "ker.cfg"
    path.write_text(COUPLED_CFG + "\n[kernel]\nnk = 16\nmax_iters = 1\n")
    argv = ["kernel", "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert main(argv + ["--max-iters", "200"]) == 0
    assert json.loads((tmp_path / "out" / "kernel_report.json").read_text())["NK"] == 16


def test_sweep_values_come_from_file_else_default(tmp_path):
    def gammas(cfg_text):
        path = tmp_path / "values.cfg"
        path.write_text(cfg_text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--N", "16", "--out", str(out)]) == 0
        rows = np.genfromtxt(out / "sweep.csv", delimiter=",", names=True, ndmin=1)
        return rows["gamma"].tolist(), rows["b_scale"].tolist()

    section = "[sweep]\nsegments = 2\n"
    assert gammas(BASE_CFG + section) == ([1.0], [1.0])
    assert gammas(BASE_CFG + section + "gamma_values = 0, 0.5\n") == ([0.0, 0.5], [1.0, 1.0])
