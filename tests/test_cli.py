"""Config parsing, CSV serialization, and the four CLI subcommands."""

from __future__ import annotations

import errno
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from visco1d import cli, diagnostics, g17, grid, harness, stepper
from visco1d.cli import (
    ConfigError,
    cli_main,
    parse_config,
    read_state_csv,
    write_state_csv,
)

from conftest import peak_beyond_the_solver, reset_worker, scenario_named


MINIMAL = "[scenario]\nname = constant\n"
# p = 3**1000 overflows at the first step.
OVERFLOW = (
    "[scenario]\nname = overflow\nrho0 = piecewise:0.5|3,1\nu0 = zero\n"
    "gamma = 1000\nlevels = 16\nT = 0.0625\n"
)
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="run writes in process without fork",
)


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ======================================================================
# parsing
# ======================================================================


def test_minimal_config_fills_every_default():
    rc = parse_config(MINIMAL)
    sc = rc.scenario
    assert sc.name == "constant"
    assert sc.levels == (64, 128, 256, 512)
    assert sc.dt_over_dx == 1.0
    assert rc.solver == stepper.SolverConfig()
    assert rc.out_dir == "."


def test_to_text_round_trips_through_parse():
    rc = parse_config(
        "[scenario]\n"
        "name = smooth-bump\n"
        "T = 0.125\n"
        "levels = 8,16,32\n"
        "[solver]\n"
        "newton_tol = 1e-11\n"
        "[output]\n"
        "out_dir = results\n"
    )
    rc2 = parse_config(rc.to_text())
    assert rc2.scenario == rc.scenario
    assert rc2.solver == rc.solver
    assert rc2.out_dir == rc.out_dir
    # and the round-trip is a fixed point of serialization
    assert rc2.to_text() == rc.to_text()


def test_parse_config_builds_only_the_named_builtin(monkeypatch):
    """A config's name seeds it from that one built-in scenario; the other
    five, each of which checks its profiles on four levels, are not built."""
    expected = replace(scenario_named("riemann-like"), levels=(64,))
    built = []
    check = harness.ScenarioConfig.__post_init__

    def counted(self) -> None:
        built.append(self.name)
        check(self)

    monkeypatch.setattr(harness.ScenarioConfig, "__post_init__", counted)
    assert parse_config("[scenario]\nname = riemann-like\nlevels = 64\n").scenario == expected
    assert set(built) == {"riemann-like"}


def test_to_text_names_every_key_once_and_round_trips():
    """Every key of the format's table, set away from its default, is written
    exactly once, in table order, and parses back to the same config."""
    values = {
        "scenario": {
            "name": "custom", "rho0": "bump:0.25", "u0": "sin2pi:0.2", "L": "2",
            "T": "0.5", "a": "1.5", "gamma": "1.75", "mu": "0.25", "levels": "4,8,16",
            "dt_over_dx": "0.5",
        },
        "solver": {
            "newton_tol": "1e-09", "max_newton_iters": "7", "fallback": "9",
            "polish_floor": "1e-12",
        },
        "output": {"out_dir": "elsewhere"},
    }
    assert {s: list(keys) for s, keys in values.items()} == {
        s: list(keys) for s, keys in cli._KEYS.items()
    }
    text = "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in values.items()
    )

    def key_lines(config: cli.RunConfig) -> dict[str, str]:
        pairs = [ln.split(" = ") for ln in config.to_text().splitlines() if " = " in ln]
        assert len({k for k, _ in pairs}) == len(pairs)  # no key written twice
        return dict(pairs)

    rc = parse_config(text)
    written = rc.to_text()
    assert list(key_lines(rc)) == [k for section in cli._KEYS.values() for k in section]
    defaults = key_lines(cli.RunConfig(scenario=harness.ScenarioConfig(name="custom")))
    assert all(defaults.get(k) != v for k, v in key_lines(rc).items() if k != "name")
    assert parse_config(written) == rc
    assert parse_config(written).to_text() == written


def test_readme_config_block_lists_every_key():
    """The README's ```ini example names every key of the format in its
    section, and is itself a config that parses."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    keys: dict[str, set[str]] = {}
    for raw in block.splitlines():
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if line.startswith("["):
            section = keys.setdefault(line[1:-1], set())
        elif line:
            section.add(line.partition("=")[0].strip())
    assert keys == {name: set(table) for name, table in cli._KEYS.items()}
    parse_config(block)


def test_auto_newton_tol_round_trips():
    rc = parse_config(MINIMAL)
    assert rc.solver.newton_tol is None
    assert "newton_tol = auto" in rc.to_text()
    assert parse_config(rc.to_text()).solver.newton_tol is None


def test_comments_and_blank_lines_ignored():
    rc = parse_config(
        "# leading comment\n\n[scenario]\n"
        "name = constant   ; trailing comment\n"
        "T = 0.5  # another\n"
    )
    assert rc.scenario.T == 0.5


def test_gamma_outside_window_is_warning_not_error():
    rc = parse_config(MINIMAL + "gamma = 1.4\n")
    assert rc.scenario.params.gamma == 1.4
    assert not rc.scenario.params.in_theory_range
    assert "outside 3/2<gamma<2 convergence regime" in rc.scenario.params.gamma_note


def test_negative_mu_is_error_naming_key_and_line():
    text = "[scenario]\nname = constant\nmu = -0.5\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "mu" in msg
    assert "(line 3)" in msg


def test_unknown_section_key_and_duplicate_are_line_annotated():
    with pytest.raises(ConfigError, match=r"unknown section.*\(line 1\)"):
        parse_config("[physics]\n")
    with pytest.raises(ConfigError, match=r"unknown key 'rho'.*\(line 3\)"):
        parse_config("[scenario]\nname = constant\nrho = 1\n")
    with pytest.raises(ConfigError, match=r"duplicate key 'T'.*\(line 4\)"):
        parse_config("[scenario]\nname = constant\nT = 0.1\nT = 0.2\n")
    with pytest.raises(ConfigError, match=r"before any section"):
        parse_config("name = constant\n")
    with pytest.raises(ConfigError, match=r"key = value"):
        parse_config("[scenario]\nname\n")


def test_missing_or_unknown_name():
    with pytest.raises(ConfigError, match="name"):
        parse_config("[scenario]\nT = 0.1\n")
    with pytest.raises(ConfigError, match="unknown scenario"):
        parse_config("[scenario]\nname = quantum\n")
    # an unknown name with an explicit profile is a custom scenario
    rc = parse_config("[scenario]\nname = quantum\nrho0 = constant:2\n")
    assert rc.scenario.rho0 == "constant:2"


def test_malformed_values_name_key_and_line():
    with pytest.raises(ConfigError, match=r"'L' is not a number.*\(line 3\)"):
        parse_config("[scenario]\nname = constant\nL = fast\n")
    with pytest.raises(ConfigError, match=r"'levels' is not an integer"):
        parse_config("[scenario]\nname = constant\nlevels = 8,big\n")
    with pytest.raises(ConfigError, match=r"strictly increasing \(line 3\)"):
        parse_config("[scenario]\nname = constant\nlevels = 8,4\n")
    with pytest.raises(ConfigError, match=r"multiple of the coarsest \(line 3\)"):
        parse_config("[scenario]\nname = constant\nlevels = 8,12\n")
    with pytest.raises(ConfigError, match=r"bad rho0 profile 'bump:abc'.*\(line 4\)"):
        parse_config("[scenario]\nname = constant\nT = 0.1\nrho0 = bump:abc\n")
    with pytest.raises(ConfigError, match=r"unknown velocity profile 'tanh'.*\(line 3\)"):
        parse_config("[scenario]\nname = smooth-bump\nu0 = tanh\nT = 0.1\n")


@pytest.mark.parametrize(
    "key, value",
    [
        ("L", "inf"),
        ("T", "inf"),
        ("dt_over_dx", "inf"),
        ("dt_over_dx", "nan"),
        ("a", "inf"),
        ("gamma", "inf"),
        ("mu", "inf"),
        ("mu", "nan"),
        ("mu", "0"),
        ("newton_tol", "inf"),
        ("newton_tol", "nan"),
        ("polish_floor", "nan"),
        ("polish_floor", "inf"),
        ("rho0", "constant:nan"),
        ("rho0", "bump:nan"),
        ("rho0", "piecewise:0.5|nan,1"),
        ("u0", "sin2pi:inf"),
    ],
)
def test_non_finite_values_are_config_errors(key, value):
    text = "[scenario]\nname = constant\n"
    if key in ("newton_tol", "polish_floor"):
        text += "[solver]\n"
    text += f"{key} = {value}\n"
    with pytest.raises(ConfigError, match=key) as err, warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        parse_config(text)
    assert err.value.line == text.count("\n")
    assert f"(line {err.value.line})" in str(err.value)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("L", "0", "domain length must be positive and finite, got L=0.0"),
        ("T", "-1", "final time must be nonnegative and finite, got T=-1.0"),
        ("a", "0", "got a=0"),
        ("gamma", "1", "got gamma=1"),
        ("dt_over_dx", "0", "dt_over_dx must be positive and finite, got 0.0"),
        ("levels", "0", "levels must be positive"),
        ("levels", "", "levels must list at least one N"),
        ("rho0", "constant:-1", "rho0 profile 'constant:-1'"),
    ],
)
def test_out_of_range_values_name_key_and_line(key, value, message):
    text = f"[scenario]\nname = constant\n{key} = {value}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert message in str(err.value)
    assert err.value.line == text.count("\n")
    assert str(err.value).endswith(f"(line {err.value.line})")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("dt_over_dx", "-1", "dt_over_dx must be positive and finite, got -1.0"),
        ("dt_over_dx", "0.3", "final time must be a whole number of time steps, got T=0.25"),
        ("dt_over_dx", "1e12", "final time must be a whole number of time steps, got T=0.25"),
        ("levels", "1,2,4", "need at least 2 cells, got N=1"),
    ],
)
def test_grid_rules_name_key_and_line(key, value, message):
    text = f"[scenario]\nname = constant\n{key} = {value}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert message in str(err.value)
    assert str(err.value).endswith("(line 3)")


@pytest.mark.parametrize(
    "body, line",
    [
        ("levels = 64\ndt_over_dx = 6.4\n", 4),  # dt = 0.1, T/dt = 2.5
        ("levels = 6,12,24\n", 3),  # T/dx = 1.5 at N = 6
    ],
    ids=["dt", "levels"],
)
def test_final_time_off_the_step_grid_exits_2_at_its_line(tmp_path, capsys, body, line):
    cfg = write_cfg(tmp_path, "[scenario]\nname = smooth-bump\n" + body)
    assert cli_main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "final time must be a whole number of time steps, got T=0.25" in err
    assert err.rstrip().endswith(f"(line {line})")


def test_keys_are_judged_together_not_against_the_defaults():
    """T = 0.1 is no whole number of the default ladder's steps (dx = 1/64),
    but it is of the ladder the same config gives."""
    text = "[scenario]\nname = smooth-bump\nT = 0.1\nlevels = 10,20,40\n"
    rc = parse_config(text)
    assert rc.scenario.T == 0.1
    assert [rc.scenario.grid_for(n).M_steps for n in rc.scenario.levels] == [1, 2, 4]
    # The one key at fault is named, not T, which alone fails the defaults.
    with pytest.raises(ConfigError, match=r"got mu=-1.0 \(line 5\)$"):
        parse_config(text + "mu = -1\n")
    with pytest.raises(ConfigError, match=r"T=0.1, dt=0.03 .* \(line 5\)$"):
        parse_config(text + "dt_over_dx = 0.3\n")


@pytest.mark.parametrize(
    "section, key",
    [
        ("solver", "regularize_upwind"),
        ("scenario", "couple_dt_dx"),
        ("solver", "damping"),
        ("scenario", "dt"),  # an absolute time step; dt_over_dx sets it now
    ],
    ids=lambda x: x,
)
def test_removed_key_exits_2(tmp_path, capsys, section, key):
    extra = "" if section == "scenario" else f"[{section}]\n"
    text = MINIMAL + extra + f"{key} = 0.01\n"
    cfg = write_cfg(tmp_path, text)
    assert cli_main(["verify", "--config", cfg]) == 2
    line = text.count("\n")
    assert f"unknown key '{key}' in [{section}] (line {line})" in capsys.readouterr().err


def test_non_finite_viscosity_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[scenario]\nname = constant\nlevels = 8\nmu = inf\n")
    assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "mu=inf" in capsys.readouterr().err
    assert not (tmp_path / "out" / "state.csv").exists()


def test_non_finite_residual_exits_1_with_step_and_history(tmp_path, capsys):
    """p = 3**1000 overflows: the step fails loudly instead of copying the state."""
    cfg = write_cfg(tmp_path, OVERFLOW)
    assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    warning, failure = capsys.readouterr().err.splitlines()  # no numpy warning between
    assert warning.startswith("WARNING gamma=1000")
    assert failure.startswith("solver failure: run aborted:")
    assert failure.count("(step k=1") == 1
    assert "recent residual norms: [nan" in failure


@pytest.mark.parametrize("command", ["run", "verify"])
def test_overflowing_velocity_fails_with_one_line(tmp_path, capsys, command):
    """u0 = 1e300 sin(2 pi x) overflows the first step: the command exits 1
    with its one solver-failure line and no numpy warning (the suite makes
    a RuntimeWarning an error)."""
    cfg = write_cfg(tmp_path, "[scenario]\nname = smooth-bump\nu0 = sin2pi:1e300\nlevels = 16\n")
    argv = [command, "--config", cfg] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert cli_main(argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("solver failure: run aborted: continuation met a non-finite "
                           "residual (step k=1")


# ======================================================================
# state CSV
# ======================================================================


def run_cli(argv):
    return cli_main(argv)


def constant_cfg(tmp_path, extra=""):
    # T = 0.5 is one step at N = 2 (dt = dx = 0.5)
    return write_cfg(tmp_path, "[scenario]\nname = constant\nlevels = 2\nT = 0.5\n" + extra)


def test_run_constant_state_csv_shape(tmp_path, capsys):
    cfg = constant_cfg(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    lines = (out / "state.csv").read_text().splitlines()
    data = [ln for ln in lines if ln and not ln.startswith("#") and not ln.startswith("k,")]
    # N=2, T=0.5, dt=dx=0.5 -> one step -> time levels k=0 and k=1
    ks = sorted({int(ln.split(",")[0]) for ln in data})
    assert ks == [0, 1]
    for k in ks:
        rows = [ln.split(",") for ln in data if ln.startswith(f"{k},")]
        assert len(rows) == 3  # one per velocity face
        rho_entries = [r[4] for r in rows if r[4]]
        assert len(rho_entries) == 2  # one per cell
        assert all(float(e) == 1.0 for e in rho_entries)
        assert all(float(r[6]) == 0.0 for r in rows)


def test_rerun_is_byte_identical(tmp_path):
    cfg = constant_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", "--config", cfg, "--out", str(a)]) == 0
    assert run_cli(["run", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "state.csv").read_bytes() == (b / "state.csv").read_bytes()


def test_state_csv_round_trip_is_bit_exact(tmp_path):
    sc = next(s for s in harness.builtin_scenarios() if s.name == "smooth-bump")
    traj = stepper.run(sc, sc.grid_for(8), sc.params)
    path = str(tmp_path / "state.csv")
    write_state_csv(traj, path)
    rho, u = read_state_csv(path)
    assert np.array_equal(rho, traj.rho_matrix)
    assert np.array_equal(u, traj.u_matrix)


def test_state_csv_write_error_exits_1(tmp_path, capsys):
    cfg = constant_cfg(tmp_path)
    out = tmp_path / "out"
    (out / "state.csv").mkdir(parents=True)
    assert run_cli(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "i/o error: cannot write" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert os.listdir(out) == ["state.csv"]  # no temporary file is left


@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "earlier"])
def test_solver_failure_leaves_state_csv_as_it_was(tmp_path, capsys, earlier):
    cfg = write_cfg(tmp_path, OVERFLOW)
    out = tmp_path / "out"
    out.mkdir()
    if earlier:
        (out / "state.csv").write_bytes(b"an earlier run's state.csv\n")
    assert run_cli(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "solver failure" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert os.listdir(out) == (["state.csv"] if earlier else [])
    if earlier:
        assert (out / "state.csv").read_bytes() == b"an earlier run's state.csv\n"


def test_writer_error_exits_1_and_leaves_no_file(tmp_path, capsys, monkeypatch):
    def failing_formatter(grid):
        def level_text(k, rho, u):
            raise OSError(errno.ENOSPC, "No space left on device")
        return level_text

    # The one level formatter, which the writer calls.
    monkeypatch.setattr(cli, "_level_formatter", failing_formatter)
    cfg = write_cfg(tmp_path, "[scenario]\nname = smooth-bump\nlevels = 16\n")
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"i/o error: cannot write {out / 'state.csv'}: [Errno 28] No space left" in err
    assert multiprocessing.active_children() == []
    assert os.listdir(out) == []


@needs_fork
def test_writer_killed_mid_stream_exits_1(tmp_path, capsys, monkeypatch):
    solve = cli.march

    def march(*args, **kwargs):
        for state, meta in solve(*args, **kwargs):
            if state.k == 3:
                (writer,) = multiprocessing.active_children()
                os.kill(writer.pid, signal.SIGKILL)
                writer.join()
            yield state, meta

    monkeypatch.setattr(cli, "march", march)
    cfg = write_cfg(tmp_path, "[scenario]\nname = smooth-bump\nlevels = 32\n")
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"i/o error: cannot write {out / 'state.csv'}: " in err
    assert "writer exited with code -9" in err
    assert multiprocessing.active_children() == []
    assert os.listdir(out) == []


def test_writer_with_reset_pipe_exits_1_naming_the_writer(tmp_path, capsys, monkeypatch):
    """A killed writer's pipe can raise ConnectionResetError instead of EOFError."""
    monkeypatch.setattr(cli, "fork_worker", lambda *args: reset_worker(-9))
    cfg = write_cfg(tmp_path, "[scenario]\nname = smooth-bump\nlevels = 16\n")
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"i/o error: cannot write {out / 'state.csv'}: "
        "state.csv writer exited with code -9 without a result\n"
    )
    assert os.listdir(out) == []


def test_write_error_without_fork_leaves_state_csv_as_it_was(tmp_path, capsys, monkeypatch):
    """Written in process, the CSV also goes to a temporary file that
    replaces state.csv only once it is complete."""
    write = cli._write_levels

    def failing_write(path, grid, levels, config, *args):
        def failing_levels():
            for k, level in enumerate(levels):
                if k == 1:
                    raise OSError(errno.ENOSPC, "No space left on device")
                yield level

        write(path, grid, failing_levels(), config, *args)

    monkeypatch.setattr(cli, "fork_worker", lambda *args: None)
    monkeypatch.setattr(cli, "_write_levels", failing_write)
    cfg = write_cfg(tmp_path, "[scenario]\nname = smooth-bump\nlevels = 16\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "state.csv").write_bytes(b"an earlier run's state.csv\n")
    assert run_cli(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"i/o error: cannot write {out / 'state.csv'}: [Errno 28] No space left" in err
    assert os.listdir(out) == ["state.csv"]  # no temporary file is left
    assert (out / "state.csv").read_bytes() == b"an earlier run's state.csv\n"


def test_streamed_run_keeps_no_trajectory(tmp_path):
    """run sends each state to the writer as the solver makes it, so beyond
    the solver's own tracemalloc peak this process holds one level at a
    time: less than a quarter of one (M+1) x N matrix, where a kept
    trajectory alone is two (test_streamed_verify_keeps_no_trajectory's
    config)."""
    sc = replace(scenario_named("smooth-bump"), T=2.0, levels=(128,))
    config = cli.RunConfig(scenario=sc)

    def run() -> None:
        cli._solve_writing_state(config, str(tmp_path / "state.csv"))

    assert sc.grid_for(128).M_steps == 256
    assert peak_beyond_the_solver(sc, run) < 0.25


@needs_fork
@pytest.mark.parametrize("name", ["smooth-bump", "riemann-like"])
def test_run_without_fork_writes_the_same_bytes(tmp_path, monkeypatch, name):
    forked = []

    def fork_worker(*args):
        worker = harness.fork_worker(*args)
        forked.append(worker is not None)
        return worker

    cfg = write_cfg(tmp_path, f"[scenario]\nname = {name}\nlevels = 64\n")
    monkeypatch.setattr(cli, "fork_worker", fork_worker)
    assert run_cli(["run", "--config", cfg, "--out", str(tmp_path / "forked")]) == 0

    get_context = multiprocessing.get_context

    def no_fork(method=None):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    assert run_cli(["run", "--config", cfg, "--out", str(tmp_path / "inline")]) == 0
    assert forked == [True, False]
    assert os.listdir(tmp_path / "inline") == ["state.csv"]
    forked_bytes = (tmp_path / "forked" / "state.csv").read_bytes()
    assert (tmp_path / "inline" / "state.csv").read_bytes() == forked_bytes


@needs_fork
@pytest.mark.parametrize("name, n", [("smooth-bump", 32), ("riemann-like", 64)])
def test_forked_and_inline_runs_write_the_bytes_of_write_state_csv(tmp_path, monkeypatch, name, n):
    """run's solver sends the forked writer states only, and state.csv has
    the bytes of the in-process path and of write_state_csv."""
    config = parse_config(f"[scenario]\nname = {name}\nlevels = {n}\n")
    kept = tmp_path / "kept.csv"
    sc = config.scenario
    write_state_csv(stepper.run(sc, sc.grid_for(n), sc.params, config.solver), str(kept), config)

    sent = []  # the kind of each level the solver sends
    send = harness._send_level

    def send_level(conn, level):
        if level is not None:
            sent.append(type(level))
        send(conn, level)

    monkeypatch.setattr(harness, "_send_level", send_level)
    forked = tmp_path / "forked.csv"
    cli._solve_writing_state(config, str(forked))
    monkeypatch.setattr(cli, "fork_worker", lambda *args: None)
    inline = tmp_path / "inline.csv"
    cli._solve_writing_state(config, str(inline))

    assert sent == [grid.FluidState] * (config.scenario.grid_for(n).M_steps + 1)
    assert forked.read_bytes() == inline.read_bytes() == kept.read_bytes()


def test_an_unchanged_level_keeps_the_fields_of_the_level_before(tmp_path, monkeypatch):
    """Only a level whose rho and u differ in some bit from the level
    before is formatted again; a signed zero is such a bit."""
    calls = []
    call = g17.Fields.__call__

    def counted(self, values):
        calls.append(values.size)
        return call(self, values)

    monkeypatch.setattr(g17.Fields, "__call__", counted)
    rho, u = np.full(4, 1.5), np.array([0.0, 0.25, -0.5, 1e-300, 0.0])
    flipped = u.copy()
    flipped[0] = -0.0
    g = _unchecked(grid.GridSpec, L=1.0, N=4, dt=0.25, T=0.75)
    states = tuple(_unchecked(grid.FluidState, rho=rho, u=level, k=k)
                   for k, level in enumerate([u, u, flipped, flipped]))
    traj = _unchecked(grid.Trajectory, grid=g, params=grid.PhysParams(), states=states,
                      solver_meta=(), meta={})
    level_text = cli._level_formatter(g)
    text = b"".join(bytes(level_text(k, state.rho, state.u)) for k, state in enumerate(states))
    assert calls == [13, 13]  # levels 0 and 2
    reference_write_state_csv(traj, str(tmp_path / "ref.csv"))
    assert text == (tmp_path / "ref.csv").read_bytes().split(b"\n", 1)[1]


def cli_env() -> dict[str, str]:
    """This environment with the package's source first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_python_dash_m_runs_the_cli(tmp_path):
    cfg = write_cfg(tmp_path, "[scenario]\nname = constant\nlevels = 8\n")
    proc = subprocess.run(
        [sys.executable, "-m", "visco1d.cli", "verify", "--config", cfg],
        capture_output=True, text=True, env=cli_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "15/15 identity checks passed" in proc.stdout.splitlines()


def _import_cli(blas_threads: str | None) -> list[str]:
    """Import visco1d.cli in a fresh interpreter: its OPENBLAS_NUM_THREADS, then its
    thread count ('' without /proc/self/task)."""
    env = cli_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    script = (
        "import os, visco1d.cli\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
        "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else '')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_verify_does_not_load_numpy_random(tmp_path):
    """verify draws its duality cases from the standard library's random,
    and writes no state CSV, so it does not load the formatting kernel."""
    cfg = write_cfg(tmp_path, "[scenario]\nname = smooth-bump\nlevels = 16\n")
    script = (
        "import sys\n"
        "from visco1d.cli import cli_main\n"
        f"code = cli_main(['verify', '--config', {cfg!r}])\n"
        "print(code, 'numpy.random' in sys.modules, 'visco1d.g17' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "15/15 identity checks passed" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "0 False False"


def test_cli_import_pins_blas_to_one_thread():
    value, tasks = _import_cli(None)
    assert value == "1"
    if not tasks:
        pytest.skip("no /proc/self/task to count threads in")
    assert tasks == "1"


def test_cli_import_keeps_a_user_set_blas_thread_count():
    assert _import_cli("2")[0] == "2"


def test_cli_import_skips_the_scipy_linalg_package():
    """The CLI loads LAPACK without scipy.linalg's package import and what it
    drags in; a later import of the package still works and gives the same bits."""
    script = (
        "import sys, numpy as np, visco1d.cli\n"
        "from visco1d import operators\n"
        "print(*(m in sys.modules for m in ('scipy.linalg', 'numpy.f2py', 'numpy.testing')))\n"
        "import scipy.linalg\n"
        "rng = np.random.default_rng(0)\n"
        "work = np.zeros((13, 40), order='F')\n"
        "work[4:] = rng.standard_normal((9, 40))\n"
        "work[8] += 10.0\n"
        "b = rng.standard_normal(40)\n"
        "bits = []\n"
        "for lapack in (operators, scipy.linalg.lapack):\n"
        "    lu, piv, info = lapack.dgbtrf(work.copy(order='F'), 4, 4)\n"
        "    x, _ = lapack.dgbtrs(lu, 4, 4, b, piv)\n"
        "    bits.append((lu.tobytes(), piv.tobytes(), info, x.tobytes()))\n"
        "print(bits[0] == bits[1])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False False False", "True"]


def test_run_cli_writes_each_line_once(tmp_path):
    """Output buffered before the writer forks is written once, not twice."""
    cfg = write_cfg(tmp_path, "[scenario]\nname = smooth-bump\ngamma = 1.4\nlevels = 8\n")
    script = (
        "from visco1d.cli import main\n"
        "print('before run')\n"  # stdout is a pipe: this stays buffered
        "main()\n"
    )
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)  # buffer stdout, as a plain run does
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", script, "run", "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "before run", f"wrote {out / 'state.csv'} (3 time levels, N=8)"]
    assert proc.stderr.splitlines() == [
        "WARNING gamma=1.4 outside 3/2<gamma<2 convergence regime"]


def _reference_fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def reference_write_state_csv(traj, path, config=None) -> None:
    """The per-row writer that write_state_csv replaced, kept as its byte oracle."""
    g = traj.grid
    centers = g.cell_centers
    faces = g.face_nodes
    rows = [] if config is None else ["# " + ln for ln in config.to_text().splitlines()]
    rows.append("k,t,i,x_center,rho,x_face,u,hat_u")
    for k, state in enumerate(traj.states):
        hat = 0.5 * (state.u[:-1] + state.u[1:])
        t = k * g.dt
        for i in range(g.N + 1):
            if i < g.N:
                cell = f"{_reference_fmt(centers[i])},{_reference_fmt(state.rho[i])}"
                hat_txt = _reference_fmt(hat[i])
            else:
                cell = ","
                hat_txt = ""
            rows.append(
                f"{k},{_reference_fmt(t)},{i},{cell},{_reference_fmt(faces[i])},"
                f"{_reference_fmt(state.u[i])},{hat_txt}"
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def _unchecked(cls, **fields):
    """A frozen dataclass instance built without running its validation."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


_AWKWARD = np.array([-0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 0.1, 1 / 3, -2.5e-17])


def hand_built_trajectory(n: int, levels: int = _AWKWARD.size) -> grid.Trajectory:
    """N cells (N = 1 included) carrying signed zeros, subnormals, huge and
    non-finite values, which the solver's own validation would refuse."""
    rng = np.random.default_rng(n)
    g = _unchecked(grid.GridSpec, L=3.0, N=n, dt=0.1, T=0.1 * (levels - 1))
    states = []
    for k in range(levels):
        rho = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        u = rng.standard_normal(n + 1)
        rho[k % n] = _AWKWARD[k % _AWKWARD.size]
        u[: _AWKWARD.size] = np.roll(_AWKWARD, k)[: n + 1]
        states.append(_unchecked(grid.FluidState, rho=rho, u=u, k=k))
    return _unchecked(
        grid.Trajectory, grid=g, params=grid.PhysParams(), states=tuple(states),
        solver_meta=(), meta={},
    )


@pytest.mark.parametrize("with_config", [False, True], ids=["bare", "config"])
@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_state_csv_matches_per_row_reference(tmp_path, n, with_config):
    traj = hand_built_trajectory(n)
    config = parse_config(MINIMAL) if with_config else None
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    with np.errstate(invalid="ignore", over="ignore"):
        write_state_csv(traj, str(new), config)
        reference_write_state_csv(traj, str(ref), config)
    assert new.read_bytes() == ref.read_bytes()
    text = new.read_text()
    data = [ln for ln in text.splitlines() if ln[0].isdigit()]
    assert len(data) == len(traj.states) * (n + 1)
    for token in (",-0,", "nan", ",inf", "-inf", "e-324", "e+300"):
        assert token in text


# ======================================================================
# refine / verify / flux subcommands
# ======================================================================


def test_refine_constant_reports_exact_orders(tmp_path, capsys):
    cfg = constant_cfg(tmp_path)
    out = tmp_path / "rep"
    code = run_cli(["refine", "--config", cfg, "--levels", "8,16,32", "--out", str(out)])
    assert code == 0
    text = (out / "report.csv").read_text()
    assert "exact (0 magnitude)" in text
    assert "# summary" in text
    assert "# order E1: observed exact" in text
    assert "floor" in text


def test_refine_report_puts_each_order_on_the_row_its_pair_ends(tmp_path):
    """Every order_* cell of report.csv is the order of the pair of its
    column's entries that ends at that row: E1's pairs start at the first
    level, the Cauchy gaps' at the second, and the finest row has both."""
    cfg = write_cfg(tmp_path, "[scenario]\nname = smooth-bump\nlevels = 16,32,64,128\n")
    out = tmp_path / "rep"
    assert run_cli(["refine", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("level,"))
    names = lines[start].split(",")
    rows = [dict(zip(names, line.split(","))) for line in lines[start + 1 :]
            if not line.startswith("#")]
    assert [row["level"] for row in rows] == ["16", "32", "64", "128"]
    orders = [name for name in names if name.startswith("order_")]
    assert {"order_E1", "order_cauchy_rho", "order_cauchy_u"} <= set(orders)
    for name in orders:
        key = name.removeprefix("order_")
        first = next(r for r, row in enumerate(rows) if row[key])
        assert [row[name] for row in rows[: first + 1]] == [""] * (first + 1), name
        for fine in range(first + 1, len(rows)):
            coarse = fine - 1
            expected = math.log(float(rows[coarse][key]) / float(rows[fine][key])) / math.log(
                float(rows[coarse]["h"]) / float(rows[fine]["h"]))
            assert float(rows[fine][name]) == pytest.approx(expected, rel=1e-12), (name, fine)


def test_refine_rejects_too_few_levels(tmp_path, capsys):
    cfg = constant_cfg(tmp_path)
    code = run_cli(["refine", "--config", cfg, "--levels", "8,16", "--out", str(tmp_path)])
    assert code == 2
    assert "at least 3 levels" in capsys.readouterr().err


def test_refine_rejects_garbage_level_override(tmp_path, capsys):
    cfg = constant_cfg(tmp_path)
    code = run_cli(["refine", "--config", cfg, "--levels", "8,many", "--out", str(tmp_path)])
    assert code == 2
    assert "value for '--levels' is not an integer: 'many'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "levels, message",
    [
        ("8,16", "a refinement study needs at least 3 levels"),
        ("8,4,2", "--levels 8,4,2: levels must be strictly increasing"),
        ("", "--levels : levels must list at least one N"),
    ],
)
def test_refine_rejected_ladder_exits_2_without_out_dir(tmp_path, capsys, levels, message):
    cfg = constant_cfg(tmp_path)
    out = tmp_path / "rep"
    assert run_cli(["refine", "--config", cfg, "--levels", levels, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "refine", "verify", "flux"])
def test_initial_density_at_the_floor_is_a_config_error_naming_rho0(tmp_path, capsys, command):
    """ScenarioConfig applies init_state's floor, so a density at or below it
    is a config error that names the rho0 line, raised before any output
    directory is made."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "[scenario]\nname = dilute\nrho0 = constant:1e-13\n"
                              f"levels = 8,16,32\n[output]\nout_dir = {out}\n")
    with pytest.raises(ConfigError, match=r"above the floor 1e-12 \(line 3\)$"):
        parse_config(Path(cfg).read_text(encoding="utf-8"))
    argv = [command, "--config", cfg] + (["--out", str(out)] if command in ("run", "refine") else [])
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.endswith("above the floor 1e-12 (line 3)\n")
    assert not out.exists()


def test_initial_density_dip_below_the_floor_names_rho0(tmp_path, capsys):
    """A density dip that averages out on N=16 cells falls below the floor
    on a cell at N=8192: the config error names the rho0 line."""
    cfg = write_cfg(tmp_path, "[scenario]\nname = dip\n"
                              "rho0 = piecewise:0.5001,0.5006|1,1e-13,1\nlevels = 16,8192\n")
    assert run_cli(["verify", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: invalid scenario: rho0 profile 'piecewise:0.5001,0.5006|1,1e-13,1' "
        "averages 1e-13 on a cell at N=8192: initial density must be strictly positive, "
        "above the floor 1e-12 (line 3)\n")


def test_refine_unusable_out_fails_before_any_level_is_solved(tmp_path, capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("a level was solved before --out was checked")

    monkeypatch.setattr(harness, "march", no_solve)
    cfg = constant_cfg(tmp_path)
    blocker = tmp_path / "afile"
    blocker.write_text("", encoding="utf-8")
    argv = ["refine", "--config", cfg, "--levels", "8,16,32", "--out", str(blocker / "sub")]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("i/o error:")
    assert os.strerror(errno.ENOTDIR) in err


def test_refine_with_a_dead_worker_exits_1_naming_it(tmp_path, capsys, monkeypatch):
    """A finest-level worker that ended without a result, as after an OOM
    kill, is a solver failure, reported on one line without a traceback."""
    monkeypatch.setattr(harness, "fork_worker", lambda *args: reset_worker(-9))
    cfg = constant_cfg(tmp_path)
    argv = ["refine", "--config", cfg, "--levels", "8,16,32", "--out", str(tmp_path / "rep")]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "solver failure: level 32 worker exited with code -9 without a result\n"
    assert captured.out == ""


def test_verify_constant_all_identities_pass(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[scenario]\nname = constant\nlevels = 8,16,32\n")
    assert run_cli(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "identity checks passed" in out
    assert "FAIL" not in out
    assert out.count("PASS") >= 10


def test_verify_smooth_bump_passes_too(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[scenario]\nname = smooth-bump\nlevels = 16,32,64\n")
    assert run_cli(["verify", "--config", cfg]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_prints_one_line_per_check(tmp_path, capsys):
    """Every Check the identity suite returns is printed once, in order, as is."""
    text = "[scenario]\nname = smooth-bump\nlevels = 16\n"
    assert run_cli(["verify", "--config", write_cfg(tmp_path, text)]) == 0
    lines = capsys.readouterr().out.splitlines()
    sc = parse_config(text).scenario
    g = sc.grid_for(16)
    checks = diagnostics.IdentitySuite(g, sc.params, stepper.march(sc, g, sc.params)).checks()
    expected = [
        f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.value:.3e} <= {c.bound:.3e}"
        for c in checks
    ]
    assert len(checks) == 14
    assert lines[0].startswith("INFO positivity margins: ")
    assert lines[1:15] == expected
    assert lines[15].startswith("PASS inverse-gradient duality (relative): ")
    assert lines[16:] == ["15/15 identity checks passed"]


def test_verify_with_zero_final_time_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[scenario]\nname = smooth-bump\nlevels = 16\nT = 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["verify", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "FAIL" not in captured.out
    assert captured.out.rstrip().endswith("identity checks passed")


@pytest.mark.parametrize(
    "command, expected",
    [
        ("run", "wrote"),
        ("verify", "15/15 identity checks passed"),
        ("flux", "checkpoint m=25"),
    ],
    ids=["run", "verify", "flux"],
)
def test_decoupled_dt_is_accepted_by_every_command(tmp_path, capsys, command, expected):
    """A time step other than dx, here dt = 0.64 dx, runs under every command."""
    cfg = write_cfg(
        tmp_path,
        "[scenario]\nname = smooth-bump\nlevels = 64\ndt_over_dx = 0.64\n"  # dt = 0.01
        f"[output]\nout_dir = {tmp_path / 'o'}\n",
    )
    argv = [command, "--config", cfg]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert run_cli(argv) == 0
    captured = capsys.readouterr()
    assert "config error" not in captured.err
    assert expected in captured.out


def test_flux_subcommand_writes_ledger(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[scenario]\nname = smooth-bump\nlevels = 8\n"
        f"[output]\nout_dir = {tmp_path / 'fx'}\n",
    )
    assert run_cli(["flux", "--config", cfg]) == 0
    text = (tmp_path / "fx" / "flux.csv").read_text()
    assert text.splitlines()[0].startswith("#")
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert body[0] == "term,value"
    terms = {ln.split(",")[0] for ln in body[1:]}
    for needed in ("m", "lhs", "S1", "S2", "E1", "E2", "rhs_total",
                   "identity_gap", "pairing_gap", "decomposition_gap"):
        assert needed in terms
    gap = float(next(ln.split(",")[1] for ln in body if ln.startswith("identity_gap,")))
    assert abs(gap) < 1e-10


def test_flux_step_out_of_range_is_config_error(tmp_path, capsys, monkeypatch):
    """--step is checked against 1..M before the level is solved."""

    def no_solve(*args, **kwargs):
        raise AssertionError("the level was solved before --step was checked")

    monkeypatch.setattr(cli, "march", no_solve)
    cfg = write_cfg(tmp_path, "[scenario]\nname = constant\nlevels = 4\n")  # M = 1
    for step in ("99", "0"):
        assert run_cli(["flux", "--config", cfg, "--step", step]) == 2
        assert f"checkpoint m={step} outside 1..1" in capsys.readouterr().err


def test_flux_unusable_out_dir_fails_before_the_level_is_solved(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the level was solved before out_dir was checked")

    monkeypatch.setattr(cli, "march", no_solve)
    blocker = tmp_path / "afile"
    blocker.write_text("", encoding="utf-8")
    cfg = constant_cfg(tmp_path, f"[output]\nout_dir = {blocker / 'sub'}\n")
    assert run_cli(["flux", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("i/o error:")
    assert os.strerror(errno.ENOTDIR) in err


def test_flux_solves_through_its_checkpoint_alone(tmp_path, capsys, monkeypatch):
    """flux --step m reads levels 0..m from march and no more: a step past m
    that would fail is never taken, and the ledger is written."""
    cfg = write_cfg(tmp_path, "[scenario]\nname = smooth-bump\nlevels = 32\n"
                              f"[output]\nout_dir = {tmp_path / 'fx'}\n")
    sc, m = parse_config(Path(cfg).read_text()).scenario, 3
    solve, read = stepper.march, []

    def march(*args):
        for k, level in enumerate(solve(*args)):
            if k == m + 1:
                raise stepper.StepFailure("run aborted: past the checkpoint", k, [], 1.0)
            read.append(k)
            yield level

    assert sc.grid_for(32).M_steps > m + 1
    monkeypatch.setattr(cli, "march", march)
    assert run_cli(["flux", "--config", cfg, "--step", str(m)]) == 0
    assert read == list(range(m + 1))
    assert f"checkpoint m={m}" in capsys.readouterr().out
    assert f"m,{m}\n" in (tmp_path / "fx" / "flux.csv").read_text()


@pytest.mark.parametrize("name", [sc.name for sc in harness.builtin_scenarios()])
def test_streamed_flux_writes_the_ledger_of_the_kept_run(tmp_path, name):
    """flux.csv at m = 1, M/2 and M has the bytes of flux_ledger over the
    kept stepper.run trajectory."""
    cfg = write_cfg(tmp_path, f"[scenario]\nname = {name}\nlevels = 32\n"
                              f"[output]\nout_dir = {tmp_path}\n")
    config = parse_config(Path(cfg).read_text())
    sc = config.scenario
    traj = stepper.run(sc, sc.grid_for(32), sc.params, config.solver)
    steps = len(traj) - 1
    for m in (1, steps // 2, steps):
        assert run_cli(["flux", "--config", cfg, "--step", str(m)]) == 0
        ledger = diagnostics.flux_ledger(traj.grid, traj.params, traj.states, m)
        cli.write_flux_csv(ledger, str(tmp_path / "kept.csv"), config)
        assert (tmp_path / "flux.csv").read_bytes() == (tmp_path / "kept.csv").read_bytes()


def test_streamed_flux_keeps_no_trajectory(tmp_path, capsys):
    """flux feeds the ledger each state as the solver makes it, so beyond the
    solver's own tracemalloc peak it holds O(N) arrays: less than a quarter
    of one (M+1) x N matrix (test_streamed_run_keeps_no_trajectory's config)."""
    sc = replace(scenario_named("smooth-bump"), T=2.0, levels=(128,))
    cfg = write_cfg(tmp_path, "[scenario]\nname = smooth-bump\nT = 2\nlevels = 128\n"
                              f"[output]\nout_dir = {tmp_path}\n")

    def flux() -> None:
        assert run_cli(["flux", "--config", cfg]) == 0

    assert parse_config(Path(cfg).read_text()).scenario == sc
    assert sc.grid_for(128).M_steps == 256
    assert peak_beyond_the_solver(sc, flux) < 0.25


def test_streamed_refine_keeps_no_trajectory(monkeypatch):
    """refine streams each level from march into one walk that takes its
    summary and its Cauchy pair, so in process, beyond the finest level's
    own solve, it holds the coarser level's states (half an (M+1) x N matrix
    of the finest level) and the walk's blocks and series: under 1.5 such
    matrices, where a kept finest trajectory alone is two."""
    monkeypatch.setattr(harness, "fork_worker", lambda *args: None)
    smooth = replace(scenario_named("smooth-bump"), T=2.0)
    sc = replace(smooth, levels=(32, 64, 128))

    def refine() -> None:
        assert not harness.run_refinement(sc).failed

    assert sc.grid_for(128).M_steps == 256
    assert peak_beyond_the_solver(replace(smooth, levels=(128,)), refine) < 1.5


def test_warning_goes_to_stderr_and_run_succeeds(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[scenario]\nname = smooth-bump\ngamma = 1.4\nlevels = 4\nT = 0.25\n",
    )
    assert run_cli(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    captured = capsys.readouterr()
    assert "WARNING" in captured.err
    assert "outside 3/2<gamma<2" in captured.err


def test_corrupted_config_exits_2_with_location(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[scenario]\nname = constant\nmu = -3\n")
    assert run_cli(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "mu" in err
    assert "line 3" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = run_cli(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err
