"""The benchmark's hooks still find every part of the package they use.

``perfbench/tracing.py`` replaces module attributes of the package (such as
``cli.neumann_inv_grad`` or ``diagnostics.energy_ledger``) with timing
wrappers, and ``perfbench/probe.py`` calls ``cli.parse_config``,
``stepper.run``, ``traj.states[k]``, ``stepper.assemble_residual``,
``stepper.assemble_jacobian`` and ``SolverConfig.polish_floor``.  A refactor
that renames or drops one of them makes the benchmark's jobs fail, so this
installs the hooks, runs traced ``verify``, ``refine`` and ``run`` commands
(each wrapped call site must see its calls) and restores them, and runs the
probe on a small config.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from visco1d import cli, diagnostics, grid, harness, stepper


def _load(name: str):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_hooks_install_and_restore(tmp_path, capsys):
    tracing = _load("tracing")
    owners = (cli, diagnostics, grid.Trajectory, harness, stepper)
    before = [dict(vars(owner)) for owner in owners]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[scenario]\nname = smooth-bump\nlevels = 8\n", encoding="utf-8")

    tracer = tracing.Tracer()
    traced_main = tracing.install(tracer)
    try:
        assert traced_main(["verify", "--config", str(cfg)]) == 0
    finally:
        tracer.restore()

    for owner, snapshot in zip(owners, before):
        assert all(vars(owner).get(name) is value for name, value in snapshot.items())
    spans = tracer.dump()["spans"]
    names = {span["name"] for span in spans}
    for name in ("cli.cli_main", "stepper.advance", "operators.neumann_inv_grad"):
        assert name in names
    # verify streams each state from stepper.march into the identity suite:
    # it keeps no trajectory, so it calls neither run nor the diagnostics
    # that walk one; nor does refine (see the test below).
    assert "stepper.run" not in names
    assert not any(name.startswith("diagnostics.") for name in names)
    assert not any(span.get("repeat") for span in spans)
    assert "15/15 identity checks passed" in capsys.readouterr().out


def _traced(argv: list[str]) -> tuple[int, list[str]]:
    """Run the CLI with the benchmark's hooks installed: (exit code, span names)."""
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    traced_main = tracing.install(tracer)
    try:
        code = traced_main(argv)
    finally:
        tracer.restore()
    return code, [span["name"] for span in tracer.dump()["spans"]]


def test_traced_refine_and_run_reach_their_call_sites(tmp_path):
    """refine and run stream ``stepper.march``, whose steps are
    ``stepper.advance``; refine walks each level once, in its summary."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[scenario]\nname = smooth-bump\nlevels = 8,16,32\n", encoding="utf-8")
    code, names = _traced(["refine", "--config", str(cfg), "--out", str(tmp_path / "rep")])
    assert code == 0
    # The finest level runs in a forked worker, whose spans stay in that
    # process: this one makes the 2 + 4 steps of levels 8 and 16.
    assert names.count("stepper.advance") == 6
    assert "stepper.run" not in names
    assert not any(name.startswith("diagnostics.") for name in names)
    for name in ("harness.run_refinement", "cli.write_report"):
        assert name in names
    code, names = _traced(["run", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 0
    assert "stepper.advance" in names


def test_probe_reports_counts_and_kernel_timings(tmp_path, monkeypatch):
    probe = _load("probe")
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("[scenario]\nname = smooth-bump\nlevels = 8\n", encoding="utf-8")
    result = tmp_path / "probe.json"
    monkeypatch.setattr(sys, "argv", ["probe.py", str(result), str(cfg)])
    assert probe.main() == 0
    record = json.loads(result.read_text(encoding="utf-8"))
    assert record["iters_to_tol"] > 0
    assert record["assemble_residual_us"] > 0
    assert record["assemble_jacobian_us"] > 0
