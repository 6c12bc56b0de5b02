"""The benchmark's tracing hooks still find every call site they wrap.

``perfbench/tracing.py`` replaces module attributes of the package (such as
``cli.neumann_inv_grad`` or ``diagnostics.energy_ledger``) with timing
wrappers.  A refactor that renames or drops one of them makes every traced
benchmark job fail, so this installs the hooks, runs one traced command and
restores them.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from visco1d import cli, diagnostics, grid, harness, stepper


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_hooks_install_and_restore(tmp_path, capsys):
    tracing = _load_tracing()
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
    for name in ("cli.cli_main", "stepper.run", "stepper.advance",
                 "diagnostics.energy_ledger", "operators.neumann_inv_grad"):
        assert name in names
    assert not any(span.get("repeat") for span in spans)
    assert "15/15 identity checks passed" in capsys.readouterr().out
