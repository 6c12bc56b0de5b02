"""sha256 of the deterministic outputs of the benchmark's configs.

Usage: PYTHONPATH=src python tools/output_hashes.py SEED...

For each seed, builds the configs of perfbench/run.py (its ``config_text``)
and prints one line per output: ``report.csv`` of ``refine`` on
refine-smooth, ``state.csv`` of ``run`` on run-riemann-csv, ``flux.csv`` of
``flux`` on run-riemann-csv's config at N=256, and ``verify``'s stdout on
verify-quiescent and on refine-smooth's config.  Each command runs in
process, in a fresh temporary directory, as a benchmark job does, so the
hashes do not depend on where they are made.  A change that keeps every
output byte-identical prints the same lines before and after.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

from visco1d.cli import cli_main


def _config_text():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for @dataclass
    spec.loader.exec_module(module)
    return module.config_text


config_text = _config_text()

# (label, workload, command, the file it writes or None for stdout, levels
# to run instead of the workload's)
OUTPUTS = (
    ("report.csv", "refine-smooth", "refine", "out/report.csv", None),
    ("state.csv", "run-riemann-csv", "run", "out/state.csv", None),
    ("flux.csv", "run-riemann-csv", "flux", "flux.csv", "256"),
    ("verify stdout", "verify-quiescent", "verify", None, None),
    ("verify stdout", "refine-smooth", "verify", None, None),
)


def output_hash(command: str, config: str, output: str | None) -> str:
    """sha256 of what ``visco1d command`` writes to ``output`` (a path
    relative to the job directory, or None for its stdout) on ``config``."""
    args = [command, "--config", "job.cfg"]
    if command in ("run", "refine"):
        args += ["--out", "out"]
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path("job.cfg").write_text(config, encoding="utf-8")
        with contextlib.redirect_stdout(stdout):
            code = cli_main(args)
        if code != 0:
            raise RuntimeError(f"visco1d {command} exited {code} on:\n{config}")
        data = Path(output).read_bytes() if output else stdout.getvalue().encode()
    return hashlib.sha256(data).hexdigest()


def with_levels(config: str, levels: str) -> str:
    """``config`` with its ``levels`` line replaced."""
    lines = [f"levels = {levels}" if line.startswith("levels = ") else line
             for line in config.splitlines()]
    return "\n".join(lines) + "\n"


def seed_hashes(seed: int) -> list[str]:
    """One ``seed label workload sha256`` line per output of OUTPUTS."""
    lines = []
    for label, workload, command, output, levels in OUTPUTS:
        config = config_text(workload, seed)
        if levels is not None:
            config = with_levels(config, levels)
        lines.append(f"{seed} {label} {workload} {output_hash(command, config, output)}")
    return lines


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for seed in map(int, argv):
        print("\n".join(seed_hashes(seed)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
