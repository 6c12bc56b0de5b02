"""tools/output_hashes.py still runs against the package and the benchmark.

The script lives outside the package and the suite, and builds its configs
with perfbench/run.py's ``config_text``, so a rename of a name it uses would
break it silently.  This loads it by path, builds every config it hashes,
and hashes a file and a stdout of a tiny config (well under 1 s together).
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

from visco1d.cli import cli_main


def _load_hashes():
    path = Path(__file__).resolve().parents[1] / "tools" / "output_hashes.py"
    spec = importlib.util.spec_from_file_location("output_hashes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_config_it_hashes_is_built():
    hashes = _load_hashes()
    for _, workload, _, _, levels in hashes.OUTPUTS:
        config = hashes.config_text(workload, 7)
        assert config.startswith("[scenario]\nname = ")
        if levels is not None:
            assert f"\nlevels = {levels}\n" in hashes.with_levels(config, levels)


def test_output_hash_is_the_sha256_of_the_output(tmp_path, monkeypatch, capsys):
    hashes = _load_hashes()
    text = "[scenario]\nname = smooth-bump\nlevels = 16\n"
    monkeypatch.chdir(tmp_path)
    Path("job.cfg").write_text(text, encoding="utf-8")
    assert cli_main(["verify", "--config", "job.cfg"]) == 0
    stdout = capsys.readouterr().out.encode()
    assert cli_main(["flux", "--config", "job.cfg"]) == 0
    flux = Path("flux.csv").read_bytes()

    assert hashes.output_hash("verify", text, None) == hashlib.sha256(stdout).hexdigest()
    assert hashes.output_hash("flux", text, "flux.csv") == hashlib.sha256(flux).hexdigest()
