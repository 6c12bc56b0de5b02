"""tools/stress_scan.py still runs against the package.

The scan lives outside the package and the suite, so a rename of a name it
imports would break it silently.  This loads the script by path and scans
three of its cases (about 50 ms together), one for each outcome it counts.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest


def _load_scan():
    path = Path(__file__).resolve().parents[1] / "tools" / "stress_scan.py"
    spec = importlib.util.spec_from_file_location("stress_scan", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "case, expected",
    [
        # A step that cannot be converged: StepFailure.
        (("piecewise:0.5|1e-3,1", "sin2pi:2.0", 3.0, 0.005, 16), (False, True, False, 0)),
        # Near-vacuum: a fixed-point fallback step (ROADMAP item 8).
        (("piecewise:0.5|1e-6,1", "zero", 5.0 / 3.0, 0.005, 64), (True, False, False, 136)),
        # A plain run.
        (("bump", "zero", 5.0 / 3.0, 0.05, 16), (False, False, False, 20)),
    ],
    ids=["step-failure", "fallback", "plain"],
)
def test_scan_one_counts_each_outcome(case, expected):
    assert _load_scan().scan_one(*case) == expected
