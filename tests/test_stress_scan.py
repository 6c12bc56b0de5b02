"""tools/stress_scan.py still runs against the package.

The scan lives outside the package and the suite, so a rename of a name it
imports would break it silently.  This loads the script by path and scans
a few cases (about 0.1 s together): one for each outcome it counts, and the
three near-vacuum inputs whose steps only the fallback converges.
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
        # An overflowing velocity: a StepFailure on the first step.
        (("bump", "sin2pi:1e300", 5.0 / 3.0, 0.05, 16), (False, True, False, 0, 0)),
        # Near-vacuum: fallback steps (ROADMAP item 8).
        (("piecewise:0.5|1e-6,1", "zero", 5.0 / 3.0, 0.005, 64), (True, False, False, 89, 6)),
        # A plain run.
        (("bump", "zero", 5.0 / 3.0, 0.05, 16), (False, False, False, 20, 0)),
        # Near-vacuum against a strong velocity: the fixed-point fallback that
        # the continuation replaced raised StepFailure on each of these.
        (("piecewise:0.5|1e-2,1", "sin2pi:2.0", 3.0, 0.005, 16), (True, False, False, 37, 12)),
        (("piecewise:0.5|1e-3,1", "sin2pi:2.0", 3.0, 0.005, 16), (True, False, False, 45, 20)),
        (("piecewise:0.5|1e-6,1", "sin2pi:2.0", 3.0, 0.005, 16), (True, False, False, 54, 30)),
    ],
    ids=["step-failure", "fallback", "plain", "rescued-1e-2", "rescued-1e-3", "rescued-1e-6"],
)
def test_scan_one_counts_each_outcome(case, expected):
    assert _load_scan().scan_one(*case) == expected
