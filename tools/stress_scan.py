"""Stress scan of the solver and the identity suite over hard initial data.

Usage: PYTHONPATH=src python tools/stress_scan.py

Runs 450 solves: five densities down to near-vacuum, three velocities up to a
strong sin2pi:2.0, gamma in {1.1, 1.4, 5/3, 2, 3}, mu in {0.005, 0.05, 0.5}
and N in {16, 64}, each at the default T = 0.25 and dt = dx.  Every run is
checked by the identity suite as it is marched.  Prints the number of runs
that took a fallback step (pseudo-transient continuation, when Newton gives
up), the StepFailures, the runs with a failed identity check, the residual
evaluations of every accepted step, and the most continuation steps any one
step took, against the budget SolverConfig.fallback.  Takes about 4.5 s on
one core of a 2-vCPU x86-64 machine.
"""

from __future__ import annotations

import itertools
import sys

from visco1d.diagnostics import IdentitySuite
from visco1d.grid import PhysParams
from visco1d.harness import ScenarioConfig
from visco1d.stepper import SolverConfig, StepFailure, march

DENSITIES = ("bump", "piecewise:0.5|2,1", "piecewise:0.5|1e-2,1",
             "piecewise:0.5|1e-3,1", "piecewise:0.5|1e-6,1")
VELOCITIES = ("zero", "sin2pi:0.5", "sin2pi:2.0")
GAMMAS = (1.1, 1.4, 5.0 / 3.0, 2.0, 3.0)
MUS = (0.005, 0.05, 0.5)
SIZES = (16, 64)


def scan_one(rho0: str, u0: str, gamma: float, mu: float, n: int) -> tuple[bool, bool, bool, int, int]:
    """(fell back, StepFailure, an identity check failed, residual evaluations,
    most continuation steps in one step) of one run."""
    scenario = ScenarioConfig(name="stress", rho0=rho0, u0=u0,
                              params=PhysParams(gamma=gamma, mu=mu), levels=(n,))
    grid = scenario.grid_for(n)
    suite = IdentitySuite(grid, scenario.params, grid.M_steps)
    fell_back, evaluations, longest = False, 0, 0
    try:
        for state, meta in march(scenario, grid, scenario.params):
            suite.push(state, meta)
            if meta is not None:
                fell_back |= meta.fallback_used
                evaluations += meta.iterations
                longest = max(longest, meta.fallback_iterations)
    except StepFailure:
        return fell_back, True, False, evaluations, longest
    return fell_back, False, not all(c.passed for c in suite.checks()), evaluations, longest


def main() -> int:
    runs = fallbacks = failures = failed_identities = evaluations = longest = 0
    for case in itertools.product(DENSITIES, VELOCITIES, GAMMAS, MUS, SIZES):
        fell_back, failed, bad_identity, evals, steps = scan_one(*case)
        runs += 1
        fallbacks += fell_back
        failures += failed
        failed_identities += bad_identity
        evaluations += evals
        longest = max(longest, steps)
        if failed or bad_identity:
            print("StepFailure" if failed else "failed identity", *case, file=sys.stderr)
    print(f"runs {runs}, fallback runs {fallbacks}, StepFailures {failures}, "
          f"failed identity runs {failed_identities}, residual evaluations {evaluations}, "
          f"longest continuation {longest} of {SolverConfig().fallback} steps")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
