"""Solver counts and kernel timings for one workload, run in a fresh interpreter.

Usage: python3 probe.py RESULT.json CONFIG

``iters_to_tol``: Newton iterations (residual evaluations) summed over every
level of the config when the solve stops at tolerance.  It re-solves with
``polish_floor = 1e-10``, which makes the polish floor equal the adaptive
``newton_tol`` (both are 1e-10 * (1 + initial residual)), so no iteration is
spent polishing past it.  It is a count under a tolerance-only stop, not a
timing.

``assemble_residual_us`` / ``assemble_jacobian_us``: per-call time of the two
assembly kernels on a mid-run state of the largest level, median of batches.
"""

import json
import statistics
import sys
import time
from dataclasses import replace


def _per_call_us(fn, batches: int = 7, calls: int = 40) -> float:
    per_call = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - t0) / calls)
    return 1e6 * statistics.median(per_call)


def main() -> int:
    from visco1d import cli, stepper

    result_path, config_path = sys.argv[1:]
    with open(config_path, encoding="utf-8") as fh:
        config = cli.parse_config(fh.read())
    scenario = config.scenario
    solver = replace(config.solver, polish_floor=1e-10)
    iters = 0
    traj = None
    for n in scenario.levels:
        traj = stepper.run(scenario, scenario.grid_for(n), scenario.params, solver)
        iters += sum(m.iterations for m in traj.solver_meta)

    grid, params = traj.grid, traj.params
    mid = max(len(traj) // 2, 1)
    prev, trial = traj.states[mid - 1], traj.states[mid]
    record = {
        "iters_to_tol": iters,
        "assemble_residual_us": _per_call_us(
            lambda: stepper.assemble_residual(prev, trial, grid, params)),
        "assemble_jacobian_us": _per_call_us(
            lambda: stepper.assemble_jacobian(prev, trial, grid, params)),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
