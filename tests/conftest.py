"""Shared fixtures: solved trajectories are expensive, so build each once.

Every fixture returning solver output is session-scoped and keyed by the
scenario name and resolution; tests must treat the returned objects as
read-only (states are frozen arrays, so accidental mutation raises).
"""

from __future__ import annotations

import dataclasses
import errno
import functools
import multiprocessing
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from visco1d import diagnostics, grid, harness, stepper


@pytest.fixture(autouse=True)
def no_live_child_processes():
    """Fail any test that leaves a worker process running."""
    yield
    alive = multiprocessing.active_children()
    for proc in alive:
        proc.terminate()
        proc.join()
    if alive:
        pytest.fail(f"test left live child processes: {alive}")


def scenario_named(name: str) -> harness.ScenarioConfig:
    sc = harness.builtin_scenario(name)
    assert sc is not None, f"no builtin scenario {name!r}"
    return sc


def with_levels(sc: harness.ScenarioConfig, levels: tuple[int, ...]) -> harness.ScenarioConfig:
    return dataclasses.replace(sc, levels=levels)


def _traced_peak(job) -> int:
    """The smaller tracemalloc peak of two runs of job, after one untraced run:
    lazy imports and first-call caches are not the job's, and numpy's and
    Python's caches of small blocks move a single run's peak by a few KB."""
    job()
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            job()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


@functools.lru_cache(maxsize=None)
def _solver_peak(sc: harness.ScenarioConfig) -> int:
    """The tracemalloc peak of solving sc's first level alone, taken once a
    session for all the memory guards that share sc."""
    g = sc.grid_for(sc.levels[0])

    def solve() -> None:
        state, carry = grid.init_state(g, sc.rho0_fn, sc.u0_fn), []
        for _ in range(g.M_steps):
            state, _ = stepper.advance(state, g, sc.params, None, carry)

    return _traced_peak(solve)


def peak_beyond_the_solver(sc: harness.ScenarioConfig, job) -> float:
    """job's tracemalloc peak beyond that of solving sc's first level alone,
    in (M+1) x N float64 matrices of that level."""
    g = sc.grid_for(sc.levels[0])
    solver = _solver_peak(sc)  # before the job, as each guard once took it
    return (_traced_peak(job) - solver) / ((g.M_steps + 1) * g.N * 8)


def solve_level(sc: harness.ScenarioConfig, n: int) -> grid.Trajectory:
    return stepper.run(sc, sc.grid_for(n), sc.params)


def marched(traj: grid.Trajectory):
    """A kept run's (state, meta) pairs, as stepper.march yielded them."""
    return zip(traj.states, (None, *traj.solver_meta))


@pytest.fixture(scope="session")
def constant_traj() -> grid.Trajectory:
    sc = scenario_named("constant")
    return solve_level(sc, 8)


@pytest.fixture(scope="session")
def smooth_traj_32() -> grid.Trajectory:
    return solve_level(scenario_named("smooth-bump"), 32)


@pytest.fixture(scope="session")
def smooth_traj_64() -> grid.Trajectory:
    return solve_level(scenario_named("smooth-bump"), 64)


@pytest.fixture(scope="session")
def smooth_ladder() -> dict[int, grid.Trajectory]:
    """Smooth-bump trajectories at the acceptance levels 64..512."""
    sc = scenario_named("smooth-bump")
    return {n: solve_level(sc, n) for n in (64, 128, 256, 512)}


@pytest.fixture(scope="session")
def riemann_ladder() -> dict[int, grid.Trajectory]:
    sc = scenario_named("riemann-like")
    return {n: solve_level(sc, n) for n in (64, 128, 256, 512)}


class SuiteRun(NamedTuple):
    """What the identity suite found on one run, and the run's StepMetas."""

    checks: tuple[diagnostics.Check, ...]
    positivity: diagnostics.PositivityReport
    metas: tuple[stepper.StepMeta, ...]


def march_through_suite(sc: harness.ScenarioConfig, n: int) -> SuiteRun:
    """Solve level n of sc, feeding each state to an IdentitySuite and keeping none."""
    g = sc.grid_for(n)
    suite = diagnostics.IdentitySuite(g, sc.params, g.M_steps)
    metas = []
    for state, meta in stepper.march(sc, g, sc.params):
        suite.push(state, meta)
        if meta is not None:
            metas.append(meta)
    return SuiteRun(suite.checks(), suite.positivity(), tuple(metas))


@pytest.fixture(scope="session")
def scenario_checks() -> dict[tuple[str, int], SuiteRun]:
    """Every builtin scenario marched through the identity suite at N in {64, 128, 256}."""
    return {
        (sc.name, n): march_through_suite(sc, n)
        for sc in harness.builtin_scenarios()
        for n in (64, 128, 256)
    }


@pytest.fixture()
def tiny_grid() -> grid.GridSpec:
    return grid.GridSpec(L=1.0, N=2, dt=0.5, T=0.5)


def constant_state(n: int, rho: float = 1.0) -> grid.FluidState:
    return grid.FluidState(rho=np.full(n, rho), u=np.zeros(n + 1))


class _DeadProcess:
    """A worker process that has already exited with ``exitcode``."""

    def __init__(self, exitcode: int):
        self.exitcode = exitcode

    def join(self) -> None:
        pass

    def terminate(self) -> None:
        pass


class _ResetPipe:
    """The parent's end of a pipe whose child was killed: every transfer
    raises ConnectionResetError, as it can after a SIGKILL."""

    def _reset(self, *args):
        raise ConnectionResetError(errno.ECONNRESET, "Connection reset by peer")

    send_bytes = recv = _reset

    def close(self) -> None:
        pass


def reset_worker(exitcode: int):
    """A harness.fork_worker result for a worker killed before it sent anything."""
    return _DeadProcess(exitcode), _ResetPipe()
