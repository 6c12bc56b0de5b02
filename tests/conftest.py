"""Shared fixtures: solved trajectories are expensive, so build each once.

Every fixture returning solver output is session-scoped and keyed by the
scenario name and resolution; tests must treat the returned objects as
read-only (states are frozen arrays, so accidental mutation raises).
"""

from __future__ import annotations

import errno
import multiprocessing

import numpy as np
import pytest

from visco1d import grid, harness, stepper


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
    match = [s for s in harness.builtin_scenarios() if s.name == name]
    assert match, f"no builtin scenario {name!r}"
    return match[0]


def with_levels(sc: harness.ScenarioConfig, levels: tuple[int, ...]) -> harness.ScenarioConfig:
    return harness.ScenarioConfig(
        name=sc.name, rho0=sc.rho0, u0=sc.u0, L=sc.L, T=sc.T,
        params=sc.params, levels=levels, couple_dt_dx=sc.couple_dt_dx, dt=sc.dt,
    )


def solve_level(sc: harness.ScenarioConfig, n: int) -> grid.Trajectory:
    return stepper.run(sc, sc.grid_for(n), sc.params)


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


@pytest.fixture(scope="session")
def all_scenario_runs() -> dict[tuple[str, int], grid.Trajectory]:
    """Every builtin scenario solved at N in {64, 128, 256}."""
    out: dict[tuple[str, int], grid.Trajectory] = {}
    for sc in harness.builtin_scenarios():
        for n in (64, 128, 256):
            out[(sc.name, n)] = solve_level(sc, n)
    return out


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
