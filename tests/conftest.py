"""Shared fixtures: solved trajectories are expensive, so build each once.

Every fixture returning solver output is session-scoped and keyed by the
scenario name and resolution; tests must treat the returned objects as
read-only (states are frozen arrays, so accidental mutation raises).
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

import visco1d as v


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


def scenario_named(name: str) -> v.ScenarioConfig:
    match = [s for s in v.builtin_scenarios() if s.name == name]
    assert match, f"no builtin scenario {name!r}"
    return match[0]


def with_levels(sc: v.ScenarioConfig, levels: tuple[int, ...]) -> v.ScenarioConfig:
    return v.ScenarioConfig(
        name=sc.name, rho0=sc.rho0, u0=sc.u0, L=sc.L, T=sc.T,
        params=sc.params, levels=levels, couple_dt_dx=sc.couple_dt_dx, dt=sc.dt,
    )


def solve_level(sc: v.ScenarioConfig, n: int) -> v.Trajectory:
    return v.run(sc, sc.grid_for(n), sc.params)


@pytest.fixture(scope="session")
def constant_traj() -> v.Trajectory:
    sc = scenario_named("constant")
    return solve_level(sc, 8)


@pytest.fixture(scope="session")
def smooth_traj_32() -> v.Trajectory:
    return solve_level(scenario_named("smooth-bump"), 32)


@pytest.fixture(scope="session")
def smooth_traj_64() -> v.Trajectory:
    return solve_level(scenario_named("smooth-bump"), 64)


@pytest.fixture(scope="session")
def smooth_ladder() -> dict[int, v.Trajectory]:
    """Smooth-bump trajectories at the acceptance levels 64..512."""
    sc = scenario_named("smooth-bump")
    return {n: solve_level(sc, n) for n in (64, 128, 256, 512)}


@pytest.fixture(scope="session")
def riemann_ladder() -> dict[int, v.Trajectory]:
    sc = scenario_named("riemann-like")
    return {n: solve_level(sc, n) for n in (64, 128, 256, 512)}


@pytest.fixture(scope="session")
def all_scenario_runs() -> dict[tuple[str, int], v.Trajectory]:
    """Every builtin scenario solved at N in {64, 128, 256}."""
    out: dict[tuple[str, int], v.Trajectory] = {}
    for sc in v.builtin_scenarios():
        for n in (64, 128, 256):
            out[(sc.name, n)] = solve_level(sc, n)
    return out


@pytest.fixture()
def tiny_grid() -> v.GridSpec:
    return v.GridSpec(L=1.0, N=2, dt=0.5, T=0.5)


def constant_state(n: int, rho: float = 1.0) -> v.FluidState:
    return v.FluidState(rho=np.full(n, rho), u=np.zeros(n + 1))
