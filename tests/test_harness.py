"""Scenario configs, grid transfer operators, and the refinement driver."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from visco1d import diagnostics, grid, harness, stepper
from visco1d.harness import resolve_density_profile, resolve_velocity_profile

from conftest import reset_worker, scenario_named, solve_level, with_levels


# ======================================================================
# profiles and scenario validation
# ======================================================================


def test_density_profile_grammar():
    bump = resolve_density_profile("bump:0.5", 1.0)
    x = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(bump(x), [1.0, 1.5, 1.0], atol=1e-15)
    flat = resolve_density_profile("constant:2.5", 1.0)
    np.testing.assert_array_equal(flat(x), [2.5, 2.5, 2.5])
    steps = resolve_density_profile("piecewise:0.25,0.5|3,2,1", 2.0)
    assert steps.breakpoints == (0.5, 1.0)
    assert steps.values == (3.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        resolve_density_profile("vortex", 1.0)


def test_velocity_profile_grammar():
    z = resolve_velocity_profile("zero", 1.0)
    np.testing.assert_array_equal(z(np.array([0.1, 0.9])), [0.0, 0.0])
    s = resolve_velocity_profile("sin2pi:0.3", 2.0)
    assert s(np.array([0.5]))[0] == pytest.approx(0.3)
    with pytest.raises(ValueError):
        resolve_velocity_profile("tanh", 1.0)


def test_scenario_requires_increasing_nested_levels():
    with pytest.raises(ValueError):
        harness.ScenarioConfig(name="x", levels=(64, 64, 128))
    with pytest.raises(ValueError):
        harness.ScenarioConfig(name="x", levels=(64, 96))  # 96 not a multiple of 64
    with pytest.raises(ValueError):
        harness.ScenarioConfig(name="x", levels=())
    # a single level is a legal configuration (refinement studies need more,
    # but plain runs do not)
    assert harness.ScenarioConfig(name="x", levels=(8,)).levels == (8,)


def test_scenario_rejects_nonpositive_density():
    with pytest.raises(ValueError):
        harness.ScenarioConfig(name="bad", rho0="constant:-1")


@pytest.mark.parametrize(
    "profiles, message",
    [
        (dict(rho0="constant:nan"), "rho0 profile 'constant:nan' is not finite"),
        (dict(rho0="bump:nan"), "rho0 profile 'bump:nan' is not finite"),
        (dict(rho0="piecewise:0.5|nan,1"), "rho0 profile 'piecewise:0.5|nan,1' is not finite"),
        (dict(rho0="piecewise:0.5|0,1"), "initial density must be strictly positive"),
        (dict(u0="sin2pi:inf"), "u0 profile 'sin2pi:inf' is not finite"),
        (dict(u0="sin2pi:x"), "bad u0 profile 'sin2pi:x'"),
    ],
)
def test_scenario_rejects_non_finite_profiles(profiles, message):
    with pytest.raises(ValueError, match=message.replace("|", r"\|")):
        harness.ScenarioConfig(name="bad", **profiles)


def test_scenario_grid_couples_dt_to_dx():
    sc = harness.ScenarioConfig(name="x", levels=(8, 16, 32))
    g = sc.grid_for(16)
    assert g.dt == pytest.approx(g.dx)
    free = harness.ScenarioConfig(name="y", levels=(8, 16, 32), couple_dt_dx=False, dt=0.01)
    assert free.grid_for(16).dt == pytest.approx(0.01)


def test_builtin_scenarios_roster():
    names = [s.name for s in harness.builtin_scenarios()]
    for expected in ("constant", "smooth-bump", "riemann-like",
                     "gamma-1.6", "gamma-5over3", "gamma-1.9"):
        assert expected in names
    const = scenario_named("constant")
    probe = np.linspace(0.0, const.L, 5)
    np.testing.assert_array_equal(const.rho0_fn(probe), np.ones(5))
    gammas = {scenario_named(f).params.gamma for f in ("gamma-1.6", "gamma-5over3", "gamma-1.9")}
    assert gammas == {1.6, 5.0 / 3.0, 1.9}


def test_riemann_like_cell_averages():
    sc = scenario_named("riemann-like")
    g = grid.GridSpec(L=1.0, N=4, dt=0.25, T=0.0)
    st = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    np.testing.assert_allclose(st.rho, [2.0, 2.0, 1.0, 1.0], atol=1e-15)


# ======================================================================
# grid transfer
# ======================================================================


def test_project_cells_box_average():
    fine = np.array([1.0, 3.0, 5.0, 7.0])
    np.testing.assert_allclose(harness.project_cells(fine, 2), [2.0, 6.0])
    np.testing.assert_allclose(harness.project_cells(fine, 4), [4.0])


def test_project_cells_conserves_mass():
    rng = np.random.default_rng(0)
    fine = rng.uniform(0.5, 2.0, size=24)
    for ratio in (2, 3, 4):
        coarse = harness.project_cells(fine, ratio)
        assert coarse.sum() * ratio == pytest.approx(fine.sum(), rel=1e-14)


def test_restrict_faces_keeps_shared_nodes():
    fine = np.linspace(0.0, 1.0, 9)  # 8 fine cells
    np.testing.assert_array_equal(harness.restrict_faces(fine, 2), fine[::2])


def test_cauchy_differences_zero_for_identical_resolutions():
    sc = scenario_named("constant")
    t1 = stepper.run(sc, sc.grid_for(8), sc.params)
    t2 = stepper.run(sc, sc.grid_for(16), sc.params)
    l1, l2 = harness.cauchy_differences(t1, t2)
    assert l1 == 0.0
    assert l2 == 0.0


def test_cauchy_differences_detect_known_gap():
    """Hand-check the L1 part on synthetic single-step constant fields."""
    g8 = grid.GridSpec(L=1.0, N=8, dt=0.125, T=0.125)
    g16 = grid.GridSpec(L=1.0, N=16, dt=0.0625, T=0.125)
    mk = lambda g, val, steps: grid.Trajectory(
        grid=g, params=grid.PhysParams(),
        states=tuple(
            grid.FluidState(rho=np.full(g.N, val), u=np.zeros(g.N + 1), k=k)
            for k in range(steps + 1)
        ),
    )
    coarse = mk(g8, 1.0, 1)
    fine = mk(g16, 1.25, 2)
    l1, l2 = harness.cauchy_differences(coarse, fine)
    # |1.25 - 1| over unit length, integrated over one coarse window of 0.125
    assert l1 == pytest.approx(0.25 * 0.125, rel=1e-13)
    assert l2 == 0.0


# ======================================================================
# refinement driver
# ======================================================================


def test_run_refinement_needs_three_levels():
    sc = with_levels(scenario_named("constant"), (8, 16, 32))
    bad = with_levels(sc, (8, 16))
    with pytest.raises(ValueError):
        harness.run_refinement(bad)


def test_run_refinement_constant_scenario_exact():
    sc = with_levels(scenario_named("constant"), (8, 16, 32))
    rep = harness.run_refinement(sc)
    assert not rep.failed
    assert rep.cauchy_rho == (0.0, 0.0)
    assert rep.cauchy_u == (0.0, 0.0)
    for key in ("E1", "E2", "P1", "P2"):
        assert rep.orders[key]["order"] == "exact"
        assert rep.orders[key]["floor"] is not None
    assert rep.orders["cauchy_rho"]["order"] == "exact"


def test_run_refinement_reports_floors_next_to_orders(smooth_ladder):
    sc = with_levels(scenario_named("smooth-bump"), (64, 128, 256))
    rep = harness.run_refinement(sc)
    g = sc.params.gamma
    assert rep.orders["E1"]["floor"] == pytest.approx((2 * g - 3) / (2 * g))
    assert rep.orders["E2"]["floor"] == pytest.approx((3 * g - 4) / (2 * g))
    assert rep.orders["P1"]["floor"] == pytest.approx(0.5)
    assert rep.orders["P2"]["floor"] == pytest.approx(0.25)


def test_run_refinement_flags_decoupled_dt():
    sc = harness.ScenarioConfig(
        name="decoupled", rho0="bump", u0="zero", T=0.05,
        levels=(8, 16, 32), couple_dt_dx=False, dt=0.01,
        params=grid.PhysParams(mu=0.05),
    )
    rep = harness.run_refinement(sc)
    assert any("outside convergence-theory regime" in f for f in rep.flags)
    assert rep.orders == {}  # rates are not meaningful off the dt = dx line


def test_run_refinement_decoupled_without_dt_stays_on_dt_eq_dx():
    """couple_dt_dx = off without dt still runs every level at dt = dx."""
    sc = harness.ScenarioConfig(
        name="free", rho0="bump", u0="sin2pi", T=0.125,
        levels=(8, 16, 32), couple_dt_dx=False, params=grid.PhysParams(mu=0.05),
    )
    rep = harness.run_refinement(sc)
    assert not any("outside convergence-theory regime" in f for f in rep.flags)
    assert set(rep.orders) == {"E1", "E2", "P1", "P2", "cauchy_rho", "cauchy_u"}
    assert rep.orders == harness.run_refinement(replace(sc, couple_dt_dx=True)).orders


def test_run_refinement_flags_gamma_outside_window():
    sc = harness.ScenarioConfig(
        name="gamma-off", rho0="bump", u0="sin2pi", T=0.125,
        levels=(8, 16, 32), params=grid.PhysParams(gamma=2.5, mu=0.05),
    )
    rep = harness.run_refinement(sc)
    assert any("gamma" in f for f in rep.flags)


def test_run_refinement_per_level_summary_fields(smooth_ladder):
    sc = with_levels(scenario_named("smooth-bump"), (64, 128, 256))
    rep = harness.run_refinement(sc)
    row = rep.per_level[0]
    for key in ("N", "h", "steps", "mass_drift_rel", "energy_balance_max",
                "energy_tol", "positivity_margin_min", "E1", "E2", "P1", "P2",
                "flux_identity_gap", "rho_gamma_plus_1"):
        assert key in row
    assert row["N"] == 64
    assert row["h"] == pytest.approx(1.0 / 64.0)


def test_run_refinement_orders_are_error_rates_without_recomputing(monkeypatch, tmp_path):
    sc = with_levels(scenario_named("smooth-bump"), (16, 32, 64))
    # One line per call, appended to a file, so that calls made in the
    # finest level's worker process are counted too.
    log = tmp_path / "calls.log"
    log.touch()

    def record(name: str) -> None:
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(name + "\n")

    names = ("flux_ledger", "weak_residual_continuity",
             "weak_residual_momentum", "rho_power_integral")
    for name in names:
        original = getattr(diagnostics, name)

        def counted(*args, name=name, original=original, **kwargs):
            record(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(diagnostics, name, counted)
    error_rates = diagnostics.error_rates

    def forbidden(*args, **kwargs):
        record("error_rates")
        raise AssertionError("run_refinement recomputed the level diagnostics")

    monkeypatch.setattr(diagnostics, "error_rates", forbidden)
    rep = harness.run_refinement(sc)
    calls = Counter(log.read_text(encoding="utf-8").split())
    assert calls == dict.fromkeys(names, len(sc.levels))

    rates = error_rates([solve_level(sc, n) for n in sc.levels])
    for key in ("E1", "E2", "P1", "P2"):
        entry = dict(rep.orders[key])
        entry.pop("floor")
        assert entry == rates[key], key
    assert rep.boundedness["rho_gamma_plus_1"] == rates["rho_gamma_plus_1"]


def test_run_refinement_without_steps_reports_no_orders():
    sc = with_levels(scenario_named("smooth-bump"), (8, 16, 32))
    rep = harness.run_refinement(harness.ScenarioConfig(
        name=sc.name, rho0=sc.rho0, u0=sc.u0, T=0.0, params=sc.params, levels=sc.levels,
    ))
    assert not rep.failed
    assert [row["steps"] for row in rep.per_level] == [0, 0, 0]
    assert rep.orders == {}
    assert rep.boundedness["rho_gamma_plus_1"]["values"] == [0.0, 0.0, 0.0]
    for row in rep.per_level:
        assert row["positivity_margin_min"] == np.inf
        for key in ("E1", "E2", "P1", "P2", "rho_gamma_plus_1", "flux_identity_gap"):
            assert row[key] == 0.0


# ======================================================================
# the finest level's worker process
# ======================================================================


def _inline(monkeypatch):
    """Make run_refinement solve every level in this process."""
    monkeypatch.setattr(harness, "fork_worker", lambda *args: None)


def _fail_at(monkeypatch, level: int, exc: Exception) -> None:
    solve = harness.run

    def run(scenario, grid, *args, **kwargs):
        if grid.N == level:
            raise exc
        return solve(scenario, grid, *args, **kwargs)

    monkeypatch.setattr(harness, "run", run)


def test_run_refinement_worker_matches_in_process_levels(monkeypatch):
    sc = with_levels(scenario_named("smooth-bump"), (16, 32, 64))
    rep = harness.run_refinement(sc)
    assert multiprocessing.active_children() == []

    phi, psi = diagnostics.probe_test_functions(sc.L, sc.T)
    trajs = [solve_level(sc, n) for n in sc.levels]
    assert rep.per_level == tuple(harness._level_summary(t, phi, psi) for t in trajs)
    pairs = [harness.cauchy_differences(a, b) for a, b in zip(trajs, trajs[1:])]
    assert rep.cauchy_rho == tuple(l1 for l1, _ in pairs)
    assert rep.cauchy_u == tuple(l2 for _, l2 in pairs)

    _inline(monkeypatch)
    serial = harness.run_refinement(sc)
    assert rep.orders == serial.orders
    assert rep == serial


@pytest.mark.parametrize("level", [32, 64])
def test_run_refinement_step_failure_stops_at_the_failing_level(monkeypatch, level):
    sc = with_levels(scenario_named("smooth-bump"), (16, 32, 64))
    _fail_at(monkeypatch, level, stepper.StepFailure("injected", 4, [1.0, 0.5], 0.25))
    rep = harness.run_refinement(sc)
    assert multiprocessing.active_children() == []
    assert rep.failed
    assert rep.levels == tuple(n for n in sc.levels if n < level)
    assert rep.flags[0] == (
        f"level {level} solve failed: injected (step k=4, min rho=2.500000e-01, "
        "recent residual norms: [1.000e+00, 5.000e-01])"
    )

    _inline(monkeypatch)
    serial = harness.run_refinement(sc)
    assert (rep.levels, rep.flags, rep.failed) == (serial.levels, serial.flags, serial.failed)


def test_run_refinement_reraises_worker_exception_type(monkeypatch):
    sc = with_levels(scenario_named("constant"), (8, 16, 32))
    exc = LookupError("injected")
    _fail_at(monkeypatch, 32, exc)
    with pytest.raises(LookupError, match="^injected$") as err:
        harness.run_refinement(sc)
    assert err.value is not exc  # a copy, sent back by the worker
    assert multiprocessing.active_children() == []


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the finest level runs in process without fork")
def test_run_refinement_names_a_worker_that_died(monkeypatch):
    sc = with_levels(scenario_named("constant"), (8, 16, 32))
    parent = os.getpid()
    solve = harness.run

    def run(scenario, grid, *args, **kwargs):
        if grid.N == 32 and os.getpid() != parent:
            os._exit(7)
        return solve(scenario, grid, *args, **kwargs)

    monkeypatch.setattr(harness, "run", run)
    with pytest.raises(RuntimeError, match=r"level 32 worker exited with code 7"):
        harness.run_refinement(sc)
    assert multiprocessing.active_children() == []


def test_run_refinement_names_a_worker_whose_pipe_was_reset(monkeypatch):
    """A killed worker's pipe can raise ConnectionResetError instead of EOFError."""
    sc = with_levels(scenario_named("constant"), (8, 16, 32))
    monkeypatch.setattr(harness, "fork_worker", lambda *args: reset_worker(-9))
    with pytest.raises(
        RuntimeError, match=r"^level 32 worker exited with code -9 without a result$"
    ):
        harness.run_refinement(sc)


def test_refine_cli_writes_each_line_once(tmp_path):
    """Output buffered before the worker forks is written once, not twice."""
    cfg = tmp_path / "warn.cfg"
    cfg.write_text("[scenario]\nname = smooth-bump\ngamma = 1.4\nlevels = 8,16,32\n",
                   encoding="utf-8")
    script = (
        "from visco1d.cli import main\n"
        "print('before refine')\n"  # stdout is a pipe: this stays buffered
        "main()\n"
    )
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)  # buffer stdout, as a plain run does
    proc = subprocess.run(
        [sys.executable, "-c", script, "refine", "--config", str(cfg), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "before refine", f"wrote {tmp_path / 'report.csv'} (3 levels)"]
    assert proc.stderr.splitlines() == [
        "WARNING gamma=1.4 outside 3/2<gamma<2 convergence regime"]
