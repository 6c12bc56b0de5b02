"""Scenario configs, grid transfer operators, and the refinement driver."""

from __future__ import annotations

import numpy as np
import pytest

import visco1d as v
from visco1d import diagnostics
from visco1d.harness import resolve_density_profile, resolve_velocity_profile

from conftest import scenario_named, solve_level, with_levels


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
        v.ScenarioConfig(name="x", levels=(64, 64, 128))
    with pytest.raises(ValueError):
        v.ScenarioConfig(name="x", levels=(64, 96))  # 96 not a multiple of 64
    with pytest.raises(ValueError):
        v.ScenarioConfig(name="x", levels=())
    # a single level is a legal configuration (refinement studies need more,
    # but plain runs do not)
    assert v.ScenarioConfig(name="x", levels=(8,)).levels == (8,)


def test_scenario_rejects_nonpositive_density():
    with pytest.raises(ValueError):
        v.ScenarioConfig(name="bad", rho0="constant:-1")


def test_scenario_grid_couples_dt_to_dx():
    sc = v.ScenarioConfig(name="x", levels=(8, 16, 32))
    g = sc.grid_for(16)
    assert g.dt == pytest.approx(g.dx)
    free = v.ScenarioConfig(name="y", levels=(8, 16, 32), couple_dt_dx=False, dt=0.01)
    assert free.grid_for(16).dt == pytest.approx(0.01)


def test_builtin_scenarios_roster():
    names = [s.name for s in v.builtin_scenarios()]
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
    g = v.GridSpec(L=1.0, N=4, dt=0.25, T=0.0)
    st = v.init_state(g, sc.rho0_fn, sc.u0_fn)
    np.testing.assert_allclose(st.rho, [2.0, 2.0, 1.0, 1.0], atol=1e-15)


# ======================================================================
# grid transfer
# ======================================================================


def test_project_cells_box_average():
    fine = np.array([1.0, 3.0, 5.0, 7.0])
    np.testing.assert_allclose(v.project_cells(fine, 2), [2.0, 6.0])
    np.testing.assert_allclose(v.project_cells(fine, 4), [4.0])


def test_project_cells_conserves_mass():
    rng = np.random.default_rng(0)
    fine = rng.uniform(0.5, 2.0, size=24)
    for ratio in (2, 3, 4):
        coarse = v.project_cells(fine, ratio)
        assert coarse.sum() * ratio == pytest.approx(fine.sum(), rel=1e-14)


def test_restrict_faces_keeps_shared_nodes():
    fine = np.linspace(0.0, 1.0, 9)  # 8 fine cells
    np.testing.assert_array_equal(v.restrict_faces(fine, 2), fine[::2])


def test_cauchy_differences_zero_for_identical_resolutions():
    sc = scenario_named("constant")
    t1 = v.run(sc, sc.grid_for(8), sc.params)
    t2 = v.run(sc, sc.grid_for(16), sc.params)
    l1, l2 = v.cauchy_differences(t1, t2)
    assert l1 == 0.0
    assert l2 == 0.0


def test_cauchy_differences_detect_known_gap():
    """Hand-check the L1 part on synthetic single-step constant fields."""
    g8 = v.GridSpec(L=1.0, N=8, dt=0.125, T=0.125)
    g16 = v.GridSpec(L=1.0, N=16, dt=0.0625, T=0.125)
    mk = lambda g, val, steps: v.Trajectory(
        grid=g, params=v.PhysParams(),
        states=tuple(
            v.FluidState(rho=np.full(g.N, val), u=np.zeros(g.N + 1), k=k)
            for k in range(steps + 1)
        ),
        meta={"dt_dx_coupled": True},
    )
    coarse = mk(g8, 1.0, 1)
    fine = mk(g16, 1.25, 2)
    l1, l2 = v.cauchy_differences(coarse, fine)
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
        v.run_refinement(bad)


def test_run_refinement_constant_scenario_exact():
    sc = with_levels(scenario_named("constant"), (8, 16, 32))
    rep = v.run_refinement(sc)
    assert not rep.failed
    assert rep.cauchy_rho == (0.0, 0.0)
    assert rep.cauchy_u == (0.0, 0.0)
    for key in ("E1", "E2", "P1", "P2"):
        assert rep.orders[key]["order"] == "exact"
        assert rep.orders[key]["floor"] is not None
    assert rep.orders["cauchy_rho"]["order"] == "exact"


def test_run_refinement_reports_floors_next_to_orders(smooth_ladder):
    sc = with_levels(scenario_named("smooth-bump"), (64, 128, 256))
    rep = v.run_refinement(sc)
    g = sc.params.gamma
    assert rep.orders["E1"]["floor"] == pytest.approx((2 * g - 3) / (2 * g))
    assert rep.orders["E2"]["floor"] == pytest.approx((3 * g - 4) / (2 * g))
    assert rep.orders["P1"]["floor"] == pytest.approx(0.5)
    assert rep.orders["P2"]["floor"] == pytest.approx(0.25)


def test_run_refinement_flags_decoupled_dt():
    sc = v.ScenarioConfig(
        name="decoupled", rho0="bump", u0="zero", T=0.05,
        levels=(8, 16, 32), couple_dt_dx=False, dt=0.01,
        params=v.PhysParams(mu=0.05),
    )
    rep = v.run_refinement(sc)
    assert any("outside convergence-theory regime" in f for f in rep.flags)
    assert rep.orders == {}  # rates are not meaningful off the dt = dx line


def test_run_refinement_flags_gamma_outside_window():
    sc = v.ScenarioConfig(
        name="gamma-off", rho0="bump", u0="sin2pi", T=0.125,
        levels=(8, 16, 32), params=v.PhysParams(gamma=2.5, mu=0.05),
    )
    rep = v.run_refinement(sc)
    assert any("gamma" in f for f in rep.flags)


def test_run_refinement_per_level_summary_fields(smooth_ladder):
    sc = with_levels(scenario_named("smooth-bump"), (64, 128, 256))
    rep = v.run_refinement(sc)
    row = rep.per_level[0]
    for key in ("N", "h", "steps", "mass_drift_rel", "energy_balance_max",
                "energy_tol", "positivity_margin_min", "E1", "E2", "P1", "P2",
                "flux_identity_gap", "rho_gamma_plus_1"):
        assert key in row
    assert row["N"] == 64
    assert row["h"] == pytest.approx(1.0 / 64.0)


def test_run_refinement_orders_are_error_rates_without_recomputing(monkeypatch):
    sc = with_levels(scenario_named("smooth-bump"), (16, 32, 64))
    calls: dict[str, int] = {}
    for name in ("flux_ledger", "weak_residual_continuity",
                 "weak_residual_momentum", "rho_power_integral"):
        original = getattr(diagnostics, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(diagnostics, name, counted)
    error_rates = diagnostics.error_rates

    def forbidden(*args, **kwargs):
        raise AssertionError("run_refinement recomputed the level diagnostics")

    monkeypatch.setattr(diagnostics, "error_rates", forbidden)
    rep = v.run_refinement(sc)
    assert calls == dict.fromkeys(calls, len(sc.levels))
    assert len(calls) == 4

    rates = error_rates([solve_level(sc, n) for n in sc.levels])
    for key in ("E1", "E2", "P1", "P2"):
        entry = dict(rep.orders[key])
        entry.pop("floor")
        assert entry == rates[key], key
    assert rep.boundedness["rho_gamma_plus_1"] == rates["rho_gamma_plus_1"]


def test_run_refinement_without_steps_reports_no_orders():
    sc = with_levels(scenario_named("smooth-bump"), (8, 16, 32))
    rep = v.run_refinement(v.ScenarioConfig(
        name=sc.name, rho0=sc.rho0, u0=sc.u0, T=0.0, params=sc.params, levels=sc.levels,
    ))
    assert not rep.failed
    assert [row["steps"] for row in rep.per_level] == [0, 0, 0]
    assert rep.orders == {}
    assert rep.boundedness["rho_gamma_plus_1"]["values"] == [0.0, 0.0, 0.0]
