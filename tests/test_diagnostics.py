"""Exact-identity ledgers, weak residuals, norms, and observed rates."""

from __future__ import annotations

import io
import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.integrate

from visco1d import cli, diagnostics, grid, harness, stepper
from visco1d.diagnostics import _int_abs_linear_pow
from visco1d.operators import (
    diff_cell,
    face_momentum,
    hat,
    laplace_velocity,
    momentum_convection,
    pressure_gradient,
    split_upwind,
    upwind_flux,
)
from visco1d.stepper import _old_fields, assemble_residual

from conftest import (
    constant_state,
    marched,
    peak_beyond_the_solver,
    scenario_named,
    solve_level,
    with_levels,
)


def synthetic_trajectory(states, L=1.0, params=None) -> grid.Trajectory:
    """Wrap hand-built states (dt = dx) without running the solver."""
    n = states[0].rho.size
    g = grid.GridSpec(L=L, N=n, dt=L / n, T=(len(states) - 1) * L / n)
    return grid.Trajectory(
        grid=g,
        params=params or grid.PhysParams(),
        states=tuple(states),
    )


def ledger_of(traj: grid.Trajectory, m: int | None = None) -> diagnostics.FluxLedger:
    """flux_ledger over a kept trajectory's states."""
    return diagnostics.flux_ledger(traj.grid, traj.params, traj.states, m)


def suite_of(traj: grid.Trajectory) -> diagnostics.IdentitySuite:
    """The identity suite over a kept trajectory's (state, meta) pairs."""
    return diagnostics.IdentitySuite(traj.grid, traj.params, marched(traj))


def mass_drift(traj: grid.Trajectory) -> float:
    """Largest change of the total mass over the run, relative to the initial mass."""
    masses = diagnostics.mass_history(traj)
    return float(np.max(np.abs(masses - masses[0]))) / masses[0]


@pytest.fixture(scope="module")
def kept_runs() -> dict[tuple[str, int], grid.Trajectory]:
    """Every builtin scenario solved and kept at N in {64, 128, 256}."""
    return {
        (sc.name, n): solve_level(sc, n)
        for sc in harness.builtin_scenarios()
        for n in (64, 128, 256)
    }


# ======================================================================
# energy ledger
# ======================================================================


def test_energy_constant_run_is_inert(constant_traj):
    led = diagnostics.energy_ledger(constant_traj)
    np.testing.assert_allclose(led.energy, led.energy[0], atol=1e-15)
    np.testing.assert_array_equal(led.dissipation, 0.0)
    for name in ("N1", "N2", "N3", "N4"):
        np.testing.assert_array_equal(getattr(led, name), 0.0)
    np.testing.assert_array_equal(led.balance_residual, 0.0)


def test_energy_initial_value_formula():
    # rho = 1, u = 0, a = 1, gamma = 5/3 on unit interval: E = 1/(gamma-1)
    st = constant_state(4)
    traj = synthetic_trajectory([st])
    led = diagnostics.energy_ledger(traj)
    assert led.energy[0] == pytest.approx(1.5, abs=1e-15)


def test_energy_balance_smooth_bump_n32(smooth_traj_32):
    led = diagnostics.energy_ledger(smooth_traj_32)
    assert float(np.max(led.balance_residual)) <= 1e-8


def test_energy_diffusion_terms_nonnegative(smooth_traj_32):
    led = diagnostics.energy_ledger(smooth_traj_32)
    for name in ("N1", "N2", "N3", "N4"):
        assert float(np.min(led.step_increments(name))) >= -1e-12
        # cumulative series therefore (weakly) increase
        series = getattr(led, name)
        assert series[0] == 0.0
        assert np.all(np.diff(series) >= -1e-12)


def test_energy_dissipation_matches_velocity_gradient(smooth_traj_32):
    led = diagnostics.energy_ledger(smooth_traj_32)
    g, pp = smooth_traj_32.grid, smooth_traj_32.params
    total = 0.0
    for k in range(1, len(smooth_traj_32)):
        du = diff_cell(smooth_traj_32.u_matrix[k], g.dx)
        total += pp.mu * g.dt * g.dx * float(np.sum(du * du))
    assert led.dissipation[-1] == pytest.approx(total, rel=1e-13)


# ======================================================================
# renormalized continuity
# ======================================================================


def test_renorm_identity_linear_b_is_continuity(smooth_traj_32):
    """B(z)=z has zero convexity remainders: residual == continuity residual."""
    lin = diagnostics.BFunction(name="identity", value=lambda z: z, deriv=lambda z: np.ones_like(z))
    res = diagnostics.renorm_residual(smooth_traj_32, lin)
    g = smooth_traj_32.grid
    for k in range(1, len(smooth_traj_32)):
        rho, rho_prev = smooth_traj_32.rho_matrix[k], smooth_traj_32.rho_matrix[k - 1]
        u = smooth_traj_32.u_matrix[k]
        cont = (rho - rho_prev) / g.dt + diff_cell(
            upwind_flux(rho, *split_upwind(u)), g.dx
        )
        np.testing.assert_allclose(res[k - 1], cont, atol=1e-13)


@pytest.mark.parametrize("maker", [diagnostics.b_square, diagnostics.b_zlogz])
def test_renorm_residual_tracks_weighted_continuity(smooth_traj_32, maker):
    """The identity's residual is exactly B'(rho) times the scheme residual."""
    B = maker()
    res = diagnostics.renorm_residual(smooth_traj_32, B)
    tol = diagnostics.effective_newton_tol(smooth_traj_32)
    lo = float(np.min(smooth_traj_32.rho_matrix))
    hi = float(np.max(smooth_traj_32.rho_matrix))
    assert float(np.max(np.abs(res))) <= 10.0 * tol * diagnostics.sup_abs_deriv(B, lo, hi)


def test_renorm_power_matches_gamma_law(smooth_traj_32):
    B = diagnostics.b_power(smooth_traj_32.params.gamma)
    res = diagnostics.renorm_residual(smooth_traj_32, B)
    assert float(np.max(np.abs(res))) < 1e-10


def test_entropy_inequality_zlogz(smooth_traj_32):
    """z log z renormalization: entropy decays up to the velocity divergence."""
    g = smooth_traj_32.grid
    rho0, rhom = smooth_traj_32.rho_matrix[0], smooth_traj_32.rho_matrix[-1]
    s0 = g.dx * float(np.sum(rho0 * np.log(rho0)))
    sm = g.dx * float(np.sum(rhom * np.log(rhom)))
    div_total = 0.0
    for k in range(1, len(smooth_traj_32)):
        du = diff_cell(smooth_traj_32.u_matrix[k], g.dx)
        div_total += g.dt * g.dx * float(np.sum(smooth_traj_32.rho_matrix[k] * du))
    slack = 1e-8
    assert sm <= s0 - div_total + slack


def test_sup_abs_deriv_square():
    sup = diagnostics.sup_abs_deriv(diagnostics.b_square(), 0.5, 2.0)
    assert sup == pytest.approx(4.0, rel=1e-3)


def unfit_b(which: str, lo: float, hi: float) -> tuple[diagnostics.BFunction, str]:
    """A B whose B' (``which`` "deriv") or whose value ("value") is infinite
    at ``hi`` alone, and the message of the ValueError it must raise on
    [lo, hi]."""

    def infinite_at_hi(z):
        return np.where(z >= hi, np.inf, 1.0)

    if which == "deriv":
        B = diagnostics.BFunction("unfit", lambda z: z, infinite_at_hi)
        return B, f"B' (unfit) is not finite on [{lo}, {hi}]"
    B = diagnostics.BFunction("unfit", lambda z: z * infinite_at_hi(z), np.ones_like)
    return B, "B (unfit) is not finite on the density range"


@pytest.mark.parametrize("which", ["deriv", "value"])
@pytest.mark.parametrize("caller", ["sup_abs_deriv", "renorm_residual", "IdentitySuite.checks"])
def test_a_b_unfit_for_the_density_range_is_rejected(which, caller, smooth_traj_32, monkeypatch):
    """sup_abs_deriv is the one check of B for every caller: a B' that is
    not finite on the run's density range, or a B that is not finite at an
    end of it, raises ValueError with its own message."""
    traj = smooth_traj_32
    lo, hi = float(np.min(traj.rho_matrix)), float(np.max(traj.rho_matrix))
    B, message = unfit_b(which, lo, hi)
    if caller == "IdentitySuite.checks":
        monkeypatch.setattr(diagnostics, "b_zlogz", lambda: B)
        suite = suite_of(traj)  # the walk takes the unfit B; checks() rejects it
    with pytest.raises(ValueError) as raised:
        if caller == "sup_abs_deriv":
            diagnostics.sup_abs_deriv(B, lo, hi)
        elif caller == "renorm_residual":
            diagnostics.renorm_residual(traj, B)
        else:
            suite.checks()
    assert str(raised.value) == message


@pytest.mark.parametrize("maker", [diagnostics.b_zlogz, diagnostics.b_square,
                                   lambda: diagnostics.b_power(1.6)])
def test_left_convexity_gap_is_the_left_minus_right_form_bit_for_bit(maker):
    """_convexity_gaps takes the gap from the right cell to the left one as
    bl - br + B'(right) * (right - left), the bits of
    bl - br - B'(right) * (left - right), signed zeros included: equal
    neighbours, with B' < 0 for zlogz below 1/e, make the product a zero."""
    rng = np.random.default_rng(40)
    values = np.array([0.05, 0.1, 0.2, 0.3, 1.0 / math.e, 0.5, 1.0, 1.7])
    rho, rho_prev = rng.choice(values, size=(2, 4, 64))
    u = rng.normal(size=(4, 65))
    g = grid.GridSpec(L=1.0, N=64, dt=1.0 / 64, T=4.0 / 64)
    level = diagnostics._Level(rho, u, g, grid.PhysParams(), rho_prev)
    B = maker()
    b, db = B.value(rho), B.deriv(rho)
    _, _, left = diagnostics._convexity_gaps(B.value(rho_prev), b, db, level)
    reference = b[:, :-1] - b[:, 1:] - db[:, 1:] * (rho[:, :-1] - rho[:, 1:])
    assert left.tobytes() == reference.tobytes()
    equal = rho[:, :-1] == rho[:, 1:]
    assert equal.any() and (B.name != "zlogz" or (equal & (db[:, 1:] < 0)).any())


# ======================================================================
# positivity report
# ======================================================================


def test_positivity_bound_formula():
    prev = grid.FluidState(rho=np.array([1.0, 3.0]), u=np.zeros(3))
    nxt = grid.FluidState(rho=np.array([1.0, 3.0]), u=np.array([0.0, 2.0, 0.0]), k=1)
    # dt = dx = 0.5 is forced by the synthetic wrapper; rebuild with dt = 0.1
    g = grid.GridSpec(L=1.0, N=2, dt=0.1, T=0.1)
    traj = grid.Trajectory(grid=g, params=grid.PhysParams(), states=(prev, nxt))
    rep = diagnostics.positivity_report(traj)
    assert rep.bound[0] == pytest.approx(1.0 / 1.2)
    assert rep.min_rho[0] == 1.0


def test_positivity_zero_velocity_is_equality(constant_traj):
    rep = diagnostics.positivity_report(constant_traj)
    np.testing.assert_allclose(rep.bound, rep.min_rho, atol=1e-15)
    np.testing.assert_allclose(rep.margin, 0.0, atol=1e-15)


def test_positivity_provable_bound_holds_on_runs(smooth_traj_64, riemann_ladder):
    assert diagnostics.positivity_report(smooth_traj_64).worst_divergence_margin >= -1e-12
    assert diagnostics.positivity_report(riemann_ladder[64]).worst_divergence_margin >= -1e-12


# ======================================================================
# flux ledger
# ======================================================================


def test_flux_ledger_still_constant_trajectory_all_zero():
    st = constant_state(6)
    traj = synthetic_trajectory([st, st.__class__(rho=st.rho, u=st.u, k=1)])
    led = ledger_of(traj)
    assert led.lhs == 0.0
    assert led.E1 == 0.0 and led.E2 == 0.0
    assert led.rhs_total == 0.0
    assert led.identity_gap == 0.0


def test_flux_ledger_zero_velocity_kills_e_terms():
    """Synthetic still state with nonuniform density: E1, E2 carry u factors."""
    rho = np.array([2.0, 1.5, 1.0, 0.5])
    states = [
        grid.FluidState(rho=rho, u=np.zeros(5), k=k) for k in range(3)
    ]
    led = ledger_of(synthetic_trajectory(states))
    assert led.E1 == 0.0
    assert led.E2 == 0.0
    # lhs reduces to the pressure term, which is genuinely nonzero here
    assert led.lhs != 0.0
    assert abs(led.identity_gap) > 0.0  # residual slack: this is not a solution


def test_flux_identity_closes_on_solved_run(smooth_traj_32):
    steps = len(smooth_traj_32) - 1
    tol = diagnostics.effective_newton_tol(smooth_traj_32)
    for m in (max(1, steps // 2), steps):
        led = ledger_of(smooth_traj_32, m)
        assert abs(led.identity_gap) <= 100.0 * tol * m
        assert abs(led.pairing_gap) <= 100.0 * tol * m
        assert abs(led.decomposition_gap) <= 1e-12


def test_flux_ledger_rhs_terms_schema(smooth_traj_32):
    led = ledger_of(smooth_traj_32)
    assert set(led.rhs_terms) == {"mean_flux", "boundary", "E1", "E2"}
    assert led.rhs_terms["boundary"] == pytest.approx(
        led.boundary_terminal + led.boundary_initial
    )
    assert led.rhs_total == pytest.approx(sum(led.rhs_terms.values()))


def test_flux_ledger_checkpoint_must_be_valid(smooth_traj_32):
    with pytest.raises(ValueError):
        ledger_of(smooth_traj_32, 0)
    with pytest.raises(ValueError):
        ledger_of(smooth_traj_32, len(smooth_traj_32))


def test_flux_ledger_reads_levels_through_its_checkpoint_alone(smooth_traj_32):
    """Levels past m are left unread, and a run that ends before m is refused."""
    g, pp, states = smooth_traj_32.grid, smooth_traj_32.params, smooth_traj_32.states
    rest = iter(states)
    assert diagnostics.flux_ledger(g, pp, rest, 3) == ledger_of(smooth_traj_32, 3)
    assert next(rest) is states[4]
    with pytest.raises(ValueError, match="6 steps were asked for, but the run has 4"):
        diagnostics.flux_ledger(g, pp, states[:5], 6)


# ======================================================================
# weak residuals
# ======================================================================


def test_weak_residual_steady_constant_state(constant_traj):
    lhs, p1 = diagnostics.weak_residual_continuity(constant_traj, 1)
    assert lhs == pytest.approx(0.0, abs=1e-15)
    assert p1 == pytest.approx(0.0, abs=1e-15)
    lhs2, p2 = diagnostics.weak_residual_momentum(constant_traj, 1)
    assert lhs2 == pytest.approx(0.0, abs=1e-15)
    assert p2 == pytest.approx(0.0, abs=1e-15)


def test_weak_self_consistency(smooth_traj_32):
    for j in (1, 2, 3):
        lhs, p1 = diagnostics.weak_residual_continuity(smooth_traj_32, j)
        assert abs(lhs - p1) <= 1e-8
        lhs2, p2 = diagnostics.weak_residual_momentum(smooth_traj_32, j)
        assert abs(lhs2 - p2) <= 1e-8


def reference_weak_residuals(traj, value, deriv_x):
    """(lhs, P1, lhs, P2) by tensor Gauss quadrature, for a general phi(t, x).

    ``value`` and ``deriv_x`` take broadcasting (t, x) arrays.  Every window
    evaluates them on the product of its own t-nodes with every cell's
    x-nodes, both built by gauss_panels, and integrates the extended fields
    there; P1 and P2 pair the scheme with the cell-time and face-time
    averages of phi on that window.
    """
    g, pp = traj.grid, traj.params
    dt, dx, n = g.dt, g.dx, g.N
    x, wx = (a.ravel() for a in grid.gauss_panels(g.face_nodes[:-1], g.face_nodes[1:]))
    steps = len(traj) - 1
    t_nodes, t_weights = grid.gauss_panels(np.arange(steps) * dt, np.arange(1, steps + 1) * dt)
    cell = np.repeat(np.arange(n), x.size // n)
    frac = x / dx - cell
    lhs_c = p1 = lhs_m = p2 = 0.0
    for k in range(1, len(traj)):
        old, new = traj.states[k - 1], traj.states[k]
        rho, u = new.rho, new.u
        tn, tw = t_nodes[k - 1], t_weights[k - 1]
        phi = value(tn[:, None], x[None, :])
        phi_x = deriv_x(tn[:, None], x[None, :])
        cell_avg = (tw @ (phi * wx)).reshape(n, -1).sum(axis=1) / (dt * dx)
        face_avg = tw @ value(tn[:, None], g.face_nodes[None, :]) / dt
        up, um = split_upwind(u[1:-1])

        u_nodes = u[cell] + frac * (u[cell + 1] - u[cell])
        integrand = ((rho - old.rho) / dt)[cell] * phi - (rho[cell] * u_nodes) * phi_x
        lhs_c += tw @ integrand @ wx
        p1 -= dt * np.sum(
            np.diff(rho)
            * (up * (cell_avg[1:] - face_avg[1:-1]) + um * (cell_avg[:-1] - face_avg[1:-1]))
        )

        mom = rho * hat(u)
        dt_mom = (mom - old.rho * hat(old.u)) / dt
        flux = mom * hat(u) + pp.pressure(rho) - pp.mu * diff_cell(u, dx)
        lhs_m += tw @ (dt_mom[cell] * phi - flux[cell] * phi_x) @ wx
        j1 = np.sum(dt_mom * (0.5 * dx * (face_avg[:-1] + face_avg[1:]) - dx * cell_avg))
        j2 = 0.5 * np.sum(
            np.diff(mom)
            * (up * (face_avg[2:] - face_avg[1:-1]) - um * (face_avg[1:-1] - face_avg[:-2]))
        )
        p2 -= dt * (j1 + j2)
    return lhs_c, p1, lhs_m, p2


@pytest.mark.parametrize("name, n", [("smooth-bump", 32), ("riemann-like", 64), ("gamma-1.9", 64)])
def test_weak_residuals_match_the_tensor_gauss_reference(name, n):
    traj = solve_level(scenario_named(name), n)
    L, T = traj.grid.L, traj.grid.T
    for j in (1, 2, 3):
        k = np.pi * j / L
        got = (diagnostics.weak_residual_continuity(traj, j)
               + diagnostics.weak_residual_momentum(traj, j))
        ref = reference_weak_residuals(
            traj,
            lambda t, x: np.sin(k * x) * (1.0 - t / T) ** 2,
            lambda t, x: k * np.cos(k * x) * (1.0 - t / T) ** 2,
        )
        assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-14, j
        assert abs(ref[1]) > 1e-6 or abs(ref[3]) > 1e-6, j  # not a trivial zero


@pytest.mark.parametrize(
    "residual", [diagnostics.weak_residual_continuity, diagnostics.weak_residual_momentum]
)
def test_weak_residuals_call_the_test_function_once_per_level(
    residual, smooth_traj_32, monkeypatch
):
    """The test function is sampled on one set of Gauss nodes per level:
    the number of gauss_panels calls does not grow with the number of windows."""
    short = synthetic_trajectory(smooth_traj_32.states[:3])
    calls = []
    spy = mock.Mock(side_effect=grid.gauss_panels)
    monkeypatch.setattr(diagnostics, "gauss_panels", spy)
    for traj in (short, smooth_traj_32):
        spy.reset_mock()
        residual(traj, 2)
        calls.append(spy.call_count)
    assert len(smooth_traj_32) - 1 > 2 * (len(short) - 1)
    assert calls[0] == calls[1] > 0


def test_level_summary_probes_each_equation_with_the_mode_it_does_not_cancel(
    smooth_traj_64,
):
    """The mirror-symmetric smooth bump pairs the momentum equation with the
    even mode 1, and the density equation with the odd mode 2, to roundoff
    zeros; level_summary takes P1 at mode 1 and P2 at mode 2 instead."""
    traj = smooth_traj_64
    p1 = {j: diagnostics.weak_residual_continuity(traj, j)[1] for j in (1, 2)}
    p2 = {j: diagnostics.weak_residual_momentum(traj, j)[1] for j in (1, 2)}
    assert abs(p2[1]) <= 1e-10 * abs(p2[2])
    assert abs(p1[2]) <= 1e-10 * abs(p1[1])
    row = diagnostics.level_summary(traj.grid, traj.params, marched(traj))
    assert row["P1"] == abs(p1[1])
    assert row["P2"] == abs(p2[2])


def test_p1_shrinks_under_refinement(smooth_ladder):
    mags = [
        abs(diagnostics.weak_residual_continuity(smooth_ladder[n], 1)[1])
        for n in (64, 128, 256, 512)
    ]
    assert all(a > b for a, b in zip(mags, mags[1:]))
    # roughly h^(1/2) or better per the theory; halving should shave >= 2^0.45
    orders = [np.log2(a / b) for a, b in zip(mags, mags[1:])]
    assert min(orders) >= 0.45


# ======================================================================
# norms, integrability, rates
# ======================================================================


def test_norm_suite_constant_state():
    traj = synthetic_trajectory([constant_state(8)])
    norms = diagnostics.norm_suite(traj)
    assert norms["rho_Linf_Lgamma"] == pytest.approx(1.0, abs=1e-14)
    assert norms["u_L2_H1"] == 0.0
    assert norms["u_L2_Linf"] == 0.0
    assert norms["kinetic_Linf_L1"] == 0.0
    assert set(norms) == {
        "rho_Linf_Lgamma", "pressure_Linf_L1", "u_L2_H1", "u_L2_Linf",
        "momentum_Linf_Lr", "kinetic_Linf_L1", "rho_u_L2_Lgamma", "rho_u2_L2_Lr",
    }


def test_norm_suite_density_homogeneity():
    one = synthetic_trajectory([constant_state(8, rho=1.0)])
    two = synthetic_trajectory([constant_state(8, rho=2.0)])
    n1, n2 = diagnostics.norm_suite(one), diagnostics.norm_suite(two)
    assert n2["rho_Linf_Lgamma"] == pytest.approx(2.0 * n1["rho_Linf_Lgamma"], rel=1e-13)


def test_rho_power_integral_constant():
    traj = solve_level(scenario_named("constant"), 8)
    gamma = traj.params.gamma
    # integrand is 1, so the space-time integral is T
    assert diagnostics.rho_power_integral(traj) == pytest.approx(traj.grid.T, rel=1e-13)
    assert diagnostics.rho_power_integral(traj, power=2.0) == pytest.approx(traj.grid.T, rel=1e-13)


def test_int_abs_linear_pow_against_quadrature():
    rng = np.random.default_rng(42)
    for _ in range(40):
        a = float(rng.uniform(-2, 2))
        b = float(rng.uniform(-3, 3))
        w = float(rng.uniform(0.05, 1.5))
        s = float(rng.uniform(0.5, 3.0))
        exact = float(_int_abs_linear_pow(np.array([a]), np.array([b]), w, s)[0])
        # tell the quadrature about the |.| kink, else it quietly loses digits
        kink = -a / b if b != 0.0 else None
        pts = [kink] if kink is not None and 0.0 < kink < w else None
        ref, _ = scipy.integrate.quad(
            lambda t: abs(a + b * t) ** s, 0.0, w, points=pts, limit=200
        )
        assert exact == pytest.approx(ref, rel=1e-8, abs=1e-12)


def test_error_rates_requires_three_levels(smooth_ladder):
    with pytest.raises(ValueError):
        diagnostics.error_rates([smooth_ladder[64], smooth_ladder[128]])


def test_error_rates_requires_steps_at_every_level():
    sc = harness.ScenarioConfig(name="constant", T=0.0)
    trajs = [solve_level(sc, n) for n in (8, 16, 32)]
    with pytest.raises(ValueError, match="at least one step at every level"):
        diagnostics.error_rates(trajs)


def test_error_rates_requires_coupled_dt():
    """Every level must share one dt/dx ratio, whichever it is."""
    sc = scenario_named("constant")
    g = grid.GridSpec(L=1.0, N=8, dt=0.01, T=0.05)
    odd = stepper.run(sc, g, sc.params)
    good = [solve_level(sc, n) for n in (8, 16, 32)]
    with pytest.raises(ValueError, match="one dt/dx ratio at every level"):
        diagnostics.error_rates([odd, good[1], good[2]])
    half = replace(sc, levels=(8, 16, 32), dt_over_dx=0.5)
    rates = diagnostics.error_rates([solve_level(half, n) for n in half.levels])
    assert rates["E1"]["order"] == "exact"


def test_error_rates_constant_scenario_exact():
    sc = scenario_named("constant")
    trajs = [solve_level(sc, n) for n in (8, 16, 32)]
    rates = diagnostics.error_rates(trajs)
    for key in ("E1", "E2", "P1", "P2"):
        assert rates[key]["order"] == "exact"
        assert all(m == 0.0 for m in rates[key]["magnitudes"])
    assert rates["rho_gamma_plus_1"]["max_over_min"] == pytest.approx(1.0, rel=1e-12)


def test_effective_newton_tol_default_for_trivial_run(constant_traj):
    # constant data: residual starts at 0, so the scaled tolerance is 1e-10
    assert diagnostics.effective_newton_tol(constant_traj) == pytest.approx(1e-10)


# ======================================================================
# memory: every diagnostic walks the trajectory one time level at a time
# ======================================================================


_ROW_WISE_DIAGNOSTICS = {
    "energy_ledger": lambda tr: diagnostics.energy_ledger(tr),
    "norm_suite": lambda tr: diagnostics.norm_suite(tr),
    "renorm_residual":
        lambda tr: diagnostics.renorm_residual(tr, diagnostics.b_power(tr.params.gamma)),
    "positivity_report": lambda tr: diagnostics.positivity_report(tr),
    "weak_residual_continuity": lambda tr: diagnostics.weak_residual_continuity(tr, 1),
    "weak_residual_momentum": lambda tr: diagnostics.weak_residual_momentum(tr, 2),
    "mass_history": lambda tr: diagnostics.mass_history(tr),
    "flux_ledger": lambda tr: ledger_of(tr),
    "rho_power_integral": lambda tr: diagnostics.rho_power_integral(tr),
    # The suite's every check from one walk of a kept run, while the
    # renormalized bounds are taken.
    "identity_checks": lambda tr: suite_of(tr).checks(),
}
# Peak bounds in (M+1) x N matrices where a quarter is not the bound.
_PEAK_LIMITS = {"identity_checks": 0.5}
_STACK_FREE = {
    **_ROW_WISE_DIAGNOSTICS,
    "level_summary": lambda tr: diagnostics.level_summary(tr.grid, tr.params, marched(tr)),
}


@pytest.fixture
def levels_built(monkeypatch):
    """A callable that counts the time levels held by the _Level blocks made
    since the test began."""
    built = 0

    class Counted(diagnostics._Level):
        def __init__(self, *args, **kwargs):
            nonlocal built
            super().__init__(*args, **kwargs)
            built += len(self.rho)

    monkeypatch.setattr(diagnostics, "_Level", Counted)
    return lambda: built


@pytest.mark.parametrize("name", sorted(_ROW_WISE_DIAGNOSTICS))
def test_every_kept_run_diagnostic_walks_its_run_once(name, smooth_traj_32, levels_built):
    """Each diagnostic of a kept run derives each time level's arrays once:
    its _Level blocks hold every level of the run, and none twice."""
    _ROW_WISE_DIAGNOSTICS[name](smooth_traj_32)
    assert levels_built() == len(smooth_traj_32) > 1


@pytest.mark.parametrize("name", sorted(_STACK_FREE))
def test_diagnostics_stack_each_matrix_at_most_once(name, smooth_traj_64, monkeypatch):
    """No diagnostic stacks the trajectory into an (M+1)-row matrix at all."""
    assert len(smooth_traj_64) - 1 >= 16
    counts = {"rho_matrix": 0, "u_matrix": 0}
    for attr in counts:
        original = getattr(grid.Trajectory, attr)

        def counted(self, attr=attr, original=original):
            counts[attr] += 1
            return original.fget(self)

        monkeypatch.setattr(grid.Trajectory, attr, property(counted))
    _STACK_FREE[name](smooth_traj_64)
    assert counts == {"rho_matrix": 0, "u_matrix": 0}


@pytest.fixture(scope="module")
def long_smooth_traj_128() -> grid.Trajectory:
    """256 steps at N=128: the O(N) work arrays of a step and the O(M) series
    then stay below a quarter of the (M+1) x N trajectory, which one stacked
    copy fills."""
    sc = replace(scenario_named("smooth-bump"), T=2.0)
    return solve_level(sc, 128)


@pytest.mark.parametrize("name", sorted(_ROW_WISE_DIAGNOSTICS))
def test_diagnostics_peak_below_a_quarter_trajectory(name, long_smooth_traj_128):
    """tracemalloc peak of each diagnostic beyond what it returns, against one
    (M+1) x N float64 matrix; _PEAK_LIMITS names the exceptions."""
    traj = long_smooth_traj_128
    diag = _ROW_WISE_DIAGNOSTICS[name]
    diag(traj)  # lazy imports and first-call caches are not the diagnostic's
    matrix = len(traj) * traj.grid.N * 8
    tracemalloc.start()
    try:
        result = diag(traj)  # held, so that what it returns counts as kept
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < _PEAK_LIMITS.get(name, 0.25) * matrix


def test_streamed_verify_keeps_no_trajectory():
    """verify feeds the identity suite each state as the solver makes it, so
    beyond the solver's own tracemalloc peak it holds O(N) arrays and O(M)
    series: less than a quarter of one (M+1) x N matrix, where a kept
    trajectory alone is two (long_smooth_traj_128's config)."""
    sc = replace(scenario_named("smooth-bump"), T=2.0, levels=(128,))
    config = cli.RunConfig(scenario=sc)

    def verify() -> None:
        assert cli._verify(config, io.StringIO()) == 0

    assert sc.grid_for(128).M_steps == 256
    assert peak_beyond_the_solver(sc, verify) < 0.25


# ======================================================================
# the diagnostics check the scheme the solver solves
# ======================================================================


@pytest.mark.parametrize("name", ["riemann-like", "smooth-bump"])
def test_diagnostics_use_the_solvers_own_scheme_pieces(name, monkeypatch):
    """The continuity residual, face momentum and momentum convection the
    diagnostics evaluate are bit for bit the ones the stepper's residual
    evaluates, on every step; its momentum residual is the operators' pieces,
    the pressure gradient included, summed in one fixed order."""
    traj = solve_level(scenario_named(name), 16)
    seen: dict[str, list] = {
        "continuity_residual": [], "face_momentum": [], "momentum_convection": [],
    }
    for attr, calls in seen.items():

        def spy(*args, original=getattr(diagnostics, attr), calls=calls):
            calls.append(original(*args))
            return calls[-1]

        monkeypatch.setattr(diagnostics, attr, spy)
    diagnostics.positivity_report(traj)
    ledger_of(traj)

    g, pp, states = traj.grid, traj.params, traj.states
    assert len(seen["continuity_residual"]) == len(states) - 1 >= 4
    assert len(seen["momentum_convection"]) == len(states) - 1
    for k, (cont, conv) in enumerate(
        zip(seen["continuity_residual"], seen["momentum_convection"]), start=1
    ):
        solver = assemble_residual(states[k - 1], states[k], g, pp)
        assert cont.tobytes() == solver.cont.tobytes()
        rho, u = states[k].rho, states[k].u
        m = rho * hat(u)
        solver_conv = momentum_convection(upwind_flux(m, *split_upwind(u)), g.dx)
        assert conv.tobytes() == solver_conv.tobytes()
        mom = (
            (face_momentum(m) - _old_fields(states[k - 1])[1]) / g.dt
            + solver_conv
            + pressure_gradient(pp.pressure(rho), g.dx)
            - laplace_velocity(u, g.dx, pp.mu)
        )
        assert mom.tobytes() == solver.mom.tobytes()
    assert len(seen["face_momentum"]) == len(states)
    for k, w in enumerate(seen["face_momentum"]):
        assert w.tobytes() == _old_fields(states[k])[1].tobytes()


def test_identity_check_bounds_are_the_contract(smooth_traj_32):
    """Each budget the identity suite applies is the stated formula in tol."""
    traj = smooth_traj_32
    tol = max(m.tol for m in traj.solver_meta)
    steps = len(traj) - 1
    gamma = traj.params.gamma
    z = np.linspace(float(np.min(traj.rho_matrix)), float(np.max(traj.rho_matrix)), 4097)

    def renorm_bound(deriv) -> float:
        return 10.0 * tol * float(np.max(np.abs(deriv(z))))

    expected = [
        ("step residual max-norm", tol),
        ("mass drift (relative)", 1e-12 * steps),
        ("energy balance (fraction of tolerance)", 1.0),
        ("numerical diffusion negativity", 1e-12),
        ("renormalized continuity [square]", renorm_bound(lambda z: 2.0 * z)),
        (f"renormalized continuity [power-{gamma:g}]",
         renorm_bound(lambda z: gamma * z ** (gamma - 1.0))),
        ("renormalized continuity [zlogz]", renorm_bound(lambda z: 1.0 + np.log(z))),
        ("flux identity gap", 100.0 * tol * steps),
    ] + [
        (f"weak {eq} self-consistency [sin{j}]", 1e-8)
        for j in (1, 2, 3)
        for eq in ("continuity", "momentum")
    ]
    checks = suite_of(traj).checks()
    assert [c.name for c in checks] == [name for name, _ in expected]
    for check, (_, bound) in zip(checks, expected):
        assert check.bound == pytest.approx(bound, rel=1e-12), check.name
        assert check.passed == (check.value <= check.bound)
    assert all(c.passed for c in checks)


def test_identity_checks_take_renorm_residuals_max_norm(smooth_traj_32):
    """Taken one step at a time, each renormalized check is still the
    max-norm of renorm_residual's whole field, bit for bit."""
    traj = smooth_traj_32
    renorm = [c for c in suite_of(traj).checks()
              if c.name.startswith("renormalized continuity")]
    Bs = (diagnostics.b_square(), diagnostics.b_power(traj.params.gamma), diagnostics.b_zlogz())
    assert [c.value for c in renorm] == [
        float(np.max(np.abs(diagnostics.renorm_residual(traj, B)))) for B in Bs
    ]


def test_identity_checks_fail_a_nan_renormalized_step(smooth_traj_32, monkeypatch):
    """A NaN in any one step's row fails its check; Python's max() would
    drop a NaN that follows a finite step."""
    row = diagnostics._Renorm.row
    steps: Counter = Counter()

    def with_nan(self, cur):
        out = row(self, cur)
        steps[self.B.name] += 1
        return np.full_like(out, np.nan) if steps[self.B.name] == 2 else out

    monkeypatch.setattr(diagnostics._Renorm, "row", with_nan)
    renorm = [c for c in suite_of(smooth_traj_32).checks()
              if c.name.startswith("renormalized continuity")]
    assert len(renorm) == 3
    assert all(np.isnan(c.value) and not c.passed for c in renorm)


def test_identity_checks_fail_a_nan_energy_step(smooth_traj_64, monkeypatch):
    """A NaN in one step's N2 fails the energy-balance and the
    diffusion-negativity checks; Python's max() and min() would drop it."""
    gaps = diagnostics._convexity_gaps
    calls = 0

    def with_nan(*args):
        nonlocal calls
        calls += 1
        time, right, left = gaps(*args)
        return time, (np.full_like(right, np.nan) if calls > 4 else right), left

    monkeypatch.setattr(diagnostics, "_convexity_gaps", with_nan)
    checks = {c.name: c for c in suite_of(smooth_traj_64).checks()}
    for name in ("energy balance (fraction of tolerance)", "numerical diffusion negativity"):
        assert np.isnan(checks[name].value) and not checks[name].passed, name


def checks_from_public_functions(traj: grid.Trajectory) -> list[tuple[str, float, float]]:
    """The identity suite's (name, value, bound), each taken from the standalone
    public diagnostic that defines it, reduced over whole series."""
    tol = diagnostics.effective_newton_tol(traj)
    steps = len(traj) - 1
    ledger = diagnostics.energy_ledger(traj)
    budgets = np.array([diagnostics.energy_budget(tol, m) for m in range(1, steps + 1)])
    lo, hi = float(np.min(traj.rho_matrix)), float(np.max(traj.rho_matrix))
    rows = [
        ("step residual max-norm", max(m.residual_norm for m in traj.solver_meta), tol),
        ("mass drift (relative)", mass_drift(traj), 1e-12 * steps),
        ("energy balance (fraction of tolerance)",
         float(np.max(ledger.balance_residual[1:] / budgets)), 1.0),
        ("numerical diffusion negativity",
         -float(np.min([np.min(ledger.step_increments(k)) for k in ("N1", "N2", "N3", "N4")])),
         1e-12),
    ]
    for B in (diagnostics.b_square(), diagnostics.b_power(traj.params.gamma),
              diagnostics.b_zlogz()):
        rows.append((f"renormalized continuity [{B.name}]",
                     float(np.max(np.abs(diagnostics.renorm_residual(traj, B)))),
                     10.0 * tol * diagnostics.sup_abs_deriv(B, lo, hi)))
    rows.append(("flux identity gap", abs(ledger_of(traj).identity_gap),
                 diagnostics.energy_budget(tol, steps)))
    for j in (1, 2, 3):
        lw, p1 = diagnostics.weak_residual_continuity(traj, j)
        rows.append((f"weak continuity self-consistency [sin{j}]", abs(lw - p1), 1e-8))
        lw, p2 = diagnostics.weak_residual_momentum(traj, j)
        rows.append((f"weak momentum self-consistency [sin{j}]", abs(lw - p2), 1e-8))
    return rows


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("name", [sc.name for sc in harness.builtin_scenarios()])
def test_one_walk_suite_equals_the_public_functions(name, n, kept_runs):
    """The suite's one shared walk gives every check bit for bit as the
    standalone functions do, and positivity_report's series."""
    traj = kept_runs[(name, n)]

    def bits(rows):
        return [(nm, float(v).hex(), float(b).hex()) for nm, v, b in rows]

    suite = suite_of(traj)
    assert bits((c.name, c.value, c.bound) for c in suite.checks()) == bits(
        checks_from_public_functions(traj))
    ours, theirs = suite.positivity(), diagnostics.positivity_report(traj)
    for name in ("min_rho", "bound", "margin", "divergence_bound", "divergence_margin"):
        assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes(), name


@pytest.mark.parametrize("levels", [0, 1, 4])
def test_identity_suite_refuses_a_run_with_steps_missing(smooth_traj_32, levels):
    """A suite over a grid of 8 steps that walks a run cut short raises,
    where its series' unwritten entries would otherwise enter the checks."""
    traj = smooth_traj_32
    assert traj.grid.M_steps == 8
    suite = diagnostics.IdentitySuite(traj.grid, traj.params,
                                      itertools.islice(marched(traj), levels))
    walked = f"declared for 8 steps, but {max(levels - 1, 0)} were walked"
    for report in (suite.checks, suite.positivity):
        with pytest.raises(ValueError, match=walked):
            report()


def test_identity_suite_refuses_a_run_longer_than_its_grid(smooth_traj_32):
    """A run past the grid's last step raises ValueError before the state
    past it is walked, where it would index past the series' ends."""
    traj = smooth_traj_32
    grid_4 = replace(traj.grid, T=traj.grid.T / 2)
    assert grid_4.M_steps == 4 and len(traj) - 1 == 8
    with pytest.raises(ValueError, match="declared for 4 steps, but has more"):
        diagnostics.IdentitySuite(grid_4, traj.params, marched(traj))


def norms_by_loop(traj: grid.Trajectory) -> dict[str, float]:
    """norm_suite as one loop over the kept states, each array from its own
    expression: the reference for the _Norms accumulator."""
    g, pp = traj.grid, traj.params
    dt, dx, gamma = g.dt, g.dx, pp.gamma
    r = 2.0 * gamma / (gamma + 1.0)
    sum_rho_g, sum_p, sum_mom_r, sum_kin = (np.empty(len(traj)) for _ in range(4))
    h1_sq = linf_sq = ru_g = ru2_r = 0.0
    for k, state in enumerate(traj.states):
        rho, u = state.rho, state.u
        hat_u = hat(u)
        rho_g = rho**gamma
        sum_rho_g[k] = np.sum(rho_g)
        sum_p[k] = np.sum(pp.pressure(rho))
        sum_mom_r[k] = np.sum(np.abs(rho * hat_u) ** r)
        sum_kin[k] = np.sum(rho * hat_u**2)
        if k == 0:
            continue
        h1_sq += dt * (diagnostics.linear_l2_sq(u, dx) + float(np.sum(np.diff(u) ** 2)) / dx)
        linf_sq += dt * float(np.max(np.abs(u))) ** 2
        slope = np.diff(u) / dx
        ru_g += dt * float(np.sum(rho_g * _int_abs_linear_pow(u[:-1], slope, dx, gamma))) ** (
            2.0 / gamma)
        ru2_r += dt * float(np.sum(rho**r * _int_abs_linear_pow(u[:-1], slope, dx, 2.0 * r))) ** (
            2.0 / r)
    return {
        "rho_Linf_Lgamma": float(np.max((dx * sum_rho_g) ** (1.0 / gamma))),
        "pressure_Linf_L1": float(np.max(dx * sum_p)),
        "momentum_Linf_Lr": float(np.max((dx * sum_mom_r) ** (1.0 / r))),
        "kinetic_Linf_L1": float(np.max(dx * sum_kin)),
        "u_L2_H1": math.sqrt(h1_sq),
        "u_L2_Linf": math.sqrt(linf_sq),
        "rho_u_L2_Lgamma": math.sqrt(ru_g),
        "rho_u2_L2_Lr": math.sqrt(ru2_r),
    }


def summary_from_public_functions(traj: grid.Trajectory) -> dict:
    """level_summary's row, each value from the standalone public diagnostic
    that defines it (one walk each), and the norms from norms_by_loop."""
    steps = len(traj) - 1
    ledger = ledger_of(traj)
    return {
        "N": traj.grid.N,
        "steps": steps,
        "fallback_steps": sum(m.fallback_used for m in traj.solver_meta),
        "mass_drift_rel": mass_drift(traj),
        "energy_balance_max": float(np.max(diagnostics.energy_ledger(traj).balance_residual)),
        "energy_tol": diagnostics.energy_budget(diagnostics.effective_newton_tol(traj), steps),
        "positivity_margin_min": diagnostics.positivity_report(traj).worst_margin,
        "h": traj.grid.dx,
        "E1": abs(ledger.E1),
        "E2": abs(ledger.E2),
        "P1": abs(diagnostics.weak_residual_continuity(traj, 1)[1]),
        "P2": abs(diagnostics.weak_residual_momentum(traj, 2)[1]),
        "rho_gamma_plus_1": diagnostics.rho_power_integral(traj),
        "flux_identity_gap": abs(ledger.identity_gap),
        **norms_by_loop(traj),
    }


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("name", [sc.name for sc in harness.builtin_scenarios()])
def test_level_summary_is_one_walk_of_the_public_functions(
    name, n, kept_runs, levels_built
):
    """A level's row derives each time level's arrays once (the rows of its
    _Level blocks add up to the levels), and every value is bit for bit what
    the standalone functions give."""
    traj = kept_runs[(name, n)]
    row = diagnostics.level_summary(traj.grid, traj.params, marched(traj))
    assert levels_built() == len(traj) > 1

    def bits(summary: dict) -> list[tuple[str, str]]:
        return [(key, float(value).hex()) for key, value in summary.items()]

    assert bits(row) == bits(summary_from_public_functions(traj))


@pytest.mark.parametrize("name", [sc.name for sc in harness.builtin_scenarios()])
def test_level_walks_do_not_depend_on_the_block_length(name, kept_runs, monkeypatch):
    """level_summary and cauchy_differences give the same bits in blocks of
    one level, of three (a length that leaves partial blocks) and of the
    default length."""
    coarse, fine = kept_runs[(name, 64)], kept_runs[(name, 128)]

    def bits() -> list[str]:
        rows = [diagnostics.level_summary(traj.grid, traj.params, marched(traj)) for traj in (coarse, fine)]
        values = [v for row in rows for v in row.values()]
        return [float(v).hex() for v in (*values, *harness.cauchy_differences(coarse, fine))]

    default = bits()
    for length in (1, 3):
        monkeypatch.setattr(diagnostics, "_LEVEL_BLOCK", length)
        assert bits() == default, length
