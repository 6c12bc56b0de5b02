"""Exact-identity ledgers, weak residuals, norms, and observed rates."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.integrate

from visco1d import diagnostics, grid, harness, stepper
from visco1d.diagnostics import _int_abs_linear_pow
from visco1d.operators import diff_cell, hat, split_upwind, upwind_flux
from visco1d.stepper import _old_fields, assemble_residual

from conftest import constant_state, scenario_named, solve_level, with_levels


def synthetic_trajectory(states, L=1.0, params=None) -> grid.Trajectory:
    """Wrap hand-built states (dt = dx) without running the solver."""
    n = states[0].rho.size
    g = grid.GridSpec(L=L, N=n, dt=L / n, T=(len(states) - 1) * L / n)
    return grid.Trajectory(
        grid=g,
        params=params or grid.PhysParams(),
        states=tuple(states),
    )


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
    led = diagnostics.flux_ledger(traj)
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
    led = diagnostics.flux_ledger(synthetic_trajectory(states))
    assert led.E1 == 0.0
    assert led.E2 == 0.0
    # lhs reduces to the pressure term, which is genuinely nonzero here
    assert led.lhs != 0.0
    assert abs(led.identity_gap) > 0.0  # residual slack: this is not a solution


def test_flux_identity_closes_on_solved_run(smooth_traj_32):
    steps = len(smooth_traj_32) - 1
    tol = diagnostics.effective_newton_tol(smooth_traj_32)
    for m in (max(1, steps // 2), steps):
        led = diagnostics.flux_ledger(smooth_traj_32, m)
        assert abs(led.identity_gap) <= 100.0 * tol * m
        assert abs(led.pairing_gap) <= 100.0 * tol * m
        assert abs(led.decomposition_gap) <= 1e-12


def test_flux_ledger_rhs_terms_schema(smooth_traj_32):
    led = diagnostics.flux_ledger(smooth_traj_32)
    assert set(led.rhs_terms) == {"mean_flux", "boundary", "E1", "E2"}
    assert led.rhs_terms["boundary"] == pytest.approx(
        led.boundary_terminal + led.boundary_initial
    )
    assert led.rhs_total == pytest.approx(sum(led.rhs_terms.values()))


def test_flux_ledger_checkpoint_must_be_valid(smooth_traj_32):
    with pytest.raises(ValueError):
        diagnostics.flux_ledger(smooth_traj_32, 0)
    with pytest.raises(ValueError):
        diagnostics.flux_ledger(smooth_traj_32, len(smooth_traj_32))


# ======================================================================
# weak residuals
# ======================================================================


def test_weak_residual_zero_test_function(smooth_traj_32):
    zero = diagnostics.TestFunction(
        space=np.zeros_like, space_deriv=np.zeros_like, time=np.ones_like, name="zero"
    )
    assert diagnostics.weak_residual_continuity(smooth_traj_32, zero) == (0.0, 0.0)
    assert diagnostics.weak_residual_momentum(smooth_traj_32, zero) == (0.0, 0.0)


def test_weak_residual_steady_constant_state(constant_traj):
    phi = diagnostics.default_test_functions(1.0, constant_traj.grid.T)[0]
    lhs, p1 = diagnostics.weak_residual_continuity(constant_traj, phi)
    assert lhs == pytest.approx(0.0, abs=1e-15)
    assert p1 == pytest.approx(0.0, abs=1e-15)
    lhs2, p2 = diagnostics.weak_residual_momentum(constant_traj, phi)
    assert lhs2 == pytest.approx(0.0, abs=1e-15)
    assert p2 == pytest.approx(0.0, abs=1e-15)


def test_weak_residual_rejects_bad_test_functions(smooth_traj_32):
    T = smooth_traj_32.grid.T
    not_zero_at_T = diagnostics.TestFunction(
        space=np.ones_like, space_deriv=np.zeros_like, time=np.ones_like, name="one"
    )
    with pytest.raises(ValueError):
        diagnostics.weak_residual_continuity(smooth_traj_32, not_zero_at_T)
    not_zero_at_wall = diagnostics.TestFunction(
        space=lambda x: np.cos(np.pi * x),
        space_deriv=lambda x: -np.pi * np.sin(np.pi * x),
        time=lambda t: (1.0 - t / T) ** 2,
        name="cos",
    )
    with pytest.raises(ValueError):
        diagnostics.weak_residual_momentum(smooth_traj_32, not_zero_at_wall)


def test_weak_self_consistency(smooth_traj_32):
    for fn in diagnostics.default_test_functions(1.0, smooth_traj_32.grid.T):
        lhs, p1 = diagnostics.weak_residual_continuity(smooth_traj_32, fn)
        assert abs(lhs - p1) <= 1e-8
        lhs2, p2 = diagnostics.weak_residual_momentum(smooth_traj_32, fn)
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
    for fn in diagnostics.default_test_functions(traj.grid.L, traj.grid.T):
        got = (diagnostics.weak_residual_continuity(traj, fn)
               + diagnostics.weak_residual_momentum(traj, fn))
        ref = reference_weak_residuals(
            traj, fn.value, lambda t, x, fn=fn: fn.space_deriv(x) * fn.time(t)
        )
        assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-14, fn.name
        assert abs(ref[1]) > 1e-6 or abs(ref[3]) > 1e-6, fn.name  # not a trivial zero


@pytest.mark.parametrize(
    "residual", [diagnostics.weak_residual_continuity, diagnostics.weak_residual_momentum]
)
def test_weak_residuals_call_the_test_function_once_per_level(residual, smooth_traj_32):
    """The number of test-function calls does not grow with the number of windows."""
    short = synthetic_trajectory(smooth_traj_32.states[:3])
    calls = []
    for traj in (short, smooth_traj_32):
        fn = diagnostics.default_test_functions(traj.grid.L, traj.grid.T, js=(2,))[0]
        mocks = [mock.Mock(side_effect=f) for f in (fn.space, fn.space_deriv, fn.time)]
        residual(traj, diagnostics.TestFunction(*mocks))
        calls.append([m.call_count for m in mocks])
    assert len(smooth_traj_32) - 1 > 2 * (len(short) - 1)
    assert calls[0] == calls[1]


def test_p1_shrinks_under_refinement(smooth_ladder):
    phi = diagnostics.default_test_functions(1.0, smooth_ladder[64].grid.T, js=(1,))[0]
    mags = [
        abs(diagnostics.weak_residual_continuity(smooth_ladder[n], phi)[1])
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
    sc = scenario_named("constant")
    g = grid.GridSpec(L=1.0, N=8, dt=0.01, T=0.05)
    odd = stepper.run(sc, g, sc.params)
    good = [solve_level(sc, n) for n in (8, 16, 32)]
    with pytest.raises(ValueError):
        diagnostics.error_rates([odd, good[1], good[2]])


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


def _probes(tr):
    return diagnostics.default_test_functions(tr.grid.L, tr.grid.T)


_ROW_WISE_DIAGNOSTICS = {
    "energy_ledger": lambda tr: diagnostics.energy_ledger(tr),
    "norm_suite": lambda tr: diagnostics.norm_suite(tr),
    "renorm_residual":
        lambda tr: diagnostics.renorm_residual(tr, diagnostics.b_power(tr.params.gamma)),
    "positivity_report": lambda tr: diagnostics.positivity_report(tr),
    "weak_residual_continuity": lambda tr: diagnostics.weak_residual_continuity(tr, _probes(tr)[0]),
    "weak_residual_momentum": lambda tr: diagnostics.weak_residual_momentum(tr, _probes(tr)[1]),
    "mass_history": lambda tr: diagnostics.mass_history(tr),
    "mass_drift": lambda tr: diagnostics.mass_drift(tr),
    "flux_ledger": lambda tr: diagnostics.flux_ledger(tr),
    # One flattened sum over every window, so it holds one (M, N) array.
    "rho_power_integral": lambda tr: diagnostics.rho_power_integral(tr),
}
_STACK_FREE = {
    **_ROW_WISE_DIAGNOSTICS,
    "identity_checks": lambda tr: diagnostics.identity_checks(tr),
    "harness._level_summary": lambda tr: harness._level_summary(
        tr, *diagnostics.probe_test_functions(tr.grid.L, tr.grid.T)
    ),
}


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
    (M+1) x N float64 matrix; rho_power_integral is the one exception."""
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
    limit = 1.25 * matrix if name == "rho_power_integral" else 0.25 * matrix
    assert peak - kept < limit


# ======================================================================
# the diagnostics check the scheme the solver solves
# ======================================================================


@pytest.mark.parametrize("name", ["riemann-like", "smooth-bump"])
def test_diagnostics_use_the_solvers_own_scheme_pieces(name, monkeypatch):
    """The continuity residual and face momentum the diagnostics evaluate are
    bit for bit the ones the stepper's residual evaluates, on every step."""
    traj = solve_level(scenario_named(name), 16)
    seen: dict[str, list] = {"continuity_residual": [], "face_momentum": []}
    for attr, calls in seen.items():

        def spy(*args, original=getattr(diagnostics, attr), calls=calls):
            calls.append(original(*args))
            return calls[-1]

        monkeypatch.setattr(diagnostics, attr, spy)
    diagnostics.positivity_report(traj)
    diagnostics.flux_ledger(traj)

    g, pp, states = traj.grid, traj.params, traj.states
    assert len(seen["continuity_residual"]) == len(states) - 1 >= 4
    for k, cont in enumerate(seen["continuity_residual"], start=1):
        solver = assemble_residual(states[k - 1], states[k], g, pp).cont
        assert cont.tobytes() == solver.tobytes()
    assert len(seen["face_momentum"]) == len(states)
    for k, w in enumerate(seen["face_momentum"]):
        assert w.tobytes() == _old_fields(states[k])[1].tobytes()


def test_identity_check_bounds_are_the_contract(smooth_traj_32):
    """Each budget identity_checks applies is the stated formula in tol."""
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
    checks = diagnostics.identity_checks(traj)
    assert [c.name for c in checks] == [name for name, _ in expected]
    for check, (_, bound) in zip(checks, expected):
        assert check.bound == pytest.approx(bound, rel=1e-12), check.name
        assert check.passed == (check.value <= check.bound)
    assert all(c.passed for c in checks)
