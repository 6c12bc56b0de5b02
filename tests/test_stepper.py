"""Implicit step: residual assembly, Jacobian, Newton solve, trajectories."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from visco1d import diagnostics, grid, operators, stepper
from visco1d.operators import face_momentum, hat, split_upwind, upwind_flux
from visco1d.stepper import _band_lu, _jacobian_ab, advance, assemble_jacobian, assemble_residual

from conftest import constant_state, scenario_named, solve_level


def _params(**kw) -> grid.PhysParams:
    base = dict(a=1.0, gamma=5.0 / 3.0, mu=1.0)
    base.update(kw)
    return grid.PhysParams(**base)


# ======================================================================
# residual assembly
# ======================================================================


def test_residual_zero_at_constant_steady_state():
    g = grid.GridSpec(L=1.0, N=6, dt=1.0 / 6.0, T=1.0)
    st = constant_state(6, rho=2.5)
    res = assemble_residual(st, st, g, _params())
    assert res.max_norm == 0.0


def test_residual_frozen_small_perturbation():
    """N=2 hand expansion: interior velocity eps against flat unit density."""
    eps = 1e-3
    g = grid.GridSpec(L=1.0, N=2, dt=0.5, T=0.5)
    prev = constant_state(2)
    trial = grid.FluidState(rho=np.array([1.0, 1.0]), u=np.array([0.0, eps, 0.0]))
    res = assemble_residual(prev, trial, g, _params())
    np.testing.assert_allclose(res.cont, [eps / g.dx, -eps / g.dx], rtol=1e-13)
    mom_expected = eps / (2.0 * g.dt) + 2.0 * _params().mu * eps / g.dx**2
    np.testing.assert_allclose(res.mom, [mom_expected], rtol=1e-13)


def test_residual_viscous_term_linear_in_mu():
    g = grid.GridSpec(L=1.0, N=4, dt=0.25, T=0.25)
    rng = np.random.default_rng(5)
    prev = constant_state(4)
    u = np.zeros(5)
    u[1:-1] = 0.1 * rng.standard_normal(3)
    trial = grid.FluidState(rho=np.array([1.1, 0.9, 1.2, 0.8]), u=u)
    full = assemble_residual(prev, trial, g, _params(mu=2.0))
    tiny = assemble_residual(prev, trial, g, _params(mu=1e-12))
    lap = operators.laplace_velocity(u, g.dx)
    np.testing.assert_allclose(full.mom - tiny.mom, -2.0 * lap, rtol=1e-9, atol=1e-12)
    np.testing.assert_array_equal(full.cont, tiny.cont)


def test_momentum_residual_is_the_inline_scheme():
    """The residual's viscous term comes from laplace_velocity without a rounding change."""
    rng = np.random.default_rng(41)
    for n in range(2, 65, 3):
        g = grid.GridSpec(L=1.0, N=n, dt=1.0 / n, T=1.0)
        pp = _params(mu=rng.uniform(0.01, 2.0), gamma=rng.uniform(1.2, 2.5))
        prev, trial = _random_state(rng, n), _random_state(rng, n)
        rho, u, dt, dx = trial.rho, trial.u, g.dt, g.dx
        w_old = face_momentum(prev.rho * hat(prev.u))
        m = rho * hat(u)
        mflux = upwind_flux(m, *split_upwind(u))
        p = pp.pressure(rho)
        inline = (
            (face_momentum(m) - w_old) / dt
            + (mflux[2:] - mflux[:-2]) / (2.0 * dx)
            + (p[1:] - p[:-1]) / dx
            - pp.mu * (u[:-2] - 2.0 * u[1:-1] + u[2:]) / dx**2
        )
        assert assemble_residual(prev, trial, g, pp).mom.tobytes() == inline.tobytes()


# ======================================================================
# Jacobian
# ======================================================================


def _fd_jacobian(prev, trial, g, params, step=1e-7):
    """Central finite differences of the interleaved residual vector."""
    n = g.N
    size = 2 * n - 1

    def unpack(z):
        rho = trial.rho.copy()
        u = trial.u.copy()
        rho[:] = z[0::2]
        u[1:-1] = z[1::2]
        return grid.FluidState(rho=rho, u=u)

    def resvec(z):
        r = assemble_residual(prev, unpack(z), g, params)
        out = np.empty(size)
        out[0::2] = r.cont
        out[1::2] = r.mom
        return out

    z0 = np.empty(size)
    z0[0::2] = trial.rho
    z0[1::2] = trial.u[1:-1]
    jac = np.empty((size, size))
    for j in range(size):
        h = step * max(1.0, abs(z0[j]))
        zp, zm = z0.copy(), z0.copy()
        zp[j] += h
        zm[j] -= h
        jac[:, j] = (resvec(zp) - resvec(zm)) / (2.0 * h)
    return jac


def _random_state(rng, n):
    rho = rng.uniform(0.3, 3.0, size=n)
    u = np.zeros(n + 1)
    # keep |u| away from the upwind kink at 0 so FD comparison is fair
    mags = rng.uniform(0.05, 1.0, size=n - 1)
    u[1:-1] = np.where(rng.random(n - 1) < 0.5, -mags, mags)
    return grid.FluidState(rho=rho, u=u)


def test_jacobian_matches_finite_differences_sample():
    rng = np.random.default_rng(123)
    g = grid.GridSpec(L=1.0, N=6, dt=1.0 / 6.0, T=1.0)
    pp = _params(mu=0.4)
    for _ in range(25):
        prev = _random_state(rng, g.N)
        trial = _random_state(rng, g.N)
        jac = assemble_jacobian(prev, trial, g, pp).toarray()
        fd = _fd_jacobian(prev, trial, g, pp)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(jac - fd) / scale) < 1e-6


def test_jacobian_trivial_entries():
    g = grid.GridSpec(L=1.0, N=4, dt=0.25, T=0.25)
    pp = _params(a=2.0, gamma=1.8)
    st = constant_state(4, rho=1.5)
    jac = assemble_jacobian(st, st, g, pp).toarray()
    # continuity diagonal at u == 0 is the bare time derivative 1/dt
    for i in range(4):
        assert jac[2 * i, 2 * i] == pytest.approx(1.0 / g.dt)
    # pressure block: d mom_f / d rho_right = +a*gamma*rho^(gamma-1)/dx
    expected = pp.a * pp.gamma * 1.5 ** (pp.gamma - 1.0) / g.dx
    for f in range(1, 4):
        row = 2 * f - 1
        assert jac[row, 2 * f] == pytest.approx(expected + 1.5 / (4 * g.dt) * 0.0, rel=1e-12)


def test_jacobian_bandwidth_respects_interleaving():
    g = grid.GridSpec(L=1.0, N=8, dt=0.125, T=0.125)
    rng = np.random.default_rng(9)
    st = _random_state(rng, 8)
    jac = assemble_jacobian(st, st, g, _params()).toarray()
    rows, cols = np.nonzero(jac)
    assert np.max(np.abs(rows - cols)) <= 4


def _unpack_band(ab):
    """Dense matrix of a solve_banded (4, 4) band: ab[4 + r - c, c] -> A[r, c]."""
    size = ab.shape[1]
    dense = np.zeros((size, size))
    for d in range(ab.shape[0]):
        for c in range(size):
            r = c + d - 4
            if 0 <= r < size:
                dense[r, c] = ab[d, c]
    return dense


def test_band_jacobian_is_the_csr_jacobian():
    """Newton's band and assemble_jacobian agree exactly, outer diagonals included."""
    rng = np.random.default_rng(31)
    pp = _params(mu=0.7)
    outer = set()
    for n in range(2, 9):
        g = grid.GridSpec(L=1.0, N=n, dt=1.0 / n, T=1.0)
        for _ in range(6):
            rho = rng.uniform(0.3, 3.0, size=n)
            u = np.zeros(n + 1)
            u[1:-1] = rng.uniform(-1.0, 1.0, size=n - 1)
            u[1:-1][rng.random(n - 1) < 0.3] = 0.0  # exact upwind kinks
            st = grid.FluidState(rho=rho, u=u)
            ab = _jacobian_ab(st.rho, st.u, g, pp)
            assert ab.shape == (9, 2 * n - 1)
            dense = _unpack_band(ab)
            csr = assemble_jacobian(st, st, g, pp).toarray()
            np.testing.assert_array_equal(dense, csr)
            rows, cols = np.nonzero(dense)
            outer.update(int(d) for d in 4 + rows - cols if d in (0, 8))
    assert outer == {0, 8}


def test_lapack_band_solve_is_solve_banded():
    """Newton's dgbtrf + dgbtrs give solve_banded's bits on the (4, 4) band."""
    rng = np.random.default_rng(29)
    pp = _params(mu=0.3)
    for n in (2, 3, 4, 5, 8, 17, 33, 64):
        g = grid.GridSpec(L=1.0, N=n, dt=1.0 / n, T=1.0)
        for _ in range(5):
            rho = rng.uniform(0.3, 3.0, size=n)
            u = np.zeros(n + 1)
            u[1:-1] = rng.uniform(-1.0, 1.0, size=n - 1)
            u[1:-1][rng.random(n - 1) < 0.3] = 0.0  # exact upwind kinks
            b = rng.standard_normal(2 * n - 1)
            lu, piv, info = _band_lu(rho, u, g, pp)
            assert info == 0
            x, _ = scipy.linalg.lapack.dgbtrs(lu, 4, 4, b, piv)
            ref = scipy.linalg.solve_banded((4, 4), _jacobian_ab(rho, u, g, pp), b)
            assert x.tobytes() == ref.tobytes()


def test_finite_difference_jacobian_vanishes_outside_the_band():
    rng = np.random.default_rng(17)
    pp = _params(mu=0.4)
    for n in (4, 7):
        g = grid.GridSpec(L=1.0, N=n, dt=1.0 / n, T=1.0)
        fd = _fd_jacobian(_random_state(rng, n), _random_state(rng, n), g, pp)
        r, c = np.indices(fd.shape)
        assert np.all(fd[np.abs(r - c) > 4] == 0.0)


# ======================================================================
# advance
# ======================================================================


def test_advance_constant_state_one_iteration():
    g = grid.GridSpec(L=1.0, N=8, dt=0.125, T=0.125)
    st = constant_state(8, rho=1.7)
    out, meta = advance(st, g, _params())
    np.testing.assert_array_equal(out.rho, st.rho)
    np.testing.assert_array_equal(out.u, st.u)
    assert meta.iterations == 1
    assert meta.factorizations == 0
    assert not meta.fallback_used


def test_advance_conserves_mass_exactly():
    sc = scenario_named("smooth-bump")
    g = sc.grid_for(16)
    prev = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    out, _ = advance(prev, g, sc.params)
    assert g.dx * out.rho.sum() == pytest.approx(g.dx * prev.rho.sum(), rel=1e-14)


def test_advance_matches_brute_force_n2_oracle():
    """Single interior face: compare against scipy.optimize on the raw system."""
    g = grid.GridSpec(L=1.0, N=2, dt=0.5, T=0.5)
    pp = _params(mu=0.3)
    prev = grid.FluidState(rho=np.array([1.4, 0.8]), u=np.array([0.0, 0.25, 0.0]))

    def raw_system(z):
        trial = grid.FluidState(rho=np.array([z[0], z[2]]), u=np.array([0.0, z[1], 0.0]))
        r = assemble_residual(prev, trial, g, pp)
        return [r.cont[0], r.mom[0], r.cont[1]]

    sol = scipy.optimize.root(raw_system, x0=[1.4, 0.25, 0.8], method="hybr", tol=1e-14)
    assert sol.success
    out, meta = advance(prev, g, pp)
    np.testing.assert_allclose([out.rho[0], out.u[1], out.rho[1]], sol.x, atol=5e-10)
    assert meta.residual_norm <= meta.tol


def test_advance_is_deterministic():
    sc = scenario_named("smooth-bump")
    g = sc.grid_for(16)
    prev = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    a1, _ = advance(prev, g, sc.params)
    a2, _ = advance(prev, g, sc.params)
    np.testing.assert_array_equal(a1.rho, a2.rho)
    np.testing.assert_array_equal(a1.u, a2.u)


def test_advance_respects_mirror_symmetry():
    """x -> L-x with u -> -u is a discrete symmetry of the scheme."""
    sc = scenario_named("smooth-bump")
    g = sc.grid_for(16)
    prev = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    out, _ = advance(prev, g, sc.params)
    mirror_prev = grid.FluidState(rho=prev.rho[::-1], u=-prev.u[::-1])
    mout, _ = advance(mirror_prev, g, sc.params)
    np.testing.assert_allclose(mout.rho, out.rho[::-1], atol=1e-12)
    np.testing.assert_allclose(mout.u, -out.u[::-1], atol=1e-12)


def test_advance_picard_fallback_reaches_tolerance():
    """Starve Newton (one iteration, no progress) and let the fallback finish."""
    sc = scenario_named("smooth-bump")
    g = sc.grid_for(8)
    prev = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    cfg = stepper.SolverConfig(max_newton_iters=1, fallback=4000)
    out, meta = advance(prev, g, sc.params, cfg)
    assert meta.fallback_used
    assert meta.residual_norm <= meta.tol
    ref, _ = advance(prev, g, sc.params)
    np.testing.assert_allclose(out.rho, ref.rho, atol=1e-7)


def test_zero_pivot_hands_over_to_fallback(monkeypatch):
    """An exactly singular Jacobian ends Newton; the fallback finishes the step."""
    sc = scenario_named("smooth-bump")
    g = sc.grid_for(8)
    prev = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    real = stepper._jacobian_ab

    def singular(*args):
        ab = real(*args)
        ab[:, 3] = 0.0  # a zero column of the matrix
        return ab

    monkeypatch.setattr(stepper, "_jacobian_ab", singular)
    out, meta = advance(prev, g, sc.params, stepper.SolverConfig(fallback=4000))
    assert meta.fallback_used
    assert meta.factorizations == 1
    assert meta.residual_norm <= meta.tol


def test_advance_enforces_the_positivity_floor(monkeypatch):
    sc = scenario_named("smooth-bump")
    g = sc.grid_for(8)
    prev = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    monkeypatch.setattr(stepper, "positivity_floor", lambda *args: 10.0)
    with pytest.raises(stepper.StepFailure, match="undercuts the provable positivity floor"):
        advance(prev, g, sc.params)


def test_non_finite_pressure_raises_step_failure():
    """An overflowing pressure makes the residual NaN; that must not pass as 0."""
    g = grid.GridSpec(L=1.0, N=16, dt=1.0 / 16.0, T=1.0 / 16.0)
    rho = np.where(np.arange(16) < 8, 3.0, 1.0)
    prev = grid.FluidState(rho=rho, u=np.zeros(17))
    pp = grid.PhysParams(gamma=1000.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(assemble_residual(prev, prev, g, pp).max_norm)
        with pytest.raises(stepper.StepFailure, match="non-finite") as err:
            advance(prev, g, pp)
    assert err.value.k == 1
    assert np.isnan(err.value.residual_history[-1])


def test_step_failure_survives_pickle():
    """A failure raised in a worker process must arrive whole in its parent."""
    exc = stepper.StepFailure("boom", 3, [1.0, 0.25], 0.5)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is stepper.StepFailure
    assert str(back) == str(exc)
    assert (back.message, back.k, back.residual_history, back.min_rho) == (
        "boom", 3, [1.0, 0.25], 0.5)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        stepper.SolverConfig(damping=0.0)
    with pytest.raises(ValueError):
        stepper.SolverConfig(damping=1.5)
    with pytest.raises(ValueError):
        stepper.SolverConfig(newton_tol=-1e-10)
    with pytest.raises(ValueError):
        stepper.SolverConfig(max_newton_iters=0)


# ======================================================================
# run
# ======================================================================


def test_run_zero_horizon_returns_initial_state_only():
    sc = scenario_named("smooth-bump")
    g = grid.GridSpec(L=1.0, N=8, dt=0.125, T=0.0)
    traj = stepper.run(sc, g, sc.params)
    assert len(traj) == 1
    assert traj.states[0].k == 0


@pytest.mark.parametrize("T", [0.0, 0.25], ids=["T0", "T0.25"])
def test_run_observer_sees_every_state_in_order(T):
    sc = scenario_named("smooth-bump")
    g = grid.GridSpec(L=1.0, N=16, dt=1.0 / 16, T=T)
    seen = []
    traj = stepper.run(sc, g, sc.params, observer=seen.append)
    assert len(seen) == len(traj.states) == (1 if T == 0 else 5)
    assert all(a is b for a, b in zip(seen, traj.states))


def test_run_observer_sees_only_accepted_states_before_a_failure(monkeypatch):
    step = stepper.advance

    def advance(prev, *args):
        if prev.k == 3:
            raise stepper.StepFailure("injected", 4, [1.0], 0.5)
        return step(prev, *args)

    monkeypatch.setattr(stepper, "advance", advance)
    sc = scenario_named("riemann-like")
    seen = []
    with pytest.raises(stepper.StepFailure, match="run aborted: injected"):
        stepper.run(sc, sc.grid_for(16), sc.params, observer=seen.append)
    assert [state.k for state in seen] == [0, 1, 2, 3]


def test_run_constant_scenario_all_states_identical(constant_traj):
    first = constant_traj.states[0]
    for st in constant_traj.states[1:]:
        np.testing.assert_array_equal(st.rho, first.rho)
        np.testing.assert_array_equal(st.u, first.u)


def test_run_requires_coupled_steps_by_default():
    sc = scenario_named("constant")
    g = grid.GridSpec(L=1.0, N=8, dt=0.01, T=0.1)  # dt != dx
    traj = stepper.run(sc, g, sc.params)
    assert traj.grid.dt_dx_coupled is False


def test_run_smooth_bump_mass_conservation_n64(smooth_traj_64):
    masses = diagnostics.mass_history(smooth_traj_64)
    assert np.max(np.abs(masses - masses[0])) / masses[0] <= 1e-11


def test_polish_reuses_the_newton_factors(smooth_traj_64):
    """Below newton_tol the polish solves with factors already in hand."""
    metas = smooth_traj_64.solver_meta
    assert not any(m.fallback_used for m in metas)
    for m in metas:
        assert m.factorizations <= m.iterations - 1
    assert sum(m.factorizations for m in metas) < sum(m.iterations - 1 for m in metas)


def test_run_is_bitwise_reproducible():
    sc = scenario_named("riemann-like")
    g = sc.grid_for(16)
    t1 = stepper.run(sc, g, sc.params)
    t2 = stepper.run(sc, g, sc.params)
    np.testing.assert_array_equal(t1.rho_matrix, t2.rho_matrix)
    np.testing.assert_array_equal(t1.u_matrix, t2.u_matrix)


def test_trajectory_states_satisfy_recorded_tolerance(smooth_traj_32):
    g, pp = smooth_traj_32.grid, smooth_traj_32.params
    for k in range(1, len(smooth_traj_32)):
        res = assemble_residual(
            smooth_traj_32.states[k - 1], smooth_traj_32.states[k], g, pp
        )
        assert res.max_norm <= smooth_traj_32.solver_meta[k - 1].tol
