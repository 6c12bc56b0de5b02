"""Implicit step: residual assembly, Jacobian, Newton solve, trajectories."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from visco1d import diagnostics, grid, harness, operators, stepper
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


def test_advance_continuation_fallback_reaches_tolerance():
    """Starve Newton (one iteration, no progress) and let the fallback finish
    within the default budget, in the 5 continuation steps it takes."""
    sc = scenario_named("smooth-bump")
    g = sc.grid_for(8)
    prev = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    cfg = stepper.SolverConfig(max_newton_iters=1)
    out, meta = advance(prev, g, sc.params, cfg)
    assert meta.fallback_used and meta.fallback_iterations == 5
    assert meta.residual_norm <= meta.tol
    ref, _ = advance(prev, g, sc.params)
    np.testing.assert_allclose(out.rho, ref.rho, atol=1e-7)


def test_zero_pivot_hands_over_to_fallback(monkeypatch):
    """An exact zero pivot in Newton's factorization ends Newton; the
    fallback, which factors its own band, finishes the step."""
    sc = scenario_named("smooth-bump")
    g = sc.grid_for(8)
    prev = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    real = stepper._band_lu
    monkeypatch.setattr(stepper, "_band_lu", lambda *args: (*real(*args)[:2], 1))
    out, meta = advance(prev, g, sc.params, stepper.SolverConfig())
    assert meta.fallback_used and meta.fallback_iterations == 5
    assert meta.factorizations == 1
    assert meta.residual_norm <= meta.tol


def test_a_jacobian_wrong_at_every_iterate_fails_the_step(monkeypatch):
    """The fallback builds its band from the same Jacobian as Newton, so a
    Jacobian wrong at every iterate (a zeroed column, which the added time
    diagonal no longer makes singular) leaves it without convergence too."""
    sc = scenario_named("smooth-bump")
    g = sc.grid_for(8)
    prev = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    real = stepper._jacobian_ab

    def singular(*args):
        ab = real(*args)
        ab[:, 3] = 0.0  # a zero column of the matrix
        return ab

    monkeypatch.setattr(stepper, "_jacobian_ab", singular)
    with pytest.raises(stepper.StepFailure, match="continuation exhausted its step budget"):
        advance(prev, g, sc.params, stepper.SolverConfig(fallback=50))


def test_a_zero_pivot_in_the_fallback_fails_the_step(monkeypatch):
    """Every LU factorization meets a zero pivot: Newton gives up, and the
    fallback raises at its first factorization."""
    sc = scenario_named("smooth-bump")
    g = sc.grid_for(8)
    prev = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    real = stepper.dgbtrf
    monkeypatch.setattr(stepper, "dgbtrf", lambda *args, **kw: (*real(*args, **kw)[:2], 1))
    with pytest.raises(stepper.StepFailure, match="continuation met a zero pivot") as err:
        advance(prev, g, sc.params)
    # Newton's evaluation at prev, which the fallback starts from.
    assert len(err.value.residual_history) == 1


def test_the_fallback_fails_the_step_once_its_budget_is_spent():
    """Starved Newton hands over to a fallback allowed two steps, which is too
    few: the step fails with the residual of each attempt in its history."""
    sc = scenario_named("smooth-bump")
    g = sc.grid_for(8)
    prev = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    cfg = stepper.SolverConfig(max_newton_iters=1, fallback=2)
    with pytest.raises(stepper.StepFailure, match="continuation exhausted its step budget") as err:
        advance(prev, g, sc.params, cfg)
    # Newton's one evaluation at prev, then the fallback's after each step.
    assert len(err.value.residual_history) == 3


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
        advance(prev, g, pp)  # under the suite's error::RuntimeWarning: no numpy warning
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
def test_march_yields_every_state_in_order(T):
    sc = scenario_named("smooth-bump")
    g = grid.GridSpec(L=1.0, N=16, dt=1.0 / 16, T=T)
    seen = [state for state, _ in stepper.march(sc, g, sc.params)]
    traj = stepper.run(sc, g, sc.params)
    assert len(seen) == len(traj.states) == (1 if T == 0 else 5)
    assert [state.k for state in seen] == list(range(len(seen)))


def test_march_yields_only_accepted_states_before_a_failure(monkeypatch):
    step = stepper.advance

    def advance(prev, *args):
        if prev.k == 3:
            raise stepper.StepFailure("injected", 4, [1.0], 0.5)
        return step(prev, *args)

    monkeypatch.setattr(stepper, "advance", advance)
    sc = scenario_named("riemann-like")
    seen = []
    with pytest.raises(stepper.StepFailure) as err:
        for state, _ in stepper.march(sc, sc.grid_for(16), sc.params):
            seen.append(state)
    assert [state.k for state in seen] == [0, 1, 2, 3]
    # The step's details appear once, not again inside the wrapped message.
    assert str(err.value) == (
        "run aborted: injected (step k=4, min rho=5.000000e-01, "
        "recent residual norms: [1.000e+00])"
    )


def test_march_yields_exactly_runs_states_and_metas():
    """run keeps what march yields: the initial state with no meta, then
    each accepted state with its step's StepMeta."""
    sc = scenario_named("riemann-like")
    g = sc.grid_for(32)
    traj = stepper.run(sc, g, sc.params)
    marched = list(stepper.march(sc, g, sc.params))
    assert len(marched) == len(traj) > 2
    assert marched[0][1] is None
    for (state, _), kept in zip(marched, traj.states):
        assert state.k == kept.k
        assert state.rho.tobytes() == kept.rho.tobytes()
        assert state.u.tobytes() == kept.u.tobytes()
    assert tuple(meta for _, meta in marched[1:]) == traj.solver_meta


def test_run_constant_scenario_all_states_identical(constant_traj):
    first = constant_traj.states[0]
    for st in constant_traj.states[1:]:
        np.testing.assert_array_equal(st.rho, first.rho)
        np.testing.assert_array_equal(st.u, first.u)


def test_run_requires_coupled_steps_by_default():
    """A scenario's levels run at dt = dx unless dt_over_dx says otherwise,
    and run itself takes whatever time step its grid gives."""
    sc = scenario_named("constant")
    assert sc.dt_over_dx == 1.0 and sc.grid_for(8).dt == sc.grid_for(8).dx
    g = grid.GridSpec(L=1.0, N=8, dt=0.01, T=0.1)  # dt != dx
    traj = stepper.run(sc, g, sc.params)
    assert traj.grid.dt == 0.01 and len(traj) == 11


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


def _bare_loop(sc, n: int) -> tuple[list, list]:
    """States and metas of advance() called step by step without a slot."""
    g = sc.grid_for(n)
    state = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    states, metas = [state], []
    for _ in range(g.M_steps):
        state, meta = advance(state, g, sc.params)
        states.append(state)
        metas.append(meta)
    return states, metas


def test_run_carries_the_last_factors_into_the_next_step(smooth_ladder):
    """run's first update of a step is a chord step with the previous step's factors."""
    sc = scenario_named("smooth-bump")
    counts = {"bare": [0, 0], "run": [0, 0]}  # factorizations, residual evaluations
    for n in (64, 128, 256):
        states, metas = _bare_loop(sc, n)
        traj = smooth_ladder[n]
        assert not any(m.fallback_used for m in traj.solver_meta)
        for key, ms in (("bare", metas), ("run", traj.solver_meta)):
            counts[key][0] += sum(m.factorizations for m in ms)
            counts[key][1] += sum(m.iterations for m in ms)
        for a, b in zip(states, traj.states):  # the carry changes the path, not the solution
            np.testing.assert_allclose(b.rho, a.rho, rtol=0, atol=1e-12)
            np.testing.assert_allclose(b.u, a.u, rtol=0, atol=1e-12)
    assert counts["run"][0] <= 0.75 * counts["bare"][0]
    assert counts["run"][1] <= 1.01 * counts["bare"][1]


def test_run_constant_scenario_never_factors(constant_traj):
    assert all(m.iterations == 1 for m in constant_traj.solver_meta)
    assert all(m.factorizations == 0 for m in constant_traj.solver_meta)


def _same_step(a, b) -> None:
    (state_a, meta_a), (state_b, meta_b) = a, b
    assert state_a.rho.tobytes() == state_b.rho.tobytes()
    assert state_a.u.tobytes() == state_b.u.tobytes()
    assert meta_a == meta_b


def _still_norm(state, g, params) -> float:
    """Residual max-norm of a step from ``state``, evaluated at ``state``."""
    return assemble_residual(state, state, g, params).max_norm


def test_an_empty_slot_steps_as_no_slot_and_receives_the_factors():
    """An empty slot starts from prev, and the step hands over its state,
    prev, its last factors and the residual norm at its state."""
    sc = scenario_named("smooth-bump")
    g = sc.grid_for(32)
    states, metas = _bare_loop(sc, 32)
    for prev, state, meta in zip(states, states[1:], metas):
        slot: list = []
        step = advance(prev, g, sc.params, None, slot)
        _same_step(step, (state, meta))
        assert not step[1].extrapolated
        (handover,) = slot
        assert handover.state is step[0] and handover.before is prev
        assert handover.factors[2] == 0
        assert handover.norm.hex() == _still_norm(state, g, sc.params).hex()


@pytest.mark.parametrize("how", ["fallback", "zero-pivot"])
def test_a_step_that_leaves_newton_empties_the_slot(monkeypatch, how):
    """After a fallback or a zero pivot, the next step starts from prev and
    factors at iterate 1."""
    sc = scenario_named("smooth-bump")
    g = sc.grid_for(8)
    slot: list = []
    s0 = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    s1, _ = advance(s0, g, sc.params, None, slot)
    assert len(slot) == 1 and slot[0].state is s1 and slot[0].before is s0
    if how == "fallback":
        cfg = stepper.SolverConfig(max_newton_iters=1)
    else:
        cfg = stepper.SolverConfig()
        real = stepper._band_lu
        monkeypatch.setattr(stepper, "_band_lu", lambda *args: (*real(*args)[:2], 1))
    s2, meta = advance(s1, g, sc.params, cfg, slot)
    monkeypatch.undo()
    assert meta.fallback_used and meta.extrapolated and meta.fallback_iterations == 5
    # A zero pivot from 2*s1 - s0, then another in the retry from s1.
    assert meta.factorizations == (0 if how == "fallback" else 2)
    assert slot == []
    after = advance(s2, g, sc.params, None, slot)
    assert not after[1].extrapolated
    _same_step(after, advance(s2, g, sc.params))


def test_a_fallback_after_an_extrapolated_attempt_starts_from_the_residual_at_prev():
    """Newton's last attempt always starts from prev, and the fallback takes
    over that attempt's first residual: a step that falls back after an
    extrapolated attempt has the bits of the same step without a slot."""
    sc = scenario_named("smooth-bump")
    g = sc.grid_for(8)
    slot: list = []
    s0 = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    s1, _ = advance(s0, g, sc.params, None, slot)
    # One iteration per attempt; an explicit tol, since an extrapolated step
    # takes its tol from the handover and a step without a slot from prev.
    cfg = stepper.SolverConfig(max_newton_iters=1, newton_tol=1e-10)
    s2, meta = advance(s1, g, sc.params, cfg, slot)
    ref, ref_meta = advance(s1, g, sc.params, cfg)
    assert meta.extrapolated and meta.fallback_used and ref_meta.fallback_used
    assert s2.rho.tobytes() == ref.rho.tobytes()
    assert s2.u.tobytes() == ref.u.tobytes()
    assert meta.fallback_iterations == ref_meta.fallback_iterations == 5
    # The extrapolated attempt's one evaluation comes on top.
    assert meta.iterations == ref_meta.iterations + 1


def _slot_loop(sc, n: int, pin_start: bool = False) -> list:
    """(prev, state, meta, handover left in the slot) of each step of advance()
    called with one slot, as march() calls it.  ``pin_start`` points each
    handover's ``before`` at its own state: 2*s - s is s exactly, so every
    step then starts from prev and only the factors are carried."""
    g = sc.grid_for(n)
    state = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    slot: list = []
    steps = []
    for _ in range(g.M_steps):
        if pin_start and slot:
            slot[0] = slot[0]._replace(before=slot[0].state)
        prev = state
        state, meta = advance(prev, g, sc.params, None, slot)
        steps.append((prev, state, meta, slot[0] if slot else None))
    return steps


@pytest.mark.parametrize(
    "name, n",
    [(sc.name, 64) for sc in harness.builtin_scenarios()]
    + [("smooth-bump", 256), ("riemann-like", 256)],
)
def test_the_carried_norm_is_the_residual_at_the_accepted_state(name, n):
    """The norm a step carries is the fresh one bit for bit, so tol and floor
    keep the rule 1e-10 * (1 + r0), polish_floor * (1 + r0) with r0 the
    residual at prev, on extrapolated steps too."""
    sc = scenario_named(name)
    g = sc.grid_for(n)
    cfg = stepper.SolverConfig()
    steps = _slot_loop(sc, n)
    for prev, state, meta, handover in steps:
        r0 = _still_norm(prev, g, sc.params)
        assert meta.tol.hex() == (1e-10 * (1.0 + r0)).hex()
        assert meta.floor.hex() == (cfg.polish_floor * (1.0 + r0)).hex()
        if handover is not None:
            assert handover.state is state
            assert handover.norm.hex() == _still_norm(state, g, sc.params).hex()
    if name != "constant":
        assert sum(meta.extrapolated for _, _, meta, _ in steps) >= g.M_steps - 2


def test_march_starts_its_first_step_from_the_initial_state():
    sc = scenario_named("smooth-bump")
    metas = [meta for _, meta in stepper.march(sc, sc.grid_for(32), sc.params)][1:]
    assert not metas[0].extrapolated
    assert all(meta.extrapolated for meta in metas[1:])


def _handover(prev, before, g, params):
    return stepper._Handover(
        prev, before, _band_lu(prev.rho, prev.u, g, params), _still_norm(prev, g, params)
    )


def test_a_non_positive_extrapolated_density_starts_from_prev():
    """2*prev - before with a density <= 0 is refused; the step is then the one
    a handover without a start makes (before = prev, so 2*prev - prev = prev)."""
    pp = _params(mu=0.3)
    g = grid.GridSpec(L=1.0, N=8, dt=1.0 / 8, T=1.0)
    u = np.array([0.0, 0.1, 0.2, 0.1, -0.1, -0.2, 0.05, 0.1, 0.0])
    prev = grid.FluidState(rho=np.linspace(1.0, 1.7, 8), u=u)
    for bump in (1.0, 3.0):  # 2*prev - before is exactly 0 there, then -1
        rho = prev.rho.copy()
        rho[0] += bump
        before = grid.FluidState(rho=rho, u=0.5 * u)
        slot = [_handover(prev, before, g, pp)]
        refused = advance(prev, g, pp, None, slot)
        assert not refused[1].extrapolated
        pinned = advance(prev, g, pp, None, [_handover(prev, prev, g, pp)])
        assert pinned[1].extrapolated
        _same_step(refused, (pinned[0], dataclasses.replace(pinned[1], extrapolated=False)))
    before = grid.FluidState(rho=prev.rho, u=0.5 * u)
    assert advance(prev, g, pp, None, [_handover(prev, before, g, pp)])[1].extrapolated


def test_a_handover_for_another_state_is_ignored():
    sc = scenario_named("smooth-bump")
    g = sc.grid_for(16)
    s0 = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    slot: list = []
    s1, _ = advance(s0, g, sc.params, None, slot)
    twin = grid.FluidState(rho=s1.rho, u=s1.u, k=s1.k)
    step = advance(twin, g, sc.params, None, slot)
    assert not step[1].extrapolated
    _same_step(step, advance(twin, g, sc.params))


def test_the_constant_scenario_is_bit_identical_with_a_start(constant_traj):
    """A constant state hands nothing over (it never factors), and a start
    2c - c is c exactly: the step is the one from c."""
    sc = scenario_named("constant")
    states, metas = _bare_loop(sc, 8)
    assert metas == list(constant_traj.solver_meta)
    for a, b in zip(states, constant_traj.states):
        assert a.rho.tobytes() == b.rho.tobytes() and a.u.tobytes() == b.u.tobytes()
    g = sc.grid_for(8)
    c = states[0]
    state, meta = advance(c, g, sc.params, None, [_handover(c, c, g, sc.params)])
    assert meta.extrapolated and meta.iterations == 1 and meta.factorizations == 0
    assert state.rho.tobytes() == c.rho.tobytes() and state.u.tobytes() == c.u.tobytes()
    assert dataclasses.replace(meta, extrapolated=False) == metas[0]


def test_the_extrapolated_start_cuts_factorizations():
    """smooth-bump at N=256: at most 0.7x the factorizations of carrying the
    factors alone, and no more residual evaluations."""
    sc = scenario_named("smooth-bump")
    counts = {}
    for pin in (False, True):
        metas = [meta for _, _, meta, _ in _slot_loop(sc, 256, pin_start=pin)]
        assert not any(m.fallback_used for m in metas)
        counts[pin] = (sum(m.factorizations for m in metas), sum(m.iterations for m in metas))
    assert counts[False][0] <= 0.7 * counts[True][0]
    assert counts[False][1] <= counts[True][1]


def test_newton_giving_up_from_the_extrapolated_start_retries_from_prev(monkeypatch):
    """Near-vacuum inflow at N=16: at step 2, Newton from 2*s^1 - s^0 stalls
    above tol.  The step then retries from s^1 as a step without a slot does,
    instead of falling back, and its StepMeta counts both attempts."""
    sc = harness.ScenarioConfig(
        name="near-vacuum", rho0="piecewise:0.5|1e-3,1", u0="sin2pi:0.5",
        params=_params(gamma=2.0, mu=0.005), levels=(16,),
    )
    g = sc.grid_for(16)
    s0 = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    slot: list = []
    s1, _ = advance(s0, g, sc.params, None, slot)
    counts = {"evaluations": 0, "backtracks": 0, "factorizations": 0}

    def counted(name, key, weight):
        real = getattr(stepper, name)

        def call(*args):
            out = real(*args)
            counts[key] += weight(out)
            return out

        monkeypatch.setattr(stepper, name, call)

    counted("_residual_arrays", "evaluations", lambda out: 1)
    counted("_positivity_step", "backtracks", lambda out: out[1])
    counted("_band_lu", "factorizations", lambda out: 1)
    state, meta = advance(s1, g, sc.params, None, slot)
    monkeypatch.undo()
    alone, alone_meta = advance(s1, g, sc.params)
    assert meta.extrapolated and not meta.fallback_used
    assert (meta.iterations, meta.backtracks, meta.factorizations) == tuple(counts.values())
    assert meta.iterations > alone_meta.iterations  # the first attempt counts too
    assert state.rho.tobytes() == alone.rho.tobytes()
    assert state.u.tobytes() == alone.u.tobytes()
    assert (meta.residual_norm, meta.tol, meta.floor) == (
        alone_meta.residual_norm, alone_meta.tol, alone_meta.floor
    )
    assert slot[0].state is state and slot[0].before is s1
    metas = [m for _, m in stepper.march(sc, g, sc.params)][1:]
    assert not any(m.fallback_used for m in metas)


def test_no_step_is_accepted_above_an_explicit_newton_tol():
    """smooth-bump at N=64 with newton_tol = 3e-14, below the polish floor
    of the first 8 steps (up to 4.3e-14): Newton polishes on to tol rather
    than stopping at the floor, so every step meets tol and none falls back."""
    sc = scenario_named("smooth-bump")
    cfg = stepper.SolverConfig(newton_tol=3e-14)
    metas = [meta for _, meta in stepper.march(sc, sc.grid_for(64), sc.params, cfg)][1:]
    assert sum(m.floor > m.tol == 3e-14 for m in metas) == 8
    assert all(m.residual_norm <= m.tol for m in metas)
    assert not any(m.fallback_used for m in metas)


def test_the_polish_stops_at_the_residual_roundoff():
    """smooth-bump at N=256: the polish ends once the residual is at the
    roundoff of its terms, not one evaluation later at a stall, so march
    makes at most 0.85x the 320 residual evaluations of stopping at the
    stall alone, with the same 66 factorizations."""
    sc = scenario_named("smooth-bump")
    metas = [meta for _, meta in stepper.march(sc, sc.grid_for(256), sc.params)][1:]
    assert not any(m.fallback_used for m in metas)
    assert sum(m.iterations for m in metas) <= 0.85 * 320
    assert sum(m.factorizations for m in metas) == 66


@pytest.mark.parametrize("name", [sc.name for sc in harness.builtin_scenarios()])
def test_the_roundoff_stop_keeps_the_identities_far_inside_their_budgets(
    name, scenario_checks
):
    """At N=256 every identity check stays below 1e-2 of its budget (at most
    9.2e-4 with the polish run to a stall); a roundoff multiple four times
    the solver's reaches 1.2e-2 on gamma-1.6."""
    checks = scenario_checks[(name, 256)].checks
    assert max(c.value / c.bound for c in checks) < 1e-2


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
