"""Grid geometry, parameter validation, state containers, initial data."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visco1d import grid, operators


# ======================================================================
# GridSpec / PhysParams
# ======================================================================


def test_grid_geometry():
    g = grid.GridSpec(L=2.0, N=4, dt=0.5, T=1.0)
    assert g.dx * g.N == pytest.approx(g.L, abs=1e-15)
    np.testing.assert_allclose(g.cell_centers, [0.25, 0.75, 1.25, 1.75])
    np.testing.assert_allclose(g.face_nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert g.M_steps == 2


def test_grid_step_count_rounding():
    # T/dt a hair above an integer must not add a phantom step
    g = grid.GridSpec(L=1.0, N=10, dt=0.1, T=0.30000000000000004)
    assert g.M_steps == 3
    assert grid.GridSpec(L=1.0, N=2, dt=0.5, T=0.0).M_steps == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(L=1.0, N=1, dt=0.1, T=1.0),
        dict(L=-1.0, N=4, dt=0.1, T=1.0),
        dict(L=1.0, N=4, dt=0.0, T=1.0),
        dict(L=1.0, N=4, dt=0.1, T=-0.5),
        # T must be a whole number of steps, so that a run ends at T
        dict(L=1.0, N=4, dt=0.1, T=0.25),
        dict(L=1.0, N=4, dt=0.5, T=0.25),
        dict(L=1.0, N=4, dt=1.0 / 6.0, T=0.25),
        dict(L=1.0, N=4, dt=0.1, T=0.3 + 2e-9),
        dict(L=1.0, N=4, dt=1e-320, T=1.0),  # T/dt overflows to inf
        dict(L=1.0, N=4, dt=1e10, T=0.25),  # T/dt rounds to zero steps
    ],
)
def test_grid_rejects_bad_geometry(kwargs):
    with pytest.raises(ValueError):
        grid.GridSpec(**kwargs)


def test_params_pressure_law():
    p = grid.PhysParams(a=2.0, gamma=1.75, mu=0.3)
    rho = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(p.pressure(rho), 2.0 * rho**1.75)
    np.testing.assert_allclose(p.dpressure(rho), 2.0 * 1.75 * rho**0.75)
    np.testing.assert_allclose(
        p.pressure_potential(rho), 2.0 * rho**1.75 / 0.75
    )
    # rho B'(rho) - B(rho) == p(rho) ties the potential to the pressure law
    bprime = p.dpressure(rho) / (p.gamma - 1.0)
    np.testing.assert_allclose(rho * bprime - p.pressure_potential(rho), p.pressure(rho))


def test_params_theory_range_flag():
    assert grid.PhysParams(gamma=5.0 / 3.0).in_theory_range
    assert not grid.PhysParams(gamma=1.4).in_theory_range
    assert not grid.PhysParams(gamma=2.0).in_theory_range


@pytest.mark.parametrize("kwargs", [dict(a=0.0), dict(mu=0.0), dict(gamma=1.0), dict(gamma=0.9)])
def test_params_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        grid.PhysParams(**kwargs)


# ======================================================================
# FluidState / Trajectory
# ======================================================================


def test_state_validates_shapes_and_walls():
    ok = grid.FluidState(rho=np.array([1.0, 2.0]), u=np.array([0.0, 0.3, 0.0]))
    assert ok.rho.flags.writeable is False
    with pytest.raises(ValueError):
        grid.FluidState(rho=np.array([1.0, 2.0]), u=np.array([0.0, 0.3]))
    with pytest.raises(ValueError):
        grid.FluidState(rho=np.array([1.0, -2.0]), u=np.array([0.0, 0.3, 0.0]))
    with pytest.raises(ValueError):
        grid.FluidState(rho=np.array([1.0, 2.0]), u=np.array([0.1, 0.3, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_names_a_non_finite_density(bad):
    """A NaN or infinite density is reported as non-finite, not as nonpositive."""
    with pytest.raises(ValueError, match="non-finite"):
        grid.FluidState(rho=np.array([1.0, bad]), u=np.zeros(3))


def test_state_names_the_smallest_nonpositive_density():
    with pytest.raises(ValueError, match=r"strictly positive \(min=-2.0\)"):
        grid.FluidState(rho=np.array([1.0, -2.0, 0.0]), u=np.zeros(4))


def test_trajectory_matrices(constant_traj):
    assert constant_traj.rho_matrix.shape == (len(constant_traj), constant_traj.grid.N)
    assert constant_traj.u_matrix.shape == (len(constant_traj), constant_traj.grid.N + 1)
    np.testing.assert_array_equal(constant_traj.rho_matrix, 1.0)


# ======================================================================
# Initial data (exact cell averaging)
# ======================================================================


def test_init_state_constant_data():
    g = grid.GridSpec(L=1.0, N=4, dt=0.25, T=0.0)
    st = grid.init_state(g, lambda x: np.ones_like(x), lambda x: np.zeros_like(x))
    np.testing.assert_array_equal(st.rho, [1.0, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(st.u, [0.0] * 5)


@pytest.mark.parametrize("direction", [np.inf, -np.inf], ids=["ulp_up", "ulp_down"])
def test_cell_averages_reproduce_constants_for_any_rounded_weights(monkeypatch, direction):
    """Constants average to themselves bit for bit, whatever numpy's weights are.

    The rounded Gauss weights need not sum to exactly 2; shifting all of them
    one ulp stands in for another numpy build's rounding.
    """
    monkeypatch.setattr(grid, "_GAUSS_W", np.nextafter(grid._GAUSS_W, direction))
    for n in (2, 4, 7, 64):
        g = grid.GridSpec(L=1.0, N=n, dt=1.0 / n, T=0.0)
        for value in (1.0, 0.1, 3.7, 1e-6):
            got = g.cell_averages(lambda x, c=value: np.full_like(x, c))
            np.testing.assert_array_equal(got, np.full(n, value))


def test_init_state_linear_average():
    g = grid.GridSpec(L=1.0, N=2, dt=0.5, T=0.0)
    st = grid.init_state(g, lambda x: np.asarray(x, dtype=float), lambda x: np.zeros_like(x))
    np.testing.assert_allclose(st.rho, [0.25, 0.75], atol=1e-15)


def test_init_state_piecewise_step():
    g = grid.GridSpec(L=1.0, N=4, dt=0.25, T=0.0)
    prof = grid.PiecewiseConstant(breakpoints=(0.5,), values=(3.0, 1.0))
    st = grid.init_state(g, prof, lambda x: np.zeros_like(x))
    np.testing.assert_allclose(st.rho, [3.0, 3.0, 1.0, 1.0], atol=1e-15)


def test_piecewise_matches_quadrature_oracle():
    """Cell averages of a step profile vs integration of the step function."""
    prof = grid.PiecewiseConstant(breakpoints=(0.3, 0.55), values=(2.0, 0.5, 1.25))
    g = grid.GridSpec(L=1.0, N=8, dt=0.125, T=0.0)

    def overlap_average(lo: float, hi: float) -> float:
        # integrate the step function by splitting at its breakpoints
        knots = [lo] + [b for b in (0.3, 0.55) if lo < b < hi] + [hi]
        vals = []
        for a, b in zip(knots, knots[1:]):
            mid = 0.5 * (a + b)
            val = 2.0 if mid < 0.3 else (0.5 if mid < 0.55 else 1.25)
            vals.append(val * (b - a))
        return sum(vals) / (hi - lo)

    expected = [overlap_average(i * g.dx, (i + 1) * g.dx) for i in range(g.N)]
    got = g.cell_averages(prof)
    np.testing.assert_allclose(got, expected, atol=1e-14)


@given(
    n=st.integers(min_value=2, max_value=32),
    coefs=st.tuples(
        st.floats(min_value=-0.4, max_value=0.4),
        st.floats(min_value=0.5, max_value=2.0),
    ),
)
@settings(max_examples=40, deadline=None)
def test_cell_averages_project_linear_functions_exactly(n, coefs):
    """Averaging is an L2 projection: exact on functions linear in x."""
    slope, offset = coefs
    g = grid.GridSpec(L=1.0, N=n, dt=1.0 / n, T=0.0)
    got = g.cell_averages(lambda x: offset + slope * np.asarray(x))
    np.testing.assert_allclose(got, offset + slope * g.cell_centers, atol=1e-13)


def test_hat_velocity_midpoints():
    st = grid.FluidState(rho=np.array([1.0, 1.0]), u=np.array([0.0, 2.0, 0.0]))
    np.testing.assert_allclose(operators.hat(st.u), [1.0, 1.0])
    st0 = grid.FluidState(rho=np.array([1.0, 1.0]), u=np.zeros(3))
    np.testing.assert_array_equal(operators.hat(st0.u), [0.0, 0.0])
    st3 = grid.FluidState(rho=np.ones(3), u=np.array([0.0, 1.0, 3.0, 0.0]))
    np.testing.assert_allclose(operators.hat(st3.u), [0.5, 2.0, 1.5])
    # one row per time level: the (M+1, N+1) velocity matrix of a trajectory
    np.testing.assert_array_equal(operators.hat(np.stack([st.u, st0.u])), [[1.0, 1.0], [0.0, 0.0]])


def test_gauss_panels_integrate_high_degree_polynomials():
    x, w = grid.gauss_panels(np.array([0.0, 0.5]), np.array([0.5, 1.0]))
    # 5-point Gauss is exact through degree 9 on each panel
    for deg in range(10):
        assert float(np.sum(w * x**deg)) == pytest.approx(1.0 / (deg + 1), rel=1e-13)
