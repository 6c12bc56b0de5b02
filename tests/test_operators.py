"""Difference operators, upwind fluxes, and the two inverse gradients.

The inverse-gradient pair carries the weight of the flux-identity
diagnostics, so besides the frozen small cases there are property tests for
the duality pairing, summation by parts, and the prefix-sum-vs-tridiagonal
equivalence.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from visco1d import operators

# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------


def neumann_inv_grad_via_solve(f: np.ndarray, dx: float) -> np.ndarray:
    """Independent oracle for ``neumann_inv_grad`` via a tridiagonal solve.

    Assembles the zero-flux (ghost-cell) Laplacian -(q[i-1] - 2q[i] + q[i+1])/dx^2
    with reflected ghosts q[-1] = q[0], q[N] = q[N-1], pins q[0] = 0 to fix the
    additive constant, solves, and differentiates.  Exists so the prefix-sum
    path can be cross-checked rather than trusted.  ``f`` must have zero mean.
    """
    f = np.asarray(f, dtype=float)
    n = f.size
    if n == 1:
        return np.zeros(2)
    # Rows 1..n-1 are the interior/reflected-Neumann rows; row 0 pins q[0]=0.
    ab = np.zeros((3, n))
    ab[0, 1:] = -1.0 / dx**2  # superdiagonal
    ab[2, :-1] = -1.0 / dx**2  # subdiagonal
    ab[1, :] = 2.0 / dx**2
    ab[1, -1] = 1.0 / dx**2  # reflected ghost at the right wall
    rhs = f.copy()
    # Pin the first unknown: replace row 0 by q[0] = 0.
    ab[1, 0] = 1.0
    ab[0, 1] = 0.0
    rhs[0] = 0.0
    # The pinned row breaks the usual row 0 (whose Neumann form is
    # (q[0]-q[1])/dx^2 = f[0]); that information is redundant for mean-zero f,
    # which is exactly why the operator needs the mean-zero precondition.
    q = solve_banded((1, 1), ab, rhs)
    grad = np.zeros(n + 1)
    grad[1:-1] = (q[1:] - q[:-1]) / dx
    return -grad


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def cell_field(min_size=2, max_size=40):
    return st.lists(finite, min_size=min_size, max_size=max_size).map(
        lambda xs: np.array(xs, dtype=float)
    )


# ======================================================================
# upwind fluxes
# ======================================================================


def test_upwind_mass_flux_donor_cell():
    rho = np.array([2.0, 3.0])
    up = operators.upwind_flux(rho, *operators.split_upwind(np.array([0.0, 1.0, 0.0])))
    np.testing.assert_allclose(up, [0.0, 2.0, 0.0])
    down = operators.upwind_flux(rho, *operators.split_upwind(np.array([0.0, -1.0, 0.0])))
    np.testing.assert_allclose(down, [0.0, -3.0, 0.0])
    still = operators.upwind_flux(rho, *operators.split_upwind(np.zeros(3)))
    np.testing.assert_array_equal(still, [0.0, 0.0, 0.0])


def test_upwind_momentum_flux_examples():
    rho = np.array([2.0, 3.0])
    hat = np.array([1.0, -1.0])
    up = operators.upwind_flux(rho * hat, *operators.split_upwind(np.array([0.0, 1.0, 0.0])))
    assert up[1] == pytest.approx(2.0)  # rho_left * hat_left * u = 2*1*1
    down = operators.upwind_flux(rho * hat, *operators.split_upwind(np.array([0.0, -1.0, 0.0])))
    assert down[1] == pytest.approx(3.0)  # (3*(-1))*(-1)
    zero = operators.upwind_flux(np.zeros(2), *operators.split_upwind(np.array([0.0, 0.7, 0.0])))
    np.testing.assert_array_equal(zero, [0.0, 0.0, 0.0])


def test_upwind_fluxes_vanish_at_walls():
    rho = np.array([1.0, 2.0, 3.0])
    u = np.array([0.0, 0.5, -0.5, 0.0])
    switches = operators.split_upwind(u)
    assert operators.upwind_flux(rho, *switches)[0] == 0.0
    assert operators.upwind_flux(rho, *switches)[-1] == 0.0
    assert operators.upwind_flux(rho * operators.hat(u), *switches)[0] == 0.0


@given(rho=cell_field(), shift=finite)
@settings(max_examples=50, deadline=None)
def test_upwind_flux_is_donor_value_times_velocity(rho, shift):
    rho = np.abs(rho) + 0.1
    n = rho.size
    rng = np.random.default_rng(7)
    u = np.zeros(n + 1)
    u[1:-1] = rng.standard_normal(n - 1) + shift
    flux = operators.upwind_flux(rho, *operators.split_upwind(u))
    for f in range(1, n):
        donor = rho[f - 1] if u[f] > 0 else rho[f]
        assert flux[f] == pytest.approx(donor * u[f], rel=1e-13, abs=1e-13)


# ======================================================================
# difference stencils
# ======================================================================


def test_diff_cell_examples():
    np.testing.assert_allclose(operators.diff_cell(np.array([0.0, 1.0, 0.0]), 0.5), [2.0, -2.0])


def test_laplace_velocity_examples():
    assert operators.laplace_velocity(np.array([0.0, 1.0, 0.0]), 1.0)[0] == pytest.approx(-2.0)
    np.testing.assert_allclose(
        operators.laplace_velocity(np.array([0.0, 1.0, 4.0, 0.0]), 1.0), [2.0, -7.0]
    )
    # linear profiles are in the kernel
    lin = np.linspace(0.0, 1.0, 6)
    np.testing.assert_allclose(operators.laplace_velocity(lin, 0.2), np.zeros(4), atol=1e-12)


def test_laplace_velocity_scales_by_mu_without_rounding_change():
    rng = np.random.default_rng(3)
    for n in (3, 9, 65):
        u = rng.standard_normal(n)
        dx, mu = rng.uniform(0.01, 1.0), rng.uniform(0.01, 2.0)
        bare = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / dx**2
        assert operators.laplace_velocity(u, dx).tobytes() == bare.tobytes()
        scaled = mu * (u[:-2] - 2.0 * u[1:-1] + u[2:]) / dx**2
        assert operators.laplace_velocity(u, dx, mu).tobytes() == scaled.tobytes()


@given(u=cell_field(min_size=3, max_size=30))
@settings(max_examples=50, deadline=None)
def test_laplacian_is_divergence_of_gradient(u):
    dx = 0.25
    # the cell-to-face difference of diff_cell recovers the 3-point Laplacian
    grad = operators.diff_cell(u, dx)  # du at cells between faces
    lap = np.diff(grad) / dx  # back to interior faces
    np.testing.assert_allclose(lap, operators.laplace_velocity(u, dx), atol=1e-10)


@given(rho=cell_field(min_size=2, max_size=30))
@settings(max_examples=50, deadline=None)
def test_summation_by_parts_with_wall_zeros(rho):
    """Sum_f v_f (f_{i+1}-f_i) = -Sum_i f_i (v_{f+1}-v_{f-1} collapse).

    With v zero at walls, the discrete integration by parts between
    cell-indexed f and face-indexed v holds exactly.
    """
    n = rho.size
    rng = np.random.default_rng(11)
    vv = np.zeros(n + 1)
    vv[1:-1] = rng.standard_normal(n - 1)
    dx = 0.5
    lhs = float(np.sum(np.diff(rho) / dx * vv[1:-1])) * dx
    rhs = -float(np.sum(rho * operators.diff_cell(vv, dx))) * dx
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


# ======================================================================
# inverse gradients
# ======================================================================


def test_neumann_inv_grad_frozen_cases():
    np.testing.assert_allclose(
        operators.neumann_inv_grad(np.array([1.0, -1.0]), 1.0), [0.0, 1.0, 0.0], atol=1e-14
    )
    np.testing.assert_allclose(
        operators.neumann_inv_grad(np.array([1.0, 0.0, -1.0]), 1.0), [0.0, 1.0, 1.0, 0.0],
        atol=1e-14,
    )
    np.testing.assert_array_equal(operators.neumann_inv_grad(np.zeros(4), 0.25), np.zeros(5))


def test_neumann_inv_grad_requires_zero_mean():
    with pytest.raises(ValueError):
        operators.neumann_inv_grad(np.array([1.0, 1.0]), 1.0)


def test_dirichlet_inv_grad_frozen_cases():
    np.testing.assert_allclose(
        operators.dirichlet_inv_grad(np.array([1.0]), 1.0), [-0.5, 0.5], atol=1e-15
    )
    np.testing.assert_array_equal(operators.dirichlet_inv_grad(np.zeros(5), 0.2), np.zeros(6))


def test_duality_spot_value():
    f = np.array([1.0, -1.0])
    vv = np.array([1.0])
    dx = 1.0
    lhs = dx * float(vv @ operators.neumann_inv_grad(f, dx)[1:-1])
    rhs = -dx * float(operators.dirichlet_inv_grad(vv, dx) @ f)
    assert lhs == pytest.approx(1.0, abs=1e-14)
    assert rhs == pytest.approx(1.0, abs=1e-14)


@given(
    data=st.lists(finite, min_size=2, max_size=48),
    dx=st.floats(min_value=0.02, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_inverse_gradient_duality_property(data, dx, seed):
    """dx <v, G_N f> == -dx <G_D v, f> for mean-zero f and interior v."""
    f = np.array(data, dtype=float)
    f -= f.mean()
    rng = np.random.default_rng(seed)
    vv = rng.standard_normal(f.size - 1)
    lhs = dx * float(vv @ operators.neumann_inv_grad(f, dx)[1:-1])
    rhs = -dx * float(operators.dirichlet_inv_grad(vv, dx) @ f)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(
    data=st.lists(finite, min_size=2, max_size=48),
    dx=st.floats(min_value=0.02, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_neumann_prefix_sum_matches_tridiagonal_solve(data, dx):
    f = np.array(data, dtype=float)
    f -= f.mean()
    fast = operators.neumann_inv_grad(f, dx)
    slow = neumann_inv_grad_via_solve(f, dx)
    np.testing.assert_allclose(fast, slow, atol=1e-10 * (1.0 + np.abs(f).sum()))


@given(data=st.lists(finite, min_size=2, max_size=48), dx=st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_neumann_gradient_inverts_divergence(data, dx):
    """diff_cell of the Neumann inverse gradient recovers f (mean removed)."""
    f = np.array(data, dtype=float)
    f -= f.mean()
    r = operators.neumann_inv_grad(f, dx)
    np.testing.assert_allclose(operators.diff_cell(r, dx), f, atol=1e-10 * (1 + np.abs(f).max()))


@given(data=st.lists(finite, min_size=2, max_size=48), dx=st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_dirichlet_gradient_inverts_face_divergence(data, dx):
    """The cell-to-face difference of the Dirichlet inverse gradient recovers interior v."""
    f = np.array(data, dtype=float)
    rng = np.random.default_rng(3)
    vv = rng.standard_normal(f.size - 1)
    w = operators.dirichlet_inv_grad(vv, dx)
    np.testing.assert_allclose(np.diff(w) / dx, vv, atol=1e-10 * (1 + np.abs(vv).max()))


# ======================================================================
# the tridiagonal solve that stands in for scipy.linalg.solve_banded
# ======================================================================


def _tridiagonal(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A random diagonally dominant band in (1, 1) layout and a right-hand side."""
    rng = np.random.default_rng(seed)
    ab = rng.standard_normal((3, n))
    ab[1] += 4.0 * np.sign(ab[1])
    return ab, rng.standard_normal(n)


def test_solve_banded_has_scipys_bits():
    # Size 1 takes a division, not dgtsv; several draws catch a reciprocal.
    for seed, n in enumerate([*[1] * 16, *range(2, 65)]):
        ab, b = _tridiagonal(n, seed)
        x = operators.solve_banded((1, 1), ab, b)
        assert x.tobytes() == solve_banded((1, 1), ab, b).tobytes(), (seed, n)


@pytest.mark.parametrize("where", ["ab", "b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_banded_rejects_non_finite_input(where, bad):
    for n in (1, 5):
        ab, b = _tridiagonal(n, seed=0)
        (ab[1] if where == "ab" else b)[-1] = bad
        with pytest.raises(ValueError):
            operators.solve_banded((1, 1), ab, b)


def test_solve_banded_raises_on_a_singular_system():
    # Rows (1, 1, 0), (1, 1, 0), (0, 1, 1): the first two agree.
    ab = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        operators.solve_banded((1, 1), ab, np.ones(3))


@pytest.mark.parametrize("l_and_u", [(0, 0), (1, 0), (0, 1), (2, 2), (4, 4)])
def test_solve_banded_refuses_other_bands(l_and_u):
    _, b = _tridiagonal(6, seed=1)
    with pytest.raises(ValueError, match=r"\(1, 1\)"):
        operators.solve_banded(l_and_u, np.zeros((sum(l_and_u) + 1, 6)), b)


def test_solve_banded_refuses_a_band_without_three_rows():
    _, b = _tridiagonal(6, seed=1)
    for rows in (2, 4, 9):
        with pytest.raises(ValueError, match="3 rows"):
            operators.solve_banded((1, 1), np.ones((rows, 6)), b)


def test_lapack_loader_names_the_missing_extension(monkeypatch):
    monkeypatch.setattr(operators, "EXTENSION_SUFFIXES", [])
    with pytest.raises(ImportError, match="_flapack"):
        operators._load_flapack()
