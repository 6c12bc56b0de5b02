"""The scheme against a closed form: standing acoustic modes about rest.

Linearized about a rest state (rho_bar, 0), every stencil of the scheme maps
the density mode cos(k x) at the cell centres and the velocity mode
sin(k x) at the faces, k = j pi / L, onto each other, walls included.  With
sigma = (2/dx) sin(k dx/2), c_k = cos(k dx/2) (the face momentum averages
three velocities) and c^2 = p'(rho_bar), one step of the mode amplitudes
(R, U) solves

    [[1, dt rho_bar sigma], [-dt c^2 sigma, rho_bar c_k^2 + dt mu sigma^2]] (R, U)^{n+1}
        = (R^n, rho_bar c_k^2 U^n),

standard von Neumann analysis (J. C. Strikwerda, *Finite Difference Schemes
and Partial Differential Equations*, 2nd ed., SIAM 2004, ch. 2).  It holds
mu, a, gamma, dt, the staggering and the face-momentum average to account,
which the identity suite cannot: a coefficient wrong alike in the residual,
the Jacobian and the diagnostics passes every identity, but not this.
Convection and upwinding are quadratic in the amplitude epsilon, so they
enter the projected amplitudes at O(epsilon) relative to it; the bound is
fixed from that.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from visco1d.grid import FluidState, GridSpec, PhysParams
from visco1d.stepper import advance

RHO_BAR = 1.25
EPS = 1e-6
STEPS = 8

# Over the whole product of the values below (486 cases) the worst error
# was 9.7e-8 of EPS.  It scales with EPS, as the quadratic terms do, down
# to a floor of a few 1e-9 of EPS that EPS <= 1e-7 reaches.  A
# closed form with mu 10% too large, or with a 5% too large, misses these
# six cases by 3.4e-4 to 2.7e-2 of EPS.
_BOUND = 1e-6


def _closed_form(g: GridSpec, k: float, gamma: float, mu: float, a: float) -> tuple[float, float]:
    """(R, U) after STEPS steps of the linearized scheme from (EPS, 0.3 EPS),
    with p(rho) = a rho^gamma written out here, not taken from PhysParams."""
    dt, dx = g.dt, g.dx
    sigma = 2.0 / dx * math.sin(0.5 * k * dx)
    ck2 = math.cos(0.5 * k * dx) ** 2
    c2 = a * gamma * RHO_BAR ** (gamma - 1.0)
    step = np.array([[1.0, dt * RHO_BAR * sigma],
                     [-dt * c2 * sigma, RHO_BAR * ck2 + dt * mu * sigma**2]])
    R, U = EPS, 0.3 * EPS
    for _ in range(STEPS):
        R, U = np.linalg.solve(step, [R, RHO_BAR * ck2 * U])
    return R, U


@pytest.mark.parametrize(
    "n, kappa, j, gamma, mu, a",
    [
        (16, 0.5, 1, 1.6, 0.01, 1.0),
        (32, 1.0, 2, 5.0 / 3.0, 0.05, 1.3),
        (64, 4.0, 3, 1.9, 0.5, 1.0),
        (16, 4.0, 1, 1.9, 0.05, 1.3),
        (32, 0.5, 3, 1.6, 0.5, 1.0),
        (64, 1.0, 1, 5.0 / 3.0, 0.01, 1.3),
    ],
)
def test_a_standing_acoustic_mode_steps_as_the_closed_form(n, kappa, j, gamma, mu, a):
    """STEPS advance steps of a small standing mode, projected back onto
    the mode, against the 2x2 recursion of the module docstring."""
    L = 1.0
    dt = kappa * L / n
    g = GridSpec(L=L, N=n, dt=dt, T=STEPS * dt)
    params = PhysParams(a=a, gamma=gamma, mu=mu)
    k = math.pi * j / L
    cos_c, sin_f = np.cos(k * g.cell_centers), np.sin(k * g.face_nodes)
    u = 0.3 * EPS * sin_f
    u[0] = u[-1] = 0.0  # sin(j pi) is not exactly 0 in floating point
    state = FluidState(RHO_BAR + EPS * cos_c, u)
    for _ in range(STEPS):
        state, _ = advance(state, g, params)

    # The discrete modes are orthogonal, each with squared norm n/2.
    R = 2.0 / n * float((state.rho - RHO_BAR) @ cos_c)
    U = 2.0 / n * float(state.u @ sin_f)
    R_exact, U_exact = _closed_form(g, k, gamma, mu, a)
    assert max(abs(R - R_exact), abs(U - U_exact)) < _BOUND * EPS
