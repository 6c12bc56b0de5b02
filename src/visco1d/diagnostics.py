"""Exact discrete identities and functionals for staggered upwind trajectories.

Everything here is post-processing over an immutable Trajectory.  The central
design rule: every estimate that is classically written with unknown
mean-value points is instead computed through its *exact algebraic remainder*
(e.g. the convexity gap B(y) - B(x) - B'(x)(y-x)), so each balance law becomes
a machine-checkable identity whose residual is bounded by the nonlinear
solver's residual — not by an analyst's constant.

Field extension conventions (used by the weak forms, norms, and Cauchy
comparisons downstream): the state computed at time level k represents the
time window (t^{k-1}, t^k], so windows k = 1..M tile [0, T); density extends
as the piecewise-constant cell value, velocity as the continuous piecewise
interpolant through the face values, and the discrete time derivative on
window k is the backward difference (f^k - f^{k-1})/dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .grid import Trajectory, gauss_panels
from .operators import (
    continuity_residual,
    diff_cell,
    dirichlet_inv_grad,
    face_momentum,
    hat,
    neumann_inv_grad,
    positivity_floor,
    split_upwind,
    upwind_flux,
)

__all__ = [
    "Check",
    "identity_checks",
    "mass_drift",
    "energy_budget",
    "summarize_orders",
    "TestFunction",
    "energy_ledger",
    "renorm_residual",
    "positivity_report",
    "flux_ledger",
    "error_rates",
    "STUDY_MIN_LEVELS",
    "check_study_levels",
    "level_magnitudes",
    "linear_l2_sq",
    "rates_from_levels",
    "boundedness",
    "weak_residual_continuity",
    "weak_residual_momentum",
    "norm_suite",
    "probe_test_functions",
    "mass_history",
    "effective_newton_tol",
    "rho_power_integral",
]


def mass_history(traj: Trajectory) -> np.ndarray:
    """Total mass dx * sum(rho) at every time level (index 0..M)."""
    sums = np.fromiter((np.sum(s.rho) for s in traj.states), float, len(traj))
    return traj.grid.dx * sums


def _density_range(traj: Trajectory) -> tuple[float, float]:
    """(min, max) of the density over every cell and time level."""
    return (
        min(float(np.min(s.rho)) for s in traj.states),
        max(float(np.max(s.rho)) for s in traj.states),
    )


def effective_newton_tol(traj: Trajectory) -> float:
    """Largest per-step acceptance tolerance the solver actually applied."""
    if not traj.solver_meta:
        return 1e-10
    return max(meta.tol for meta in traj.solver_meta)


# ======================================================================
# Energy ledger
# ======================================================================


@dataclass(frozen=True)
class EnergyLedger:
    """Discrete energy balance with its four numerical-diffusion terms.

    All arrays are indexed by the time level m = 0..M; dissipation and the
    N-terms are cumulative sums over steps k <= m, so the exact balance reads
    energy[m] + dissipation[m] + N1[m] + N2[m] + N3[m] + N4[m] == energy[0]
    up to the solver residual, and balance_residual[m] is the absolute gap.
    """

    energy: np.ndarray
    dissipation: np.ndarray
    N1: np.ndarray
    N2: np.ndarray
    N3: np.ndarray
    N4: np.ndarray
    balance_residual: np.ndarray

    def step_increments(self, name: str) -> np.ndarray:
        """Per-step increments of a cumulative column ('N1'..'N4', 'dissipation')."""
        return np.diff(getattr(self, name))


def _convexity_gaps(
    b_old: np.ndarray, b: np.ndarray, db: np.ndarray, rho_old: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unscaled convexity gaps B(y) - B(x) - B'(x)(y - x) of one step.

    ``b_old``, ``b`` and ``db`` are B(rho_old), B(rho) and B'(rho) per cell.
    Returns (time, right, left): the gap from rho to rho_old in every cell,
    and at every interior face the gap from the left cell to the right one
    (right) and from the right cell to the left one (left).
    """
    time = b_old - b - db * (rho_old - rho)
    right = b[1:] - b[:-1] - db[:-1] * (rho[1:] - rho[:-1])
    left = b[:-1] - b[1:] - db[1:] * (rho[:-1] - rho[1:])
    return time, right, left


def energy_ledger(traj: Trajectory) -> EnergyLedger:
    """Evaluate the discrete energy equality along a trajectory.

    The energy is dx * sum(rho*hat_u^2/2 + a*rho^gamma/(gamma-1)).  The four
    diffusion terms are computed in exact-remainder form:

      N1: time-convexity gap of the pressure potential,
      N2: spatial convexity gaps weighted by the upwind switch,
      N3: kinetic gap rho_old*(hat_u - hat_u_old)^2/2,
      N4: interface dissipation |mass flux|*(hat-jump)^2/2,

    so every term is nonnegative up to rounding, and the balance residual is
    bounded by the accumulated solver residual (not by discretization error).
    """
    g, pp = traj.grid, traj.params
    dt, dx = g.dt, g.dx
    states = traj.states
    steps = len(states) - 1

    def level(state) -> tuple[np.ndarray, np.ndarray, float]:
        hat_u = hat(state.u)
        pot = pp.pressure_potential(state.rho)
        return hat_u, pot, dx * float(np.sum(0.5 * state.rho * hat_u**2 + pot))

    energy = np.empty(steps + 1)
    hat_prev, pot_prev, energy[0] = level(states[0])
    inc_d = np.zeros(steps)
    inc = {k: np.zeros(steps) for k in ("N1", "N2", "N3", "N4")}
    for k in range(1, steps + 1):
        rho_prev, rho, u = states[k - 1].rho, states[k].rho, states[k].u
        hat_u, pot, energy[k] = level(states[k])
        du = np.diff(u) / dx
        inc_d[k - 1] = pp.mu * dt * dx * float(du @ du)

        dpot = pp.dpressure(rho) / (pp.gamma - 1.0)
        time_gap, gap_right, gap_left = _convexity_gaps(pot_prev, pot, dpot, rho_prev, rho)
        inc["N1"][k - 1] = dx * float(np.sum(time_gap))

        up_int, um_int = split_upwind(u[1:-1])
        inc["N2"][k - 1] = dt * float(-(gap_right @ um_int) + gap_left @ up_int)

        inc["N3"][k - 1] = dx * float(np.sum(0.5 * rho_prev * (hat_u - hat_prev) ** 2))

        flux = upwind_flux(rho, *split_upwind(u))
        inc["N4"][k - 1] = dt * float(
            np.sum(0.5 * np.abs(flux[1:-1]) * np.diff(hat_u) ** 2)
        )
        hat_prev, pot_prev = hat_u, pot

    def cum(a: np.ndarray) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(a)))

    dissipation = cum(inc_d)
    n1, n2, n3, n4 = (cum(inc[k]) for k in ("N1", "N2", "N3", "N4"))
    balance = np.abs(energy - energy[0] + dissipation + n1 + n2 + n3 + n4)
    return EnergyLedger(energy, dissipation, n1, n2, n3, n4, balance)


# ======================================================================
# Renormalized continuity
# ======================================================================


@dataclass(frozen=True)
class BFunction:
    """A C^1 rescaling function z -> B(z) with its derivative."""

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]


def b_square() -> BFunction:
    return BFunction("square", lambda z: z * z, lambda z: 2.0 * z)


def b_power(gamma: float) -> BFunction:
    return BFunction(
        f"power-{gamma:g}", lambda z: z**gamma, lambda z: gamma * z ** (gamma - 1.0)
    )


def b_zlogz() -> BFunction:
    return BFunction("zlogz", lambda z: z * np.log(z), lambda z: 1.0 + np.log(z))


def sup_abs_deriv(B: BFunction, lo: float, hi: float, samples: int = 4097) -> float:
    """max |B'| over [lo, hi], by dense sampling (covers interior extrema)."""
    if not (0.0 < lo <= hi):
        raise ValueError("derivative range must be positive and ordered")
    z = np.linspace(lo, hi, samples)
    vals = np.abs(np.asarray(B.deriv(z), dtype=float))
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"B'{B.name and f' ({B.name})'} is not finite on [{lo}, {hi}]")
    return float(np.max(vals))


def renorm_residual(traj: Trajectory, B: BFunction) -> np.ndarray:
    """Residual of the rescaled continuity identity, one row per step.

    For each step k and cell i, assembles

        [B(rho^k) - B(rho^{k-1})]/dt  +  d_i Up(B(rho^k) u^k)
        + b(rho^k) d_i u^k  +  remainder terms,

    with b(z) = z B'(z) - B(z) and the remainders being the exact convexity
    gaps in time and across upwind faces.  Algebraically this equals
    B'(rho^k) times the continuity residual, so for converged steps the
    max-norm is bounded by the solver tolerance times sup|B'| on the state
    range.  B must be finite with finite derivative on that range.
    """
    g = traj.grid
    dt, dx = g.dt, g.dx
    states = traj.states
    steps = len(states) - 1
    lo, hi = _density_range(traj)
    sup_abs_deriv(B, lo, hi, samples=257)  # rejects non-C^1-on-range inputs
    if not np.all(np.isfinite(np.asarray(B.value(np.array([lo, hi]))))):
        raise ValueError(f"B ({B.name}) is not finite on the density range")

    out = np.empty((steps, g.N))
    bv_prev = np.asarray(B.value(states[0].rho), dtype=float)
    for k in range(1, steps + 1):
        rho_prev, rho, u = states[k - 1].rho, states[k].rho, states[k].u
        bv = np.asarray(B.value(rho), dtype=float)
        bp = np.asarray(B.deriv(rho), dtype=float)
        small_b = rho * bp - bv

        time_gap, gap_right, gap_left = _convexity_gaps(bv_prev, bv, bp, rho_prev, rho)
        up_int, um_int = split_upwind(u[1:-1])
        spatial = np.zeros(g.N)
        spatial[:-1] -= gap_right * um_int / dx
        spatial[1:] += gap_left * up_int / dx

        out[k - 1] = (
            continuity_residual(bv_prev, bv, upwind_flux(bv, *split_upwind(u)), dt, dx)
            + small_b * diff_cell(u, dx)
            + time_gap / dt
            + spatial
        )
        bv_prev = bv
    return out


# ======================================================================
# Positivity
# ======================================================================


@dataclass(frozen=True)
class PositivityReport:
    """Per-step density minima against two lower bounds (index = step k-1).

    ``bound`` is the commonly quoted floor min rho_old / (1 + dt*max|u|);
    ``margin`` = min_rho - bound.  That bound does not actually hold for this
    discretization at inflow wall cells (the wall cell sees only its outgoing
    face), so ``divergence_bound`` also records the floor that *is* provable,
    operators.positivity_floor, the one advance() enforces.
    """

    min_rho: np.ndarray
    bound: np.ndarray
    margin: np.ndarray
    divergence_bound: np.ndarray
    divergence_margin: np.ndarray

    @property
    def worst_margin(self) -> float:
        return float(np.min(self.margin, initial=np.inf))

    @property
    def worst_divergence_margin(self) -> float:
        return float(np.min(self.divergence_margin, initial=np.inf))


def positivity_report(traj: Trajectory) -> PositivityReport:
    g = traj.grid
    states = traj.states
    steps = len(states) - 1
    min_rho = np.empty(steps)
    bound = np.empty(steps)
    div_bound = np.empty(steps)
    for k in range(1, steps + 1):
        rho_prev, rho, u = states[k - 1].rho, states[k].rho, states[k].u
        min_rho[k - 1] = float(np.min(rho))
        bound[k - 1] = float(np.min(rho_prev)) / (1.0 + g.dt * float(np.max(np.abs(u))))
        res = continuity_residual(rho_prev, rho, upwind_flux(rho, *split_upwind(u)), g.dt, g.dx)
        div_bound[k - 1] = positivity_floor(rho_prev, u, res, g.dt, g.dx)
    return PositivityReport(
        min_rho, bound, min_rho - bound, div_bound, min_rho - div_bound
    )


# ======================================================================
# Effective-viscous-flux identity
# ======================================================================


@dataclass(frozen=True)
class FluxLedger:
    """Both sides of the time-integrated effective-viscous-flux identity.

    lhs = -dt*dx * sum_{k<=m} sum_i (mu*d_i u - p(rho_i)) * (rho_i - mean),
    and the right-hand side splits into four terms: the mean-density
    momentum-flux term, the net boundary-in-time term (inverse gradients of
    the averaged momentum paired with the terminal/initial density), and the
    two numerical error terms E1 (momentum increments against the mass flux)
    and E2 (upwind asymmetry of the momentum flux).  S1/S2 are the proof's
    intermediate sums — the time-difference and convection pairings with the
    zero-mean density potential — so each stage of the derivation is
    independently checkable:

        lhs == S1 + S2            (momentum-residual pairing)
        S1 + S2 == sum(rhs_terms) (continuity substitution + exact algebra)
    """

    m: int
    lhs: float
    S1: float
    S2: float
    E1: float
    E2: float
    mean_flux: float
    boundary_terminal: float
    boundary_initial: float
    transport: float

    @property
    def rhs_terms(self) -> dict[str, float]:
        return {
            "mean_flux": self.mean_flux,
            "boundary": self.boundary_terminal + self.boundary_initial,
            "E1": self.E1,
            "E2": self.E2,
        }

    @property
    def rhs_total(self) -> float:
        return float(sum(self.rhs_terms.values()))

    @property
    def identity_gap(self) -> float:
        return self.lhs - self.rhs_total

    @property
    def pairing_gap(self) -> float:
        return self.lhs - (self.S1 + self.S2)

    @property
    def decomposition_gap(self) -> float:
        return (self.S1 + self.S2) - self.rhs_total


def flux_ledger(traj: Trajectory, m: int | None = None) -> FluxLedger:
    """Accumulate the flux identity through step m (default: the full run)."""
    g, pp = traj.grid, traj.params
    dt, dx = g.dt, g.dx
    steps = len(traj) - 1
    if m is None:
        m = steps
    if not (1 <= m <= steps):
        raise ValueError(f"checkpoint m={m} outside 1..{steps}")

    lhs = s1 = s2 = e1 = e2 = mean_flux = transport = 0.0
    w_prev = face_momentum(traj.states[0].rho * hat(traj.states[0].u))
    w_first = w_prev
    for k in range(1, m + 1):
        rho, u = traj.states[k].rho, traj.states[k].u
        rbar = float(np.mean(rho))
        du = diff_cell(u, dx)
        p = pp.pressure(rho)
        lhs += -dt * dx * float(np.sum((pp.mu * du - p) * (rho - rbar)))

        v = neumann_inv_grad(rho - rbar, dx)[1:-1]
        hat_u = hat(u)
        w = face_momentum(rho * hat_u)
        s1 += dx * float((w - w_prev) @ v)

        up, um = split_upwind(u)
        mom_flux = upwind_flux(rho * hat_u, up, um)
        conv = (mom_flux[2:] - mom_flux[:-2]) / (2.0 * dx)
        s2 += dt * dx * float(conv @ v)

        mean_flux += dt * dx * rbar * float(np.sum(mom_flux[1:-1]))
        transport += dt * dx * float(mom_flux[1:-1] @ (0.5 * (rho[:-1] + rho[1:])))

        mass_flux = upwind_flux(rho, up, um)
        e1 += -dt * dx * float(mass_flux[1:-1] @ (w - w_prev))
        e2 += dt * dx * float(
            np.sum(0.5 * rho[:-1] * rho[1:] * np.abs(u[1:-1]) * np.diff(hat_u))
        )
        w_prev = w

    g_term = dirichlet_inv_grad(w_prev, dx)
    boundary_terminal = -dx * float(g_term @ traj.states[m].rho)
    g_init = dirichlet_inv_grad(w_first, dx)
    boundary_initial = dx * float(g_init @ traj.states[0].rho)
    return FluxLedger(
        m=m,
        lhs=lhs,
        S1=s1,
        S2=s2,
        E1=e1,
        E2=e2,
        mean_flux=mean_flux,
        boundary_terminal=boundary_terminal,
        boundary_initial=boundary_initial,
        transport=transport,
    )


# ======================================================================
# Weak-form residuals
# ======================================================================


@dataclass(frozen=True)
class TestFunction:
    """Separable space-time test function phi(t, x) = space(x) * time(t).

    ``space``, its x-derivative ``space_deriv`` and ``time`` must accept
    numpy arrays.  Both weak residuals are linear in the test function, so a
    sum of separable terms is checked term by term: the product form loses
    nothing, and it lets a residual integrate the two factors separately.
    """

    space: Callable[[np.ndarray], np.ndarray]
    space_deriv: Callable[[np.ndarray], np.ndarray]
    time: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def value(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self.space(x) * self.time(t)


def default_test_functions(
    L: float, T: float, js: Sequence[int] = (1, 2, 3)
) -> tuple[TestFunction, ...]:
    """sin(pi j x / L) * (1 - t/T)^2: vanish at t=T and at both walls."""

    def time(t):
        return (1.0 - t / T) ** 2

    out = []
    for j in js:
        kj = math.pi * j / L

        def space(x, kj=kj):
            return np.sin(kj * x)

        def space_deriv(x, kj=kj):
            return kj * np.cos(kj * x)

        out.append(TestFunction(space, space_deriv, time, name=f"sin{j}"))
    return tuple(out)


def probe_test_functions(L: float, T: float) -> tuple[TestFunction, TestFunction]:
    """(phi, v): the refinement study's probes of the density and momentum equations.

    phi = sin1 is even about L/2.  v = sin2 is odd: for mirror-symmetric
    scenarios the momentum field is odd, so an even v would pair to an exact
    zero and the measured rate of P2 would be roundoff noise.
    """
    phi, v = default_test_functions(L, T, js=(1, 2))
    return phi, v


def _check_test_function(fn: TestFunction, L: float, T: float) -> None:
    x = np.linspace(0.0, L, 17)
    t = np.linspace(0.0, T, 17)
    if np.max(np.abs(fn.value(np.full_like(x, T), x))) > 1e-12:
        raise ValueError("test function must vanish at t = T")
    walls = np.abs(fn.value(t, np.zeros_like(t))) + np.abs(fn.value(t, np.full_like(t, L)))
    if np.max(walls) > 1e-12:
        raise ValueError("test function must vanish at x = 0 and x = L")


def _panel_sums(
    f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """5-point Gauss integral of f over each panel [a[j], b[j]]."""
    nodes, weights = gauss_panels(a, b)
    return (weights * f(nodes)).sum(axis=1)


def _moments(traj: Trajectory, fn: TestFunction) -> tuple[np.ndarray, ...]:
    """What the weak residuals need of a test function, by 5-point Gauss rules.

    Returns (tbar, mx, mdx, mfdx, xf): tbar[k-1] integrates ``time`` over
    window k; per cell i, mx, mdx and mfdx are the Gauss sums of wx*X,
    wx*X' and wx*frac*X', where frac = x/dx - i is the weight of u_{i+1} in
    the velocity interpolant at the node; xf holds X at the N+1 faces.
    """
    g = traj.grid
    _check_test_function(fn, g.L, g.T)
    windows = np.arange(len(traj) - 1)
    tbar = _panel_sums(fn.time, windows * g.dt, (windows + 1) * g.dt)
    cells = np.arange(g.N)
    x, wx = gauss_panels(cells * g.dx, (cells + 1) * g.dx)  # (N, 5) each
    frac = x / g.dx - cells[:, None]
    wdx = wx * fn.space_deriv(x)
    mx = (wx * fn.space(x)).sum(axis=1)
    return tbar, mx, wdx.sum(axis=1), (frac * wdx).sum(axis=1), fn.space(g.face_nodes)


def weak_residual_continuity(
    traj: Trajectory, phi: TestFunction
) -> tuple[float, float]:
    """Space-time weak residual of the density equation and its exact value.

    Returns (lhs_weak, P1): lhs_weak integrates d_t^h rho_h * phi minus
    rho_h u_h phi_x over [0,T)x(0,L) by per-cell/per-window Gauss quadrature
    on the extended fields; P1 is the same quantity reduced to the closed
    upwind form coupling density jumps to the gap between cell-averaged and
    face traces of phi.  The two agree up to quadrature error plus the
    continuity residual paired with phi, which validates quadrature and
    assembly simultaneously.  phi must vanish at t=T and at both walls.

    phi = X(x) tau(t) is separable, so each window's integrals are the
    window integral of tau times dot products with the per-cell moments of X.
    """
    g = traj.grid
    tbar, mx, mdx, mfdx, xf = _moments(traj, phi)
    dt, dx = g.dt, g.dx
    # cell averages of X minus X at the interior face on the cell's left/right
    gap_r = mx[1:] / dx - xf[1:-1]
    gap_l = mx[:-1] / dx - xf[1:-1]
    states = traj.states
    lhs = 0.0
    p1 = 0.0
    for k, tk in enumerate(tbar.tolist(), start=1):
        rho, u = states[k].rho, states[k].u
        dt_rho = (rho - states[k - 1].rho) / dt
        transport = rho @ (u[:-1] * mdx + np.diff(u) * mfdx)
        lhs += tk * float(dt_rho @ mx - transport)

        up_int, um_int = split_upwind(u[1:-1])
        p1 -= tk * float(np.diff(rho) @ (up_int * gap_r + um_int * gap_l))
    return lhs, p1


def weak_residual_momentum(traj: Trajectory, v: TestFunction) -> tuple[float, float]:
    """Weak residual of the momentum equation and its exact closed form.

    Returns (lhs_weak, P2): lhs_weak integrates d_t^h(rho_h hat_u_h) v minus
    (rho_h hat_u_h^2 + p(rho_h) - mu (u_h)_x) v_x by Gauss quadrature; P2 is
    the exact mismatch between that integral and the face-collocated scheme,
    consisting of the cell-vs-face trace gap against the momentum time
    difference plus the upwind trace asymmetry of the convection term.
    Pressure and viscosity pair exactly and leave no trace here.  v must
    vanish at t=T and at both walls.  v is separable, as in
    weak_residual_continuity.
    """
    g, pp = traj.grid, traj.params
    tbar, mx, mdx, _, xf = _moments(traj, v)
    dt, dx = g.dt, g.dx
    # trapezoid of X over each cell minus its Gauss integral; jumps of X
    trace_gap = 0.5 * dx * (xf[:-1] + xf[1:]) - mx
    dxf = np.diff(xf)
    states = traj.states
    lhs = 0.0
    p2 = 0.0
    mom_prev = states[0].rho * hat(states[0].u)
    for k, tk in enumerate(tbar.tolist(), start=1):
        rho, u = states[k].rho, states[k].u
        hat_u = hat(u)
        mom = rho * hat_u
        dt_mom = (mom - mom_prev) / dt
        cell_coeff = -(mom * hat_u + pp.pressure(rho) - pp.mu * diff_cell(u, dx))
        lhs += tk * float(dt_mom @ mx + cell_coeff @ mdx)

        j1 = float(dt_mom @ trace_gap)
        up_int, um_int = split_upwind(u[1:-1])
        j2 = 0.5 * float(np.diff(mom) @ (up_int * dxf[1:] - um_int * dxf[:-1]))
        p2 -= tk * (j1 + j2)
        mom_prev = mom
    return lhs, p2


# ======================================================================
# Norms and rates
# ======================================================================


def _int_abs_linear_pow(a: np.ndarray, b: np.ndarray, w: float, s: float) -> np.ndarray:
    """Exact ∫_0^w |a + b*sigma|^s d(sigma), vectorized over (a, b); s > 0.

    Uses the antiderivative y|y|^s/(s+1) with a midpoint fallback when the
    slope contribution is too small for the difference to be well-scaled.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    y1 = a + b * w
    scale = np.abs(a) + np.abs(b) * w
    small = np.abs(b) * w <= 1e-8 * scale

    def anti(y: np.ndarray) -> np.ndarray:
        return y * np.abs(y) ** s / (s + 1.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        exact = (anti(y1) - anti(a)) / np.where(small, 1.0, b)
    mid = w * np.abs(a + 0.5 * b * w) ** s
    return np.where(small, mid, exact)


def linear_l2_sq(d: np.ndarray, dx: float) -> float:
    """Exact squared L2 norm of the piecewise-linear field with nodes d, spacing dx."""
    dl, dr = d[:-1], d[1:]
    return (dx / 3.0) * float(np.sum(dl * dl + dl * dr + dr * dr))


def rho_power_integral(traj: Trajectory, power: float | None = None) -> float:
    """Space-time integral of rho^power (default gamma+1) over [0,T)."""
    if power is None:
        power = traj.params.gamma + 1.0
    g = traj.grid
    if len(traj) == 1:
        return 0.0
    # One sum over every cell of every window, not a sum of per-level sums:
    # the pairwise summation order, and so every bit of the result, depends
    # on it.  This is the one diagnostic that builds an (M, N) array it does
    # not return.
    rho = np.concatenate([s.rho for s in traj.states[1:]])
    rho **= power
    return g.dt * g.dx * float(np.sum(rho))


def norm_suite(traj: Trajectory) -> dict[str, float]:
    """The a-priori-bounded norms of the extended fields, per trajectory.

    Keys (with r = 2*gamma/(gamma+1); all integrals piecewise exact):
      rho_Linf_Lgamma     sup_m ||rho^m||_{L^gamma}
      pressure_Linf_L1    sup_m ||p(rho^m)||_{L^1}
      u_L2_H1             velocity in L^2 in time of H^1_0 in space
      u_L2_Linf           velocity in L^2 in time of sup norm
      momentum_Linf_Lr    sup_m ||rho hat_u||_{L^r}
      kinetic_Linf_L1     sup_m ||rho hat_u^2||_{L^1}
      rho_u_L2_Lgamma     rho_h u_h in L^2 in time of L^gamma
      rho_u2_L2_Lr        rho_h u_h^2 in L^2 in time of L^r

    Supremum-in-time norms include the initial state; time integrals run over
    the M windows of the extension.
    """
    g, pp = traj.grid, traj.params
    dt, dx = g.dt, g.dx
    gamma = pp.gamma
    r = 2.0 * gamma / (gamma + 1.0)

    # One sum per level for each supremum-in-time norm.  Their roots are taken
    # over the whole series at once: numpy's vector power differs from the
    # scalar one in the last bit for some inputs, and the report keeps them all.
    levels = len(traj)
    sum_rho_g, sum_p, sum_mom_r, sum_kin = (np.empty(levels) for _ in range(4))
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

        ul = u[:-1]
        int_dudx2 = float(np.sum(np.diff(u) ** 2)) / dx
        h1_sq += dt * (linear_l2_sq(u, dx) + int_dudx2)
        linf_sq += dt * float(np.max(np.abs(u))) ** 2

        slope = np.diff(u) / dx
        int_abs_u_g = _int_abs_linear_pow(ul, slope, dx, gamma)
        ru_g += dt * float(np.sum(rho_g * int_abs_u_g)) ** (2.0 / gamma)
        int_abs_u_2r = _int_abs_linear_pow(ul, slope, dx, 2.0 * r)
        ru2_r += dt * float(np.sum(rho**r * int_abs_u_2r)) ** (2.0 / r)

    out: dict[str, float] = {}
    out["rho_Linf_Lgamma"] = float(np.max((dx * sum_rho_g) ** (1.0 / gamma)))
    out["pressure_Linf_L1"] = float(np.max(dx * sum_p))
    out["momentum_Linf_Lr"] = float(np.max((dx * sum_mom_r) ** (1.0 / r)))
    out["kinetic_Linf_L1"] = float(np.max(dx * sum_kin))
    out["u_L2_H1"] = math.sqrt(h1_sq)
    out["u_L2_Linf"] = math.sqrt(linf_sq)
    out["rho_u_L2_Lgamma"] = math.sqrt(ru_g)
    out["rho_u2_L2_Lr"] = math.sqrt(ru2_r)
    return out


def _pair_order(coarse: float, fine: float, h_ratio: float) -> float | str | None:
    if coarse == 0.0 and fine == 0.0:
        return "exact"
    if coarse == 0.0 or fine == 0.0:
        return None
    return float(np.log(abs(coarse) / abs(fine)) / np.log(h_ratio))


def summarize_orders(magnitudes: Sequence[float], hs: Sequence[float]) -> dict:
    """{"magnitudes", "orders", "order"}: per-pair observed orders and their mean."""
    orders = [
        _pair_order(magnitudes[j], magnitudes[j + 1], hs[j] / hs[j + 1])
        for j in range(len(magnitudes) - 1)
    ]
    numeric = [o for o in orders if isinstance(o, float)]
    if numeric:
        headline: float | str | None = float(np.mean(numeric))
    elif orders and all(o == "exact" for o in orders):
        headline = "exact"
    else:
        headline = None
    return {"magnitudes": list(magnitudes), "orders": orders, "order": headline}


def error_rates(
    trajectories: Sequence[Trajectory],
    phi: TestFunction | None = None,
    v: TestFunction | None = None,
) -> dict[str, dict]:
    """Observed decay orders of the named error functionals across levels.

    Requires a study's worth of trajectories (check_study_levels) of the
    same scenario at increasing resolution, each with dt == dx and at least
    one step.  Orders are per-pair log ratios of successive magnitudes
    against the h-ratio; the headline ``order`` is their mean, or the string
    "exact" when every level is exactly zero.  The space-time integral of rho^(gamma+1) is reported
    with its max/min ratio as the boundedness proxy instead of an order.
    """
    trajs = sorted(trajectories, key=lambda tr: tr.grid.N)
    check_study_levels(len(trajs))
    for tr in trajs:
        if not tr.grid.dt_dx_coupled:
            raise ValueError("error_rates requires dt == dx at every level")
        if len(tr) == 1:
            raise ValueError("error_rates needs at least one step at every level")
    probes = probe_test_functions(trajs[0].grid.L, trajs[0].grid.T)
    phi = phi or probes[0]
    v = v or probes[1]
    return rates_from_levels([level_magnitudes(tr, phi, v) for tr in trajs])


# Three levels give two pair orders, the fewest whose agreement shows a rate.
STUDY_MIN_LEVELS = 3


def check_study_levels(count: int) -> None:
    """Reject a refinement study of fewer than STUDY_MIN_LEVELS levels."""
    if count < STUDY_MIN_LEVELS:
        raise ValueError(f"a refinement study needs at least {STUDY_MIN_LEVELS} levels")


def level_magnitudes(traj: Trajectory, phi: TestFunction, v: TestFunction) -> dict[str, float]:
    """One refinement level's decaying magnitudes, as the study reports them.

    Keys: the mesh size "h"; "E1", "E2" and "flux_identity_gap", the absolute
    values from one flux_ledger over the whole run; "P1" and "P2", the
    absolute closed-form weak residuals against phi and v; and
    "rho_gamma_plus_1".  A run without steps has no time window, so every
    magnitude is 0.0.
    """
    keys = ("E1", "E2", "P1", "P2", "rho_gamma_plus_1", "flux_identity_gap")
    if len(traj) == 1:
        return {"h": traj.grid.dx, **dict.fromkeys(keys, 0.0)}
    ledger = flux_ledger(traj)
    return {
        "h": traj.grid.dx,
        "E1": abs(ledger.E1),
        "E2": abs(ledger.E2),
        "P1": abs(weak_residual_continuity(traj, phi)[1]),
        "P2": abs(weak_residual_momentum(traj, v)[1]),
        "rho_gamma_plus_1": rho_power_integral(traj),
        "flux_identity_gap": abs(ledger.identity_gap),
    }


def boundedness(values: Sequence[float]) -> dict:
    """Per-level values with their max/min ratio over the positive ones."""
    finite = [x for x in values if x > 0.0]
    ratio = (max(finite) / min(finite)) if finite else 1.0
    return {"values": list(values), "max_over_min": ratio}


def rates_from_levels(rows: Sequence[Mapping[str, float]]) -> dict[str, dict]:
    """The ``error_rates`` table from per-level magnitudes already computed.

    ``rows`` holds one mapping per level, coarsest first, with the mesh size
    "h", the magnitudes "E1", "E2", "P1", "P2" and "rho_gamma_plus_1".
    """
    hs = [row["h"] for row in rows]
    out = {
        key: summarize_orders([row[key] for row in rows], hs)
        for key in ("E1", "E2", "P1", "P2")
    }
    out["rho_gamma_plus_1"] = boundedness([row["rho_gamma_plus_1"] for row in rows])
    return out


# ======================================================================
# Identity checks and their budgets
# ======================================================================


@dataclass(frozen=True)
class Check:
    """One exact-identity check: a measured value against its budget."""

    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.value <= self.bound


def mass_drift(traj: Trajectory) -> float:
    """Largest change of the total mass over the run, relative to the initial mass."""
    masses = mass_history(traj)
    return float(np.max(np.abs(masses - masses[0]))) / masses[0]


def diffusion_min_increment(ledger: EnergyLedger) -> float:
    """Smallest per-step increment of N1..N4; 0.0 for a run without steps."""
    if ledger.N1.size < 2:
        return 0.0
    return min(float(np.min(ledger.step_increments(nm))) for nm in ("N1", "N2", "N3", "N4"))


def energy_budget(tol: float, steps: int) -> float:
    """Energy-balance and flux-identity budget after ``steps`` steps: 100*tol per step."""
    return 100.0 * tol * max(steps, 1)


def identity_checks(traj: Trajectory) -> tuple[Check, ...]:
    """Every exact identity of one trajectory, each against its budget.

    Budgets scale with the largest tolerance the solver applied.  A run
    without steps has no time window, so it gets only the first four checks.
    """
    tol = effective_newton_tol(traj)
    steps = len(traj) - 1
    worst_res = max((m.residual_norm for m in traj.solver_meta), default=0.0)
    drift = mass_drift(traj)
    ledger = energy_ledger(traj)
    checks = [
        Check("step residual max-norm", worst_res, tol),
        Check("mass drift (relative)", drift, 1e-12 * max(steps, 1)),
        Check("energy balance (fraction of tolerance)", max([0.0] + [
            ledger.balance_residual[m] / energy_budget(tol, m) for m in range(1, steps + 1)
        ]), 1.0),
        # A quiescent run reports -0.0 here, a run without steps +0.0.
        Check("numerical diffusion negativity",
              -diffusion_min_increment(ledger) if steps else 0.0, 1e-12),
    ]
    if not steps:
        return tuple(checks)

    lo, hi = _density_range(traj)
    for B in (b_square(), b_power(traj.params.gamma), b_zlogz()):
        field = renorm_residual(traj, B)
        res = float(np.max(np.abs(field, out=field)))
        del field  # or it would outlive the building of the next B's field
        bound = 10.0 * tol * sup_abs_deriv(B, lo, hi)
        checks.append(Check(f"renormalized continuity [{B.name}]", res, bound))

    gap = abs(flux_ledger(traj).identity_gap)
    checks.append(Check("flux identity gap", gap, energy_budget(tol, steps)))

    for fn in default_test_functions(traj.grid.L, traj.grid.T):
        lw, p1 = weak_residual_continuity(traj, fn)
        checks.append(Check(f"weak continuity self-consistency [{fn.name}]", abs(lw - p1), 1e-8))
        lw, p2 = weak_residual_momentum(traj, fn)
        checks.append(Check(f"weak momentum self-consistency [{fn.name}]", abs(lw - p2), 1e-8))
    return tuple(checks)
