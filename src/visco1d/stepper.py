"""Implicit time stepping for the staggered upwind scheme.

One step advances (rho, u) by solving the coupled nonlinear system

    continuity, cell i:   (rho_i - rho_i^old)/dt + d_i Up(rho u) = 0
    momentum, face f:     d_t[(m_{f-1} + m_f)/2]
                          + (UpM_{f+1} - UpM_{f-1})/(2 dx)
                          + (p(rho_f) - p(rho_{f-1}))/dx
                          - mu * (u_{f-1} - 2 u_f + u_{f+1})/dx^2  = 0

with m_i = rho_i * hat_u_i, Up the donor-cell mass flux, UpM the donor-cell
flux of the averaged momentum, and p(rho) = a * rho**gamma.  Unknowns are
interleaved as (rho_0, u_1, rho_1, u_2, ..., rho_{N-1}), giving a banded
Jacobian with at most four sub- and four super-diagonals (the momentum row at
face f reaches u_{f+-2} through the neighbouring momentum fluxes).  The
Jacobian is written straight into those nine diagonals, the layout banded LU
reads; assemble_jacobian returns the same band as a CSR matrix.  Newton
factors the band with LAPACK's dgbtrf and solves with dgbtrs, the same calls
scipy.linalg.solve_banded makes, so the two give the same bits.

The Newton iteration uses the active-set derivative of the upwind switches
(d u+/du = 1 for u > 0 else 0, and symmetrically for u-; zero exactly at the
kink), damps its steps until every density stays positive, and — because the
downstream identity checks want residuals near machine precision, not merely
below the acceptance tolerance — keeps polishing while the residual still
drops geometrically.  Below tol a step is accepted at the polish floor, at
a stall (the residual fell by less than half), at the iteration cap, or at
the accuracy with which the residual is evaluated (Kelley, below): once the
residual is at most 16 eps times the largest magnitude among the terms it
sums, roundoff decides its digits and a further chord step buys nothing.
That scale is taken at most once per step, at the first iterate below tol
that none of the other rules accepts, so an exact zero residual, which the
floor accepts, never pays for it.  Newton rebuilds and refactors the
Jacobian only while the residual is above newton_tol; below it, each polish
iteration is a chord (Shamanskii) step: one residual and one dgbtrs with the
factors in hand (C. T. Kelley, Iterative Methods for Linear and Nonlinear
Equations, SIAM 1995, ch. 5).  march() carries the factors a step ends with
into the next step, whose first update is a chord step with them: they were
built near the state that step starts from.  From iterate 2 on Newton
refactors above newton_tol as without the carry, so a step makes about one
factorization instead of two.

With the factors march() hands each step the state s^{k-1} before its old
state s^k, and Newton starts from the linear extrapolation 2 s^k - s^{k-1}
when every density of it is positive, and from s^k otherwise.  tol and
floor stay those of the residual at s^k, so the acceptance rule does not
change.  That residual is not evaluated again: at s^k a step's time
differences are exactly 0.0, so its norm is the norm of the spatial terms
of the previous step's accepted evaluation, bit for bit, and the handover
carries it.  A step on its own (advance without a slot), march's first
step, a step after one that made no Newton update, and a step after a
fallback start from s^k; a step that ends in the fallback drops the
handover.  So a constant state, which never factors, steps exactly as
without a slot.  Where Newton gives up from 2 s^k - s^{k-1}, which it does
on some near-vacuum and strong-inflow steps, the step retries from s^k as a
step without a slot does, factoring at iterate 1, before it falls back; its
StepMeta counts the residual evaluations, backtracks and factorizations of
both attempts and stays ``extrapolated``.

An exact zero pivot or a non-finite Newton step gives up, as does
stagnation above tolerance.  Given up from s^k, the step falls back to
pseudo-transient continuation from s^k on the same band, dgbtrf and dgbtrs:
Newton steps with the time terms' diagonal added once more over tau, tau
set by switched evolution relaxation, so the first steps are damped like
short time steps and the last ones are Newton's (Kelley and Keyes 1998;
see _continuation).  A NaN or infinite residual also gives up; the
fallback raises StepFailure at a non-finite residual, a zero pivot, a
step that positivity collapses, or when its step budget runs out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np
import scipy  # resolves assemble_jacobian's return annotation; scipy.sparse loads on use

from .grid import FluidState, GridSpec, PhysParams, Trajectory, init_state
from .operators import (
    continuity_residual,
    dgbtrf,
    dgbtrs,
    diff_cell,
    face_momentum,
    hat,
    laplace_velocity,
    momentum_convection,
    positivity_floor,
    pressure_gradient,
    # Named here for perfbench's tracer, which wraps stepper.solve_banded;
    # the stepper itself solves only with dgbtrs.
    solve_banded,  # noqa: F401
    split_upwind,
    upwind_flux,
)

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "SolverConfig",
    "StepMeta",
    "StepFailure",
    "assemble_residual",
    "assemble_jacobian",
    "advance",
    "march",
    "run",
]

_BANDS = (4, 4)  # Jacobian sub/super-diagonal count in interleaved ordering
_EPS = float(np.finfo(float).eps)
# Newton accepts a residual below newton_tol once it is at most this many eps
# times the largest term the residual sums: below that, roundoff decides it.
_ROUNDOFF_C = 16.0


# ======================================================================
# Data types
# ======================================================================


@dataclass(frozen=True)
class StepResidual:
    """Residual of one implicit step: N continuity rows, N-1 momentum rows."""

    cont: np.ndarray
    mom: np.ndarray

    @property
    def max_norm(self) -> float:
        return _max_norm(self.cont, self.mom)


@dataclass(frozen=True)
class SolverConfig:
    """Newton and fallback knobs.  The positivity line search is not one of
    them: it halves a step until every density stays positive.

    newton_tol: hard bound on every accepted residual max-norm.  ``None``
        (default) resolves per step to 1e-10 * (1 + |initial residual|).
    max_newton_iters: Newton iteration cap (counted as residual evaluations).
    fallback: cap on the continuation steps of the fallback, used when
        Newton gives up above tolerance.
    polish_floor: scale of the near-machine residual floor the solver keeps
        polishing toward once newton_tol is met (exact-identity diagnostics
        and the mass budget rely on this).  The polish also stops once the
        residual is at the roundoff of its own terms (see the module
        docstring; Kelley 1995, ch. 5).  On the built-in scenarios that
        rule would accept every step with a nonzero residual at the iterate
        the floor accepts it, so the floor now decides only exact zeros, such
        as a constant state's, which it accepts without taking the roundoff
        scale.
    """

    newton_tol: float | None = None
    max_newton_iters: int = 50
    fallback: int = 500
    polish_floor: float = 1e-14

    def __post_init__(self) -> None:
        if self.newton_tol is not None and not (0 < self.newton_tol < math.inf):
            raise ValueError("newton_tol must be positive and finite (or None for adaptive)")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be at least 1")
        if not (0.0 < self.polish_floor < math.inf):
            raise ValueError(f"polish_floor must be finite, > 0: {self.polish_floor}")
        if self.fallback < 0:
            raise ValueError("fallback must be nonnegative")


@dataclass(frozen=True)
class StepMeta:
    """What one advance() did: iteration counts and the accepted residual.

    ``factorizations`` counts the Newton Jacobians built and LU-factored; the
    fallback's factorizations, one per continuation step, are not counted.
    ``fallback_iterations`` counts those steps.  ``extrapolated`` says that
    Newton started from 2*prev - (the state before prev), not from prev.
    """

    iterations: int
    residual_norm: float
    tol: float
    floor: float
    backtracks: int = 0
    fallback_used: bool = False
    fallback_iterations: int = 0
    factorizations: int = 0
    extrapolated: bool = False


class _Handover(NamedTuple):
    """What a step accepted by Newton hands the next step of march().

    ``state`` is the state the step accepted, ``before`` the one it started
    from, ``factors`` its last LU factors and ``norm`` the residual max-norm
    of a step from ``state`` evaluated at ``state`` itself.
    """

    state: FluidState
    before: FluidState
    factors: tuple[np.ndarray, np.ndarray, int]
    norm: float


class StepFailure(RuntimeError):
    """Raised when a step cannot be converged; carries a diagnostic dump."""

    def __init__(self, message: str, k: int, residual_history, min_rho: float):
        hist = ", ".join(f"{r:.3e}" for r in residual_history[-8:])
        super().__init__(
            f"{message} (step k={k}, min rho={min_rho:.6e}, "
            f"recent residual norms: [{hist}])"
        )
        self.message = message
        self.k = k
        self.residual_history = list(residual_history)
        self.min_rho = min_rho

    def __reduce__(self):
        # The default reduce passes only the formatted text back to __init__,
        # which needs all four fields; a failure must cross a process boundary.
        return type(self), (self.message, self.k, self.residual_history, self.min_rho)


# ======================================================================
# Residual
# ======================================================================


def _residual_arrays(
    rho_old: np.ndarray,
    w_old: np.ndarray,
    rho: np.ndarray,
    u: np.ndarray,
    grid: GridSpec,
    params: PhysParams,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Continuity and momentum residuals, and the terms they were built from:
    (cont, mom, (mass flux, convection, pressure gradient, viscous term,
    face momentum)).  w_old = face-averaged old momentum."""
    dt, dx = grid.dt, grid.dx
    up, um = split_upwind(u)
    flux = upwind_flux(rho, up, um)
    cont = continuity_residual(rho_old, rho, flux, dt, dx)

    m = rho * hat(u)
    mflux = upwind_flux(m, up, um)
    p = params.pressure(rho)
    conv = momentum_convection(mflux, dx)
    grad_p = pressure_gradient(p, dx)
    visc = laplace_velocity(u, dx, params.mu)
    w = face_momentum(m)
    mom = (w - w_old) / dt + conv + grad_p - visc
    return cont, mom, (flux, conv, grad_p, visc, w)


def _max_norm(cont: np.ndarray, mom: np.ndarray) -> float:
    """Max-norm over both residual blocks; a NaN anywhere makes it NaN."""
    return float(np.maximum(np.abs(cont).max(initial=0.0), np.abs(mom).max(initial=0.0)))


def _rest_norm(terms: tuple[np.ndarray, ...], dx: float) -> float:
    """Max-norm of the residual of a step from state s with trial s, given
    the terms of _residual_arrays at s.

    Both time differences of that residual are exactly 0.0, and 0.0 + x is x
    up to the sign of a zero, so this is assemble_residual(s, s, ...).max_norm
    bit for bit.
    """
    flux, conv, grad_p, visc, _ = terms
    return _max_norm((flux[1:] - flux[:-1]) / dx, conv + grad_p - visc)


def _term_scale(
    rho_old: np.ndarray,
    w_old: np.ndarray,
    rho: np.ndarray,
    terms: tuple[np.ndarray, ...],
    grid: GridSpec,
) -> float:
    """Largest magnitude among the terms a residual row sums, given the terms
    of _residual_arrays at (rho, u): rho/dt and rho_old/dt, mass flux/dx,
    face momentum/dt and w_old/dt, convection, pressure gradient and viscous
    term.  A residual evaluated in floating point is not known better than a
    small multiple of eps times this."""
    flux, conv, grad_p, visc, w = terms
    dt, dx = grid.dt, grid.dx
    return float(max(
        max(rho.max(), rho_old.max()) / dt,  # densities are positive
        np.abs(flux).max() / dx,
        max(np.abs(w).max(), np.abs(w_old).max()) / dt,
        np.abs(conv).max(),
        np.abs(grad_p).max(),
        np.abs(visc).max(),
    ))


def _old_fields(prev: FluidState) -> tuple[np.ndarray, np.ndarray]:
    return prev.rho, face_momentum(prev.rho * hat(prev.u))


def assemble_residual(
    prev: FluidState, trial: FluidState, grid: GridSpec, params: PhysParams
) -> StepResidual:
    """Residual of the implicit step taking ``prev`` to ``trial``.

    ``trial`` must have positive density and zero wall velocities (enforced by
    FluidState itself).  Both wall fluxes vanish, so no stencil ever reaches
    beyond the domain.
    """
    if trial.N != prev.N:
        raise ValueError("states live on different grids")
    rho_old, w_old = _old_fields(prev)
    cont, mom, _ = _residual_arrays(rho_old, w_old, trial.rho, trial.u, grid, params)
    return StepResidual(cont=cont, mom=mom)


# ======================================================================
# Jacobian
# ======================================================================


def _jacobian_ab(
    rho: np.ndarray,
    u: np.ndarray,
    grid: GridSpec,
    params: PhysParams,
    ab: np.ndarray | None = None,
) -> np.ndarray:
    """Exact Jacobian in solve_banded layout: entry (row r, col c) at ab[4 + r - c, c].

    Row/col map: rho_i <-> 2i, u_f <-> 2f-1.  Each term below couples unknowns
    at fixed row and column offsets, so it is one strided write along a band
    row d = 4 + r - c from its first column c0.  Terms meeting in one entry are
    summed in a fixed order, so the band is reproducible bit for bit.  Given
    ``ab``, a zeroed (9, 2N-1) array of any memory order, it writes there.
    """
    n = rho.size
    dt, dx = grid.dt, grid.dx
    up, um = split_upwind(u)
    # active-set derivatives of u+ and u-: zero exactly at the kink u = 0
    sp, sm = (u > 0.0).astype(float), (u < 0.0).astype(float)
    hat_u = hat(u)
    m = rho * hat_u
    dp = params.dpressure(rho)
    if ab is None:
        ab = np.zeros((_BANDS[0] + _BANDS[1] + 1, 2 * n - 1))

    def add(d: int, c0: int, v: np.ndarray) -> None:
        ab[d, c0 : c0 + 2 * v.size : 2] += v

    # ---- continuity rows (2i): donor-cell fluxes through faces i and i+1 ----
    add(4, 0, 1.0 / dt + (up[1:] - um[:-1]) / dx)  # rho_i
    add(2, 2, um[1:-1] / dx)  # rho_{i+1}, i <= N-2
    flux_u = (rho[:-1] * sp[1:-1] + rho[1:] * sm[1:-1]) / dx
    add(3, 1, flux_u)  # u_{i+1}, i <= N-2
    add(6, 0, -up[1:-1] / dx)  # rho_{i-1}, i >= 1
    add(5, 1, -flux_u)  # u_i, i >= 1

    # ---- momentum rows (2f-1), f = 1..N-1 ----
    # time term d_t (m_{f-1} + m_f)/2 with hat_u linear in u
    add(5, 0, hat_u[:-1] / (2.0 * dt))  # rho_{f-1}
    add(3, 2, hat_u[1:] / (2.0 * dt))  # rho_f
    add(4, 1, (rho[:-1] + rho[1:]) / (4.0 * dt))  # u_f
    add(6, 1, rho[1:-1] / (4.0 * dt))  # u_{f-1}, f >= 2
    add(2, 3, rho[1:-1] / (4.0 * dt))  # u_{f+1}, f <= N-2

    # pressure gradient
    add(3, 2, dp[1:] / dx)
    add(5, 0, -dp[:-1] / dx)

    # viscous Laplacian
    add(4, 1, np.full(n - 1, 2.0 * params.mu / dx**2))
    add(6, 1, np.full(n - 2, -params.mu / dx**2))
    add(2, 3, np.full(n - 2, -params.mu / dx**2))

    # convection (UpM_{f+1} - UpM_{f-1}) / (2 dx); UpM at the walls is zero,
    # so only interior neighbour faces g contribute.
    c2 = 2.0 * dx

    def mflux_block(lo: int, hi: int, s: int, sign: float) -> None:
        """d/d(unknowns) of sign * UpM_g / (2 dx) for faces g = lo..hi-1 in rows 2g + s."""
        g, gl = slice(lo, hi), slice(lo - 1, hi - 1)
        d = 4 + s
        add(d + 2, 2 * lo - 2, sign * hat_u[gl] * up[g] / c2)  # rho_{g-1}
        add(d, 2 * lo, sign * hat_u[g] * um[g] / c2)  # rho_g
        add(
            d + 1,
            2 * lo - 1,
            sign
            * (m[gl] * sp[g] + m[g] * sm[g] + 0.5 * rho[gl] * up[g] + 0.5 * rho[g] * um[g])
            / c2,
        )  # u_g
        lo2 = max(lo, 2)  # u_{g-1} is an unknown for g >= 2
        add(d + 3, 2 * lo2 - 3, sign * 0.5 * rho[lo2 - 1 : hi - 1] * up[lo2:hi] / c2)
        hi2 = min(hi, n - 1)  # u_{g+1} is an unknown for g <= N-2
        add(d - 1, 2 * lo + 1, sign * 0.5 * rho[lo:hi2] * um[lo:hi2] / c2)

    mflux_block(2, n, -3, +1.0)  # g = f+1, row 2f-1 = 2g-3
    mflux_block(1, n - 1, +1, -1.0)  # g = f-1, row 2f-1 = 2g+1
    return ab


def assemble_jacobian(
    prev: FluidState,
    trial: FluidState,
    grid: GridSpec,
    params: PhysParams,
) -> scipy.sparse.csr_matrix:
    """Exact Jacobian of assemble_residual w.r.t. (trial.rho, interior trial.u).

    Rows follow the interleaved unknown ordering (rho_0, u_1, rho_1, ...);
    ``prev`` only sets the time-difference origin, so it never appears in the
    derivative.  Upwind kinks use the active-set convention.  This is the
    band Newton solves with, in CSR form.
    """
    import scipy.sparse  # Newton never needs the CSR form, so the CLI skips this import

    del prev  # the residual is affine in the old state
    ab = _jacobian_ab(trial.rho, trial.u, grid, params)
    size = ab.shape[1]
    offsets = _BANDS[1] - np.arange(ab.shape[0])
    return scipy.sparse.dia_matrix((ab, offsets), shape=(size, size)).tocsr()


# ======================================================================
# Nonlinear solves
# ======================================================================


def _band_lu(
    rho: np.ndarray, u: np.ndarray, grid: GridSpec, params: PhysParams
) -> tuple[np.ndarray, np.ndarray, int]:
    """LAPACK banded LU of the Newton Jacobian: (lu, piv, info), info > 0 at a zero pivot.

    The band is written straight into rows 4.. of the Fortran-ordered work
    array; rows 0..3 take the fill-in of partial pivoting.  This is the
    factorization that scipy.linalg.solve_banded performs.
    """
    kl, ku = _BANDS
    work = np.zeros((2 * kl + ku + 1, 2 * rho.size - 1), order="F")
    _jacobian_ab(rho, u, grid, params, work[kl:])
    return dgbtrf(work, kl, ku, overwrite_ab=1)


def _interleave(cont: np.ndarray, mom: np.ndarray) -> np.ndarray:
    out = np.empty(cont.size + mom.size)
    out[0::2] = cont
    out[1::2] = mom
    return out


def _positivity_step(rho: np.ndarray, drho: np.ndarray) -> tuple[float, int]:
    """Halve the step length lam from 1 until rho + lam*drho stays strictly positive."""
    lam, backtracks = 1.0, 0
    while (rho + lam * drho).min() <= 0.0:
        lam *= 0.5
        backtracks += 1
        if backtracks > 200:
            raise FloatingPointError("positivity backtracking collapsed the step")
    return lam, backtracks


def _continuation(
    prev: FluidState,
    rho_old: np.ndarray,
    w_old: np.ndarray,
    grid: GridSpec,
    params: PhysParams,
    cfg: SolverConfig,
    tol: float,
    k: int,
    history: list[float],
    cont: np.ndarray,
    mom: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int, float, np.ndarray]:
    """Pseudo-transient continuation from ``prev`` to a residual <= tol:
    (rho, u, steps, residual max-norm, continuity residual).

    It starts from ``prev`` with the residual (cont, mom) there, which
    Newton's last attempt, always from ``prev``, evaluated and put in history.

    Each step is a Newton step on the band with the time terms' diagonal
    added once more over tau (1/dt on continuity rows, (rho_{f-1} + rho_f)/(4 dt)
    on momentum rows), so the pseudo-time step is tau*dt.  tau starts at 1
    and follows switched evolution relaxation, tau*|F_old|/|F_new| (W. Mulder
    and B. van Leer, J. Comput. Phys. 59 (1985) 232-246; C. T. Kelley and
    D. E. Keyes, SIAM J. Numer. Anal. 35 (1998) 508-523).  Every step is taken,
    halved only to keep each density positive.
    """
    kl, ku = _BANDS
    rho, u = prev.rho.copy(), prev.u.copy()
    tau, nr_old, steps = 1.0, math.nan, 0

    def fail(why: str) -> StepFailure:
        return StepFailure(f"continuation {why}", k, history, float(np.min(rho)))

    while True:
        nr = _max_norm(cont, mom)
        if steps:  # Newton put the norm at prev in history
            history.append(nr)
        if not math.isfinite(nr):
            raise fail("met a non-finite residual")
        if nr <= tol:  # tol > 0, so an exact zero ends here
            return rho, u, steps, nr, cont
        if steps == cfg.fallback:
            raise fail("exhausted its step budget")
        if steps:
            tau *= nr_old / nr
        work = np.zeros((2 * kl + ku + 1, 2 * rho.size - 1), order="F")
        band = _jacobian_ab(rho, u, grid, params, work[kl:])
        band[4, 0::2] += 1.0 / (tau * grid.dt)
        band[4, 1::2] += (rho[:-1] + rho[1:]) / (4.0 * tau * grid.dt)
        lu, piv, info = dgbtrf(work, kl, ku, overwrite_ab=1)
        if info != 0:
            raise fail("met a zero pivot")
        delta, _ = dgbtrs(lu, kl, ku, -_interleave(cont, mom), piv)
        try:
            lam, _ = _positivity_step(rho, delta[0::2])
        except FloatingPointError:
            raise fail("collapsed its step to keep the density positive") from None
        rho = rho + lam * delta[0::2]
        u = u.copy()
        u[1:-1] += lam * delta[1::2]
        nr_old, steps = nr, steps + 1
        cont, mom, _ = _residual_arrays(rho_old, w_old, rho, u, grid, params)


def _tolerances(cfg: SolverConfig, nr0: float) -> tuple[float, float]:
    """(tol, floor) of a step whose residual at its old state has max-norm nr0."""
    tol = cfg.newton_tol if cfg.newton_tol is not None else 1e-10 * (1.0 + nr0)
    return tol, cfg.polish_floor * (1.0 + nr0)


def _check_divergence_bound(
    prev: FluidState,
    rho: np.ndarray,
    u: np.ndarray,
    cont: np.ndarray,
    grid: GridSpec,
    k: int,
    history: list[float],
) -> None:
    """Hard check of the accepted state against operators.positivity_floor.

    Violations indicate a solver bug.  (The commonly quoted variant with
    max|u| in place of the divergence is generally false for this
    discretization - wall cells break it - and is only *reported*, by
    diagnostics.positivity_report.)
    """
    bound = positivity_floor(prev.rho, diff_cell(u, grid.dx), cont, grid.dt)
    if float(np.min(rho)) < bound - 1e-12 * (1.0 + bound):
        raise StepFailure(
            "accepted state undercuts the provable positivity floor", k, history, float(np.min(rho))
        )


# A step that overflows or meets NaN fails through its own finiteness tests
# (the residual norm, the Newton update, the fallback's residual norm), so
# numpy's warnings would only repeat them.
@np.errstate(over="ignore", invalid="ignore")
def advance(
    prev: FluidState,
    grid: GridSpec,
    params: PhysParams,
    cfg: SolverConfig | None = None,
    carry: list | None = None,
) -> tuple[FluidState, StepMeta]:
    """One implicit step from ``prev``; returns the new state and its StepMeta.

    Iterations are counted as residual evaluations, so a state that already
    satisfies the scheme (e.g. any constant state) reports one iteration and
    performs zero linear solves.

    ``carry`` is the slot that march() threads from step to step: a list that
    is empty or holds the _Handover of the step that made ``prev`` (one made
    for another state is ignored).  With a handover the first update is a
    chord step with its factors instead of a fresh factorization; from
    iterate 2 on Newton refactors while the residual is above tol, as
    without a slot.  If every density of
    2*prev - before is positive, Newton starts there instead of at ``prev``,
    and tol and floor come from the handover's norm, the residual at
    ``prev``; should Newton give up from there, it retries from ``prev``
    with no factors in hand.  A step accepted by Newton with factors in hand
    leaves its handover in the slot; a fallback empties it.  Without a slot
    every step starts from ``prev`` and factors at iterate 1.
    """
    cfg = cfg or SolverConfig()
    if prev.N != grid.N:
        raise ValueError("state/grid size mismatch")
    rho_old, w_old = _old_fields(prev)
    k = prev.k + 1

    history: list[float] = []
    tol = floor = math.nan
    backtracks = factorizations = 0
    handover = carry[0] if carry and carry[0].state is prev else None
    factors = handover.factors if handover is not None else None
    starts = []  # (rho, u, factors) for each Newton attempt, in turn
    if handover is not None and math.isfinite(handover.norm):
        rho = 2.0 * prev.rho - handover.before.rho
        if rho.min() > 0.0:
            starts.append((rho, 2.0 * prev.u - handover.before.u, factors))
            tol, floor = _tolerances(cfg, handover.norm)
            factors = None  # a retry from prev factors afresh, as without a slot
    extrapolated = bool(starts)
    starts.append((prev.rho.copy(), prev.u.copy(), factors))

    for rho, u, factors in starts:
        roundoff: float | None = None
        nr_prev = math.inf
        for it in range(1, cfg.max_newton_iters + 1):
            cont, mom, terms = _residual_arrays(rho_old, w_old, rho, u, grid, params)
            nr = _max_norm(cont, mom)
            history.append(nr)
            if it == 1:  # the last attempt's is at prev, where a fallback starts
                at_prev = cont, mom
            if not math.isfinite(nr):
                break  # give up: retry from prev, or fall back
            if it == 1 and not extrapolated:
                tol, floor = _tolerances(cfg, nr)
            stalled = nr > 0.5 * nr_prev
            done = nr <= tol and (nr <= floor or stalled or it == cfg.max_newton_iters)
            if not done and nr <= tol:
                if roundoff is None:  # taken once, at the first iterate it can decide
                    roundoff = _ROUNDOFF_C * _EPS * _term_scale(rho_old, w_old, rho, terms, grid)
                done = nr <= roundoff
            if done:
                meta = StepMeta(
                    len(history), nr, tol, floor, backtracks, False, 0, factorizations,
                    extrapolated,
                )
                _check_divergence_bound(prev, rho, u, cont, grid, k, history)
                state = FluidState(rho=rho, u=u, k=k)
                if carry is not None and factors is not None:
                    carry[:] = [_Handover(state, prev, factors, _rest_norm(terms, grid.dx))]
                return state, meta
            if (it >= 5 and stalled and nr > tol) or it == cfg.max_newton_iters:
                break  # diverging or out of iterations

            # Chord steps: the carried factors at iterate 1, and the polish
            # below tol; above tol from iterate 2 on, refactor.
            if factors is None or (nr > tol and it > 1):
                factors = _band_lu(rho, u, grid, params)
                factorizations += 1
            lu, piv, info = factors
            if info != 0:
                break  # exact zero pivot
            delta, _ = dgbtrs(lu, *_BANDS, -_interleave(cont, mom), piv)
            if not np.isfinite(delta).all():
                break
            drho = delta[0::2]
            du = delta[1::2]
            try:
                lam, bt = _positivity_step(rho, drho)
            except FloatingPointError:
                break
            backtracks += bt
            rho = rho + lam * drho
            u = u.copy()
            u[1:-1] += lam * du
            nr_prev = nr

    if carry is not None:
        carry.clear()
    rho, u, steps, nr, cont = _continuation(
        prev, rho_old, w_old, grid, params, cfg, tol, k, history, *at_prev
    )
    meta = StepMeta(
        len(history), nr, tol, floor, backtracks, True, steps, factorizations, extrapolated
    )
    _check_divergence_bound(prev, rho, u, cont, grid, k, history)
    return FluidState(rho=rho, u=u, k=k), meta


def march(
    scenario,
    grid: GridSpec,
    params: PhysParams,
    cfg: SolverConfig | None = None,
) -> Iterator[tuple[FluidState, StepMeta | None]]:
    """March the scheme from the scenario's initial data to grid.T, one state at a time.

    Yields (initial state, None), then (state, meta) for each accepted step,
    meta being that step's StepMeta, as soon as the state exists.  It keeps
    only the current state and the _Handover one step leaves the next (the
    state before it, the last factors and a residual norm), so a caller that
    keeps nothing marches in O(N) memory.  ``scenario`` is a
    harness.ScenarioConfig, or anything with its resolved profiles
    ``rho0_fn`` and ``u0_fn``.  It steps at whatever ``grid.dt`` is; a
    scenario's levels get theirs from ``ScenarioConfig.grid_for``, as
    dt = dt_over_dx * dx.  A failed step raises StepFailure "run aborted: ...".
    """
    cfg = cfg or SolverConfig()
    state = init_state(grid, scenario.rho0_fn, scenario.u0_fn)
    yield state, None
    carry: list = []  # the _Handover one step leaves the next
    for _ in range(grid.M_steps):
        try:
            state, meta = advance(state, grid, params, cfg, carry)
        except StepFailure as exc:
            raise StepFailure(
                f"run aborted: {exc.message}", exc.k, exc.residual_history, exc.min_rho
            ) from exc
        yield state, meta


def run(
    scenario,
    grid: GridSpec,
    params: PhysParams,
    cfg: SolverConfig | None = None,
) -> Trajectory:
    """Every state march() yields, kept in a Trajectory."""
    states = []
    metas = []
    for state, meta in march(scenario, grid, params, cfg):
        states.append(state)
        if meta is not None:
            metas.append(meta)
    return Trajectory(
        grid=grid,
        params=params,
        states=tuple(states),
        solver_meta=tuple(metas),
    )
