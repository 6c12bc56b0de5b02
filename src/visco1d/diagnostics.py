"""Exact discrete identities and functionals for staggered upwind trajectories.

Everything here is post-processing of the time levels a run produces.  The
central design rule: every estimate that is classically written with unknown
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

The identities are accumulators, fed blocks of consecutive time levels: the
initial level alone, then the new levels of the following steps.  A block's
derived arrays (hat(u), the upwind split, diff_cell(u), the pressure, the
donor-cell fluxes, the momentum rho*hat(u), ...) are computed once, row by
row, and shared by every accumulator fed that block; each scalar that sums
over steps is still added one level at a time, so any block length gives the
same bits.  level_summary walks a refinement level's states as march yields
them in blocks of _LEVEL_BLOCK levels, which pays numpy's per-call cost,
most of a level's time, once per block.  IdentitySuite (``visco1d verify``)
and the public functions, which walk a run's states, kept or as march
yields them, through one accumulator each, take a level at a time: a
block's work arrays are B levels' worth, which their memory bounds do not
leave room for.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .grid import FluidState, GridSpec, PhysParams, Trajectory, gauss_panels
from .operators import (
    continuity_residual,
    dirichlet_inv_grad,
    face_momentum,
    hat,
    momentum_convection,
    neumann_inv_grad,
    positivity_floor,
    split_upwind,
    upwind_flux,
)

__all__ = [
    "Check",
    "IdentitySuite",
    "identity_checks",
    "mass_drift",
    "summarize_orders",
    "energy_ledger",
    "renorm_residual",
    "positivity_report",
    "flux_ledger",
    "error_rates",
    "STUDY_MIN_LEVELS",
    "check_study_levels",
    "check_checkpoint",
    "level_summary",
    "walk_blocks",
    "linear_l2_sq",
    "rates_from_levels",
    "boundedness",
    "weak_residual_continuity",
    "weak_residual_momentum",
    "norm_suite",
    "mass_history",
    "effective_newton_tol",
    "rho_power_integral",
    "duality_check",
]


# ======================================================================
# Levels, accumulators and walks
# ======================================================================


class _derived:
    """A _Level array, computed on first use and then kept in the level:
    functools.cached_property without the lock that Python 3.11 takes on
    each first use, a third of its cost (a level is used by one thread)."""

    def __init__(self, make: Callable) -> None:
        self._make = make

    def __set_name__(self, owner, name: str) -> None:
        self._name = name

    def __get__(self, level, owner=None):
        value = level.__dict__[self._name] = self._make(level)
        return value


class _Level:
    """A block of B consecutive time levels and the arrays the identities
    derive from them: ``rho`` is (B, N), ``u`` (B, N+1), and ``rho_prev``
    holds each level's predecessor's density (None for level 0).

    Each array is computed on first use and then shared by every accumulator
    the block is fed to, by the expression each of them used on its own, so
    sharing changes no bit; and each is computed row by row along the last
    axis, so a block gives the bits of its levels fed one at a time.
    """

    def __init__(self, rho: np.ndarray, u: np.ndarray, grid: GridSpec, params: PhysParams,
                 rho_prev: np.ndarray | None = None):
        self.rho, self.u, self.rho_prev = rho, u, rho_prev
        self._dx, self._params = grid.dx, params

    hat_u = _derived(lambda lv: hat(lv.u))
    split = _derived(lambda lv: split_upwind(lv.u))  # (u+, u-)
    # np.diff's bits along the rows, without its per-call cost
    diff_u = _derived(lambda lv: lv.u[:, 1:] - lv.u[:, :-1])
    diff_hat = _derived(lambda lv: lv.hat_u[:, 1:] - lv.hat_u[:, :-1])
    du = _derived(lambda lv: lv.diff_u / lv._dx)  # diff_cell(u, dx)
    abs_u = _derived(lambda lv: np.abs(lv.u))
    # each level's density change rho_prev - rho, and its jumps across the
    # interior faces, right minus left and left minus right
    fall = _derived(lambda lv: lv.rho_prev - lv.rho)
    jump = _derived(lambda lv: lv.rho[:, 1:] - lv.rho[:, :-1])
    jump_back = _derived(lambda lv: lv.rho[:, :-1] - lv.rho[:, 1:])
    rho_g = _derived(lambda lv: lv.rho**lv._params.gamma)
    # PhysParams.pressure and pressure_potential, from the shared rho**gamma
    p = _derived(lambda lv: lv._params.a * lv.rho_g)
    pot = _derived(lambda lv: lv.p / (lv._params.gamma - 1.0))
    mass_flux = _derived(lambda lv: upwind_flux(lv.rho, *lv.split))
    mom = _derived(lambda lv: lv.rho * lv.hat_u)
    mom_flux = _derived(lambda lv: upwind_flux(lv.mom, *lv.split))


def _per_level(*series: np.ndarray) -> Iterator[tuple[float, ...]]:
    """The entries of each (B,) series, level by level, as Python floats:
    the sums over steps then add one level at a time, in order."""
    return zip(*[a.tolist() for a in series])


def _before(last: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Each row's predecessor: ``last``, the (1, n) row before the block,
    then the block's rows but its last."""
    return last if len(block) == 1 else np.concatenate((last, block[:-1]))


class _Accumulator:
    """A diagnostic fed a block of time levels at a time: ``start`` takes
    level 0 alone, ``push`` each later block, and ``result()`` gives the
    diagnostic.  What an accumulator needs of the level before a block
    beyond its density (``rho_prev``) it keeps itself, so only that much
    outlives a block.
    """

    def start(self, level: _Level) -> None:
        pass


# Levels per block of walk_blocks.  Each numpy call then serves B levels,
# which pays its fixed cost once per block, while a block's work arrays are
# B levels' worth (6 and 8 were measured no faster).
_LEVEL_BLOCK = 4


class _Walk:
    """Feeds blocks of consecutive levels, in order, to accumulators: level 0
    alone to ``start``, the rest to ``push``.  level_summary feeds it blocks
    of _LEVEL_BLOCK levels, IdentitySuite and _walk blocks of one level (see
    the module docstring)."""

    def __init__(self, grid: GridSpec, params: PhysParams, accumulators) -> None:
        self._grid, self._params = grid, params
        self._accumulators = tuple(accumulators)
        self._rho_last: np.ndarray | None = None

    def feed(self, rho: np.ndarray, u: np.ndarray) -> None:
        """Feed the next (B, N) densities and (B, N+1) velocities."""
        if self._rho_last is None:
            level = _Level(rho[:1], u[:1], self._grid, self._params)
            for acc in self._accumulators:
                acc.start(level)
            self._rho_last, rho, u = rho[:1], rho[1:], u[1:]
            if not len(rho):
                return
        cur = _Level(rho, u, self._grid, self._params, _before(self._rho_last, rho))
        for acc in self._accumulators:
            acc.push(cur)
        self._rho_last = rho[-1:]


def walk_blocks(grid: GridSpec, params: PhysParams, states: Iterable[FluidState],
                *accumulators) -> None:
    """Feed a run's ``states`` from level 0, as they come, to ``accumulators``
    (each with ``start`` and ``push``) in blocks of _LEVEL_BLOCK levels."""
    walk, states = _Walk(grid, params, accumulators), iter(states)
    while block := list(itertools.islice(states, _LEVEL_BLOCK)):
        walk.feed(np.array([s.rho for s in block]), np.array([s.u for s in block]))


def _walk(grid: GridSpec, params: PhysParams, states: Iterable[FluidState],
          acc: _Accumulator, steps: int | None = None):
    """``acc``'s result over a run's ``states`` from level 0, fed one at a time: every
    level, or levels 0..``steps`` and no further (a shorter run raises ValueError)."""
    walk, fed = _Walk(grid, params, (acc,)), 0
    for fed, state in enumerate(itertools.islice(states, None if steps is None else steps + 1)):
        walk.feed(state.rho[None], state.u[None])
    if steps is not None and fed < steps:
        raise ValueError(f"{steps} steps were asked for, but the run has {fed}")
    return acc.result()


def _running(pick, current: float | None, value: float) -> float:
    """``pick`` (min or max) of a series so far, as ``pick`` over the whole series gives it."""
    return value if current is None else pick(current, value)


class _Density(_Accumulator):
    """Total mass dx * sum(rho) at every level (``result``), and the range
    (lo, hi) of the density over every cell and level."""

    lo = hi = None

    def __init__(self, grid: GridSpec, steps: int):
        self.dx = grid.dx
        self.sums = np.empty(steps + 1)
        self.k = 0

    def start(self, level: _Level) -> None:
        self.push(level)

    def push(self, cur: _Level) -> None:
        rho = cur.rho
        self.sums[self.k : self.k + len(rho)] = rho.sum(axis=1)
        self.k += len(rho)
        for lo, hi in _per_level(rho.min(axis=1), rho.max(axis=1)):
            self.lo = _running(min, self.lo, lo)
            self.hi = _running(max, self.hi, hi)

    def result(self) -> np.ndarray:
        return self.dx * self.sums


def mass_history(traj: Trajectory) -> np.ndarray:
    """Total mass dx * sum(rho) at every time level (index 0..M)."""
    return _walk(traj.grid, traj.params, traj.states, _Density(traj.grid, len(traj) - 1))


# The tolerance a run without steps reports: the adaptive rule's
# 1e-10 * (1 + r0) at r0 = 0.
_EMPTY_RUN_TOL = 1e-10


def effective_newton_tol(traj: Trajectory) -> float:
    """Largest per-step acceptance tolerance the solver actually applied."""
    return max((meta.tol for meta in traj.solver_meta), default=_EMPTY_RUN_TOL)


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
    b_old: np.ndarray, b: np.ndarray, db: np.ndarray, lv: _Level
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unscaled convexity gaps B(y) - B(x) - B'(x)(y - x) of a block of steps.

    ``b_old``, ``b`` and ``db`` are B(rho_old), B(rho) and B'(rho) per cell,
    one row per step of ``lv``.
    Returns (time, right, left): the gap from rho to rho_old in every cell,
    and at every interior face the gap from the left cell to the right one
    (right) and from the right cell to the left one (left).
    """
    time = b_old - b - db * lv.fall
    bl, br = b[:, :-1], b[:, 1:]
    right = br - bl - db[:, :-1] * lv.jump
    left = bl - br - db[:, 1:] * lv.jump_back
    return time, right, left


_ENERGY_TERMS = ("dissipation", "N1", "N2", "N3", "N4")  # EnergyLedger's order


class _Energy(_Accumulator):
    """energy_ledger, one block of steps at a time (see there).

    The cumulative columns are running sums, which are np.cumsum's bits,
    and ``min_increment`` is the smallest step increment of N1..N4 as
    EnergyLedger.step_increments takes them.  The identity checks read only
    that and ``balance``, so without ``columns`` no other series is kept.
    """

    def __init__(self, grid: GridSpec, params: PhysParams, steps: int, columns: bool = True):
        self.grid, self.params = grid, params
        names = ("energy", *_ENERGY_TERMS)
        self.columns = {name: np.zeros(steps + 1) for name in names} if columns else None
        self.balance = np.empty(steps + 1)
        self.totals = [0.0] * len(_ENERGY_TERMS)
        self.min_increment = math.inf
        self.k = 0

    def _energy_sums(self, lv: _Level) -> np.ndarray:
        """Each level's energy, over dx."""
        return (0.5 * lv.rho * lv.hat_u**2 + lv.pot).sum(axis=1)

    def start(self, level: _Level) -> None:
        self.hat_last, self.pot_last = level.hat_u, level.pot
        self.energy0 = self.grid.dx * float(self._energy_sums(level)[0])
        self._record(self.energy0)

    def push(self, cur: _Level) -> None:
        pp = self.params
        dt, dx = self.grid.dt, self.grid.dx
        du_sq = np.vecdot(cur.du, cur.du)

        dpot = pp.dpressure(cur.rho) / (pp.gamma - 1.0)
        time_gap, gap_right, gap_left = _convexity_gaps(
            _before(self.pot_last, cur.pot), cur.pot, dpot, cur
        )
        up, um = cur.split
        hat_prev = _before(self.hat_last, cur.hat_u)
        sums = (
            du_sq, time_gap.sum(axis=1),
            np.vecdot(gap_right, um[:, 1:-1]), np.vecdot(gap_left, up[:, 1:-1]),
            (0.5 * cur.rho_prev * (cur.hat_u - hat_prev) ** 2).sum(axis=1),
            (0.5 * np.abs(cur.mass_flux[:, 1:-1]) * cur.diff_hat**2).sum(axis=1),
            self._energy_sums(cur),
        )
        self.hat_last, self.pot_last = cur.hat_u[-1:], cur.pot[-1:]

        for du2, gap, gap_r, gap_l, kin, jump, energy in _per_level(*sums):
            incs = (pp.mu * dt * dx * du2, dx * gap, dt * (-gap_r + gap_l), dx * kin, dt * jump)
            self.k += 1
            # np.cumsum starts from the first increment itself, not from 0.0 plus it.
            totals = incs if self.k == 1 else [t + inc for t, inc in zip(self.totals, incs)]
            for old, new in zip(self.totals[1:], totals[1:]):
                # np.minimum, not min(): a NaN step must fail the check.
                self.min_increment = float(np.minimum(self.min_increment, new - old))
            self.totals = totals
            self._record(dx * energy)

    def _record(self, energy: float) -> None:
        dissipation, n1, n2, n3, n4 = self.totals
        self.balance[self.k] = abs(energy - self.energy0 + dissipation + n1 + n2 + n3 + n4)
        if self.columns is not None:
            for column, value in zip(self.columns.values(), (energy, *self.totals)):
                column[self.k] = value

    def result(self) -> EnergyLedger:
        return EnergyLedger(*self.columns.values(), self.balance)


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
    return _walk(traj.grid, traj.params, traj.states, _Energy(traj.grid, traj.params, len(traj) - 1))


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
    """max |B'| over [lo, hi], by dense sampling (covers interior extrema).

    B' is taken 512 samples at a time, so that its temporaries stay small.
    """
    if not (0.0 < lo <= hi):
        raise ValueError("derivative range must be positive and ordered")
    z = np.linspace(lo, hi, samples)
    sup = 0.0
    for start in range(0, samples, 512):
        vals = np.abs(np.asarray(B.deriv(z[start : start + 512]), dtype=float))
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"B'{B.name and f' ({B.name})'} is not finite on [{lo}, {hi}]")
        sup = max(sup, float(np.max(vals)))
    return sup


def _check_on_range(B: BFunction, lo: float, hi: float) -> None:
    """Reject a B that is not finite and C^1 on the density range [lo, hi]."""
    sup_abs_deriv(B, lo, hi, samples=257)
    if not np.all(np.isfinite(np.asarray(B.value(np.array([lo, hi]))))):
        raise ValueError(f"B ({B.name}) is not finite on the density range")


class _Renorm(_Accumulator):
    """renorm_residual's rows for one B, one block of steps at a time;
    ``result`` is their max-norm, and ``rows``, if given, receives every row."""

    def __init__(self, B: BFunction, grid: GridSpec, rows: np.ndarray | None = None):
        self.B, self.grid, self.rows = B, grid, rows
        self.k = 0
        self.worst = -math.inf

    def start(self, level: _Level) -> None:
        self.bv_last = np.asarray(self.B.value(level.rho), dtype=float)

    def row(self, cur: _Level) -> np.ndarray:
        """The block's rows of renorm_residual (see there)."""
        B, dt, dx = self.B, self.grid.dt, self.grid.dx
        rho = cur.rho
        bv = np.asarray(B.value(rho), dtype=float)
        bp = np.asarray(B.deriv(rho), dtype=float)
        small_b = rho * bp - bv

        bv_prev = _before(self.bv_last, bv)
        time_gap, gap_right, gap_left = _convexity_gaps(bv_prev, bv, bp, cur)
        up, um = cur.split
        spatial = np.zeros(rho.shape)
        spatial[:, :-1] -= gap_right * um[:, 1:-1] / dx
        spatial[:, 1:] += gap_left * up[:, 1:-1] / dx
        self.bv_last = bv[-1:]
        return (
            continuity_residual(bv_prev, bv, upwind_flux(bv, up, um), dt, dx)
            + small_b * cur.du
            + time_gap / dt
            + spatial
        )

    def push(self, cur: _Level) -> None:
        rows = self.row(cur)
        if self.rows is not None:
            self.rows[self.k : self.k + len(rows)] = rows
        self.k += len(rows)
        # np.maximum, not max(): a NaN step must fail the check.
        self.worst = float(np.maximum(self.worst, np.abs(rows).max()))

    def result(self) -> float:
        return self.worst


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
    density = _Density(traj.grid, len(traj) - 1)
    _walk(traj.grid, traj.params, traj.states, density)
    _check_on_range(B, density.lo, density.hi)
    rows = np.empty((len(traj) - 1, traj.grid.N))
    _walk(traj.grid, traj.params, traj.states, _Renorm(B, traj.grid, rows))
    return rows


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


class _Positivity(_Accumulator):
    """positivity_report, one block of steps at a time."""

    def __init__(self, grid: GridSpec, steps: int):
        self.grid = grid
        self.min_rho, self.bound, self.div_bound = (np.empty(steps) for _ in range(3))
        self.k = 0

    def push(self, cur: _Level) -> None:
        g, rho_prev, rho = self.grid, cur.rho_prev, cur.rho
        steps = slice(self.k, self.k + len(rho))
        self.min_rho[steps] = rho.min(axis=1)
        self.bound[steps] = rho_prev.min(axis=1) / (1.0 + g.dt * cur.abs_u.max(axis=1))
        res = continuity_residual(rho_prev, rho, cur.mass_flux, g.dt, g.dx)
        self.div_bound[steps] = positivity_floor(rho_prev, cur.du, res, g.dt)
        self.k += len(rho)

    def result(self) -> PositivityReport:
        min_rho, bound, div_bound = self.min_rho, self.bound, self.div_bound
        return PositivityReport(min_rho, bound, min_rho - bound, div_bound, min_rho - div_bound)


def positivity_report(traj: Trajectory) -> PositivityReport:
    return _walk(traj.grid, traj.params, traj.states, _Positivity(traj.grid, len(traj) - 1))


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


def check_checkpoint(m: int | None, steps: int) -> int:
    """The flux checkpoint m of a run of ``steps`` steps: 1..steps, None the last."""
    m = steps if m is None else m
    if not (1 <= m <= steps):
        raise ValueError(f"checkpoint m={m} outside 1..{steps}")
    return m


class _Flux(_Accumulator):
    """flux_ledger through the last step pushed, one block of steps at a time
    (through level 0 alone, E1, E2 and the identity gap are 0)."""

    def __init__(self, grid: GridSpec, params: PhysParams):
        self.grid, self.params = grid, params
        self.m = 0
        self.lhs = self.s1 = self.s2 = self.e1 = self.e2 = 0.0
        self.mean_flux = self.transport = 0.0

    def start(self, level: _Level) -> None:
        self.w_last, self.rho_last = face_momentum(level.mom), level.rho
        g_init = dirichlet_inv_grad(self.w_last[0], self.grid.dx)
        self.boundary_initial = self.grid.dx * float(g_init @ level.rho[0])

    def push(self, cur: _Level) -> None:
        pp = self.params
        dt, dx = self.grid.dt, self.grid.dx
        rho = cur.rho
        rbar = rho.sum(axis=1) / rho.shape[1]  # np.mean's bits, at less cost
        centred = rho - rbar[:, None]
        v = neumann_inv_grad(centred, dx)[:, 1:-1]
        w = face_momentum(cur.mom)
        dw = w - _before(self.w_last, w)
        mom_flux = cur.mom_flux
        inner = mom_flux[:, 1:-1]
        sums = (
            rbar, ((pp.mu * cur.du - cur.p) * centred).sum(axis=1),
            np.vecdot(dw, v), np.vecdot(momentum_convection(mom_flux, dx), v),
            inner.sum(axis=1), np.vecdot(inner, 0.5 * (rho[:, :-1] + rho[:, 1:])),
            np.vecdot(cur.mass_flux[:, 1:-1], dw),
            (0.5 * rho[:, :-1] * rho[:, 1:] * cur.abs_u[:, 1:-1] * cur.diff_hat).sum(axis=1),
        )
        for mean, lhs, s1, s2, flux, transport, e1, e2 in _per_level(*sums):
            self.lhs += -dt * dx * lhs
            self.s1 += dx * s1
            self.s2 += dt * dx * s2
            self.mean_flux += dt * dx * mean * flux
            self.transport += dt * dx * transport
            self.e1 += -dt * dx * e1
            self.e2 += dt * dx * e2
        self.w_last, self.rho_last = w[-1:], rho[-1:]
        self.m += len(rho)

    def result(self) -> FluxLedger:
        dx = self.grid.dx
        g_term = dirichlet_inv_grad(self.w_last[0], dx)
        return FluxLedger(
            m=self.m,
            lhs=self.lhs,
            S1=self.s1,
            S2=self.s2,
            E1=self.e1,
            E2=self.e2,
            mean_flux=self.mean_flux,
            boundary_terminal=-dx * float(g_term @ self.rho_last[0]),
            boundary_initial=self.boundary_initial,
            transport=self.transport,
        )


def flux_ledger(grid: GridSpec, params: PhysParams, states: Iterable[FluidState],
                m: int | None = None) -> FluxLedger:
    """The flux identity through step m (default: grid.M_steps) over a run's states, kept or
    as march yields them: levels 0..m are read and no more; a shorter run raises ValueError."""
    m = check_checkpoint(m, grid.M_steps)
    return _walk(grid, params, states, _Flux(grid, params), steps=m)


# ======================================================================
# Weak-form residuals
# ======================================================================


class _Mode(NamedTuple):
    """What the weak residuals need of one sine mode X = sin(pi j x / L).

    Per cell i, by its 5-point Gauss rule: mx, mdx and mfdx are the sums of
    wx*X, wx*X' and wx*frac*X', where frac = x/dx - i is the weight of
    u_{i+1} in the velocity interpolant at the node.  Per interior face:
    gap_r and gap_l are the average of X over the cell on its right and on
    its left, minus X at the face, and dxf_r and dxf_l the jump of X across
    those cells.  Per cell, trace_gap is the trapezoid of X minus its Gauss
    integral.
    """

    mx: np.ndarray
    mdx: np.ndarray
    mfdx: np.ndarray
    gap_r: np.ndarray
    gap_l: np.ndarray
    trace_gap: np.ndarray
    dxf_r: np.ndarray
    dxf_l: np.ndarray


def _sine_mode(grid: GridSpec, j: int) -> _Mode:
    kj = math.pi * j / grid.L
    dx = grid.dx
    cells = np.arange(grid.N)
    x, wx = gauss_panels(cells * dx, (cells + 1) * dx)  # (N, 5) each
    frac = x / dx - cells[:, None]
    wdx = wx * (kj * np.cos(kj * x))
    mx = (wx * np.sin(kj * x)).sum(axis=1)
    xf = np.sin(kj * grid.face_nodes)
    dxf = np.diff(xf)
    return _Mode(
        mx=mx,
        mdx=wdx.sum(axis=1),
        mfdx=(frac * wdx).sum(axis=1),
        gap_r=mx[1:] / dx - xf[1:-1],
        gap_l=mx[:-1] / dx - xf[1:-1],
        trace_gap=0.5 * dx * (xf[:-1] + xf[1:]) - mx,
        dxf_r=dxf[1:],
        dxf_l=dxf[:-1],
    )


class _SineModes:
    """The test functions phi = X_j(x) tau(t) of the weak residuals, for the
    modes ``js``, with tau = (1 - t/T)^2 (see weak_residual_continuity).

    ``tbar[k-1]`` integrates tau over window k by a 5-point Gauss rule, and
    ``modes`` holds each X_j's _Mode.  Both equations' accumulators read
    them, so they are built once per run.
    """

    def __init__(self, grid: GridSpec, steps: int, js: Sequence[int]):
        self.js = tuple(js)
        windows = np.arange(steps)
        t, wt = gauss_panels(windows * grid.dt, (windows + 1) * grid.dt)
        self.tbar = (wt * (1.0 - t / grid.T) ** 2).sum(axis=1)
        # As (1, n) rows: numpy broadcasts them over a block's (B, n) arrays
        # at less cost than a 1-D array over a block of one.
        self.modes = tuple(_Mode(*(a[None] for a in _sine_mode(grid, j))) for j in self.js)


class _WeakContinuity(_Accumulator):
    """weak_residual_continuity at every mode of ``modes``, in one pass over
    the windows."""

    def __init__(self, grid: GridSpec, modes: _SineModes):
        self.dt, self.modes = grid.dt, modes
        self.k = 0
        self.lhs = [0.0] * len(modes.js)
        self.p1 = [0.0] * len(modes.js)

    def push(self, cur: _Level) -> None:
        rho, u = cur.rho, cur.u
        tbar = self.modes.tbar[self.k : self.k + len(rho)]
        self.k += len(rho)
        dt_rho = (rho - cur.rho_prev) / self.dt
        du, drho = cur.diff_u, cur.jump
        up, um = cur.split
        up_int, um_int = up[:, 1:-1], um[:, 1:-1]
        for i, m in enumerate(self.modes.modes):
            sums = (np.vecdot(dt_rho, m.mx), np.vecdot(rho, u[:, :-1] * m.mdx + du * m.mfdx),
                    np.vecdot(drho, up_int * m.gap_r + um_int * m.gap_l))
            for tk, time, transport, jumps in _per_level(tbar, *sums):
                self.lhs[i] += tk * (time - transport)
                self.p1[i] -= tk * jumps

    def result(self) -> list[tuple[float, float]]:
        return list(zip(self.lhs, self.p1))


class _WeakMomentum(_Accumulator):
    """weak_residual_momentum at every mode of ``modes``, in one pass over
    the windows."""

    def __init__(self, grid: GridSpec, params: PhysParams, modes: _SineModes):
        self.dt, self.mu, self.modes = grid.dt, params.mu, modes
        self.k = 0
        self.lhs = [0.0] * len(modes.js)
        self.p2 = [0.0] * len(modes.js)

    def start(self, level: _Level) -> None:
        self.mom_last = level.mom

    def push(self, cur: _Level) -> None:
        mom = cur.mom
        tbar = self.modes.tbar[self.k : self.k + len(mom)]
        self.k += len(mom)
        dt_mom = (mom - _before(self.mom_last, mom)) / self.dt
        cell_coeff = -(mom * cur.hat_u + cur.p - self.mu * cur.du)
        dmom = mom[:, 1:] - mom[:, :-1]
        up, um = cur.split
        up_int, um_int = up[:, 1:-1], um[:, 1:-1]
        for i, m in enumerate(self.modes.modes):
            sums = (np.vecdot(dt_mom, m.mx), np.vecdot(cell_coeff, m.mdx),
                    np.vecdot(dt_mom, m.trace_gap),
                    np.vecdot(dmom, up_int * m.dxf_r - um_int * m.dxf_l))
            for tk, time, cell, j1, j2 in _per_level(tbar, *sums):
                self.lhs[i] += tk * (time + cell)
                self.p2[i] -= tk * (j1 + 0.5 * j2)
        self.mom_last = mom[-1:]

    def result(self) -> list[tuple[float, float]]:
        return list(zip(self.lhs, self.p2))


def weak_residual_continuity(traj: Trajectory, j: int) -> tuple[float, float]:
    """Space-time weak residual of the density equation and its exact value.

    The test function is the sine mode phi = sin(pi j x / L) (1 - t/T)^2,
    which vanishes at both walls and at t = T.  Returns (lhs_weak, P1):
    lhs_weak integrates d_t^h rho_h * phi minus rho_h u_h phi_x over
    [0,T)x(0,L) by per-cell/per-window Gauss quadrature on the extended
    fields; P1 is the same quantity reduced to the closed upwind form
    coupling density jumps to the gap between cell-averaged and face traces
    of phi.  The two agree up to quadrature error plus the
    continuity residual paired with phi, which validates quadrature and
    assembly simultaneously.

    phi = X(x) tau(t) is separable, so each window's integrals are the
    window integral of tau times dot products with the per-cell moments of X.
    """
    modes = _SineModes(traj.grid, len(traj) - 1, (j,))
    return _walk(traj.grid, traj.params, traj.states, _WeakContinuity(traj.grid, modes))[0]


def weak_residual_momentum(traj: Trajectory, j: int) -> tuple[float, float]:
    """Weak residual of the momentum equation and its exact closed form.

    The test function is the sine mode v = sin(pi j x / L) (1 - t/T)^2, as
    in weak_residual_continuity.  Returns (lhs_weak, P2): lhs_weak
    integrates d_t^h(rho_h hat_u_h) v minus (rho_h hat_u_h^2 + p(rho_h)
    - mu (u_h)_x) v_x by Gauss quadrature; P2 is the exact mismatch between
    that integral and the face-collocated scheme, consisting of the
    cell-vs-face trace gap against the momentum time difference plus the
    upwind trace asymmetry of the convection term.  Pressure and viscosity
    pair exactly and leave no trace here.
    """
    modes = _SineModes(traj.grid, len(traj) - 1, (j,))
    return _walk(traj.grid, traj.params, traj.states, _WeakMomentum(traj.grid, traj.params, modes))[0]


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


def linear_l2_sq(d: np.ndarray, dx: float) -> float | np.ndarray:
    """Exact squared L2 norm of the piecewise-linear field with nodes d, spacing dx;
    of each row, for a block of fields."""
    dl, dr = d[..., :-1], d[..., 1:]
    return (dx / 3.0) * (dl * dl + dl * dr + dr * dr).sum(axis=-1)


class _Power(_Accumulator):
    """rho_power_integral: each window's sum over its cells, added in order."""

    def __init__(self, grid: GridSpec, power: float):
        self.scale, self.power, self.total = grid.dt * grid.dx, power, 0.0

    def push(self, cur: _Level) -> None:
        for (window,) in _per_level((cur.rho**self.power).sum(axis=1)):
            self.total += window

    def result(self) -> float:
        return self.scale * self.total


def rho_power_integral(traj: Trajectory, power: float | None = None) -> float:
    """Space-time integral of rho^power (default gamma+1) over [0,T)."""
    power = traj.params.gamma + 1.0 if power is None else power
    return _walk(traj.grid, traj.params, traj.states, _Power(traj.grid, power))


class _Norms(_Accumulator):
    """norm_suite, one block of levels at a time (see there)."""

    def __init__(self, grid: GridSpec, params: PhysParams, steps: int):
        self.dt, self.dx, self.gamma = grid.dt, grid.dx, params.gamma
        self.r = 2.0 * self.gamma / (self.gamma + 1.0)
        # One sum per level for each supremum-in-time norm.  Their roots are
        # taken over the whole series at once: numpy's vector power differs
        # from the scalar one in the last bit for some inputs, and the report
        # keeps them all.
        self.sum_rho_g, self.sum_p, self.sum_mom_r, self.sum_kin = (
            np.empty(steps + 1) for _ in range(4)
        )
        self.h1_sq = self.linf_sq = self.ru_g = self.ru2_r = 0.0
        self.k = 0

    def start(self, level: _Level) -> None:
        self.push(level)

    def push(self, cur: _Level) -> None:
        dt, dx, gamma, r = self.dt, self.dx, self.gamma, self.r
        rho, u, rho_g = cur.rho, cur.u, cur.rho_g
        levels = slice(self.k, self.k + len(rho))
        self.sum_rho_g[levels] = rho_g.sum(axis=1)
        self.sum_p[levels] = cur.p.sum(axis=1)
        self.sum_mom_r[levels] = (np.abs(cur.mom) ** r).sum(axis=1)
        self.sum_kin[levels] = (rho * cur.hat_u**2).sum(axis=1)
        self.k += len(rho)
        if cur.rho_prev is None:  # level 0 enters only the suprema
            return

        ul = u[:, :-1]
        slope = cur.diff_u / dx
        int_abs_u_g = _int_abs_linear_pow(ul, slope, dx, gamma)
        int_abs_u_2r = _int_abs_linear_pow(ul, slope, dx, 2.0 * r)
        sums = (linear_l2_sq(u, dx), (cur.diff_u**2).sum(axis=1), cur.abs_u.max(axis=1),
                (rho_g * int_abs_u_g).sum(axis=1), (rho**r * int_abs_u_2r).sum(axis=1))
        # The powers are Python's, one level at a time (see __init__).
        for l2, du2, u_max, ru_g_k, ru2_r_k in _per_level(*sums):
            self.h1_sq += dt * (l2 + du2 / dx)
            self.linf_sq += dt * u_max**2
            self.ru_g += dt * ru_g_k ** (2.0 / gamma)
            self.ru2_r += dt * ru2_r_k ** (2.0 / r)

    def result(self) -> dict[str, float]:
        dx, gamma, r = self.dx, self.gamma, self.r
        return {
            "rho_Linf_Lgamma": float(np.max((dx * self.sum_rho_g) ** (1.0 / gamma))),
            "pressure_Linf_L1": float(np.max(dx * self.sum_p)),
            "momentum_Linf_Lr": float(np.max((dx * self.sum_mom_r) ** (1.0 / r))),
            "kinetic_Linf_L1": float(np.max(dx * self.sum_kin)),
            "u_L2_H1": math.sqrt(self.h1_sq),
            "u_L2_Linf": math.sqrt(self.linf_sq),
            "rho_u_L2_Lgamma": math.sqrt(self.ru_g),
            "rho_u2_L2_Lr": math.sqrt(self.ru2_r),
        }


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
    return _walk(traj.grid, traj.params, traj.states, _Norms(traj.grid, traj.params, len(traj) - 1))


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


def error_rates(trajectories: Sequence[Trajectory]) -> dict[str, dict]:
    """Observed decay orders of the named error functionals across levels.

    Requires a study's worth of trajectories (check_study_levels) of the
    same scenario at increasing resolution, all at one dt/dx ratio and each
    with at least one step.  Orders are per-pair log ratios of successive magnitudes
    against the h-ratio; the headline ``order`` is their mean, or the string
    "exact" when every level is exactly zero.  The space-time integral of rho^(gamma+1) is reported
    with its max/min ratio as the boundedness proxy instead of an order.
    """
    trajs = sorted(trajectories, key=lambda tr: tr.grid.N)
    check_study_levels(len(trajs))
    kappa = trajs[0].grid.dt / trajs[0].grid.dx
    for tr in trajs:
        if abs(tr.grid.dt / tr.grid.dx - kappa) > 1e-12 * kappa:
            raise ValueError("error_rates requires one dt/dx ratio at every level")
        if len(tr) == 1:
            raise ValueError("error_rates needs at least one step at every level")
    return rates_from_levels([level_summary(tr.grid, tr.params, _marched(tr)) for tr in trajs])


# Three levels give two pair orders, the fewest whose agreement shows a rate.
STUDY_MIN_LEVELS = 3


def check_study_levels(count: int) -> None:
    """Reject a refinement study of fewer than STUDY_MIN_LEVELS levels."""
    if count < STUDY_MIN_LEVELS:
        raise ValueError(f"a refinement study needs at least {STUDY_MIN_LEVELS} levels")


class _Metas:
    """What a run's (state, meta) pairs tell of its steps, counted as they
    come; ``require_every_step`` refuses a run of other than ``steps`` steps."""

    def __init__(self, steps: int):
        self.steps, self.pushed, self.fallback_steps = steps, 0, 0
        self.max_tol = self.worst_res = None

    def count(self, meta) -> None:
        self.pushed += 1
        if meta is not None:
            self.max_tol = _running(max, self.max_tol, meta.tol)
            self.worst_res = _running(max, self.worst_res, meta.residual_norm)
            self.fallback_steps += meta.fallback_used

    def states(self, stream: Iterable[tuple[FluidState, object]]) -> Iterator[FluidState]:
        """The states of ``stream``, each counted as it passes."""
        for state, meta in stream:
            self.count(meta)
            yield state

    @property
    def tol(self) -> float:
        return _EMPTY_RUN_TOL if self.max_tol is None else self.max_tol

    def require_every_step(self) -> None:
        if self.pushed != self.steps + 1:
            raise ValueError(f"the run was declared for {self.steps} steps, but "
                             f"{max(self.pushed - 1, 0)} were pushed")


def _marched(traj: Trajectory) -> Iterator[tuple[FluidState, object]]:
    """A kept run's (state, meta) pairs, as march yields them."""
    return zip(traj.states, (None, *(traj.solver_meta or [None] * (len(traj) - 1))))


def level_summary(grid: GridSpec, params: PhysParams,
                  stream: Iterable[tuple[FluidState, object]], *also) -> dict:
    """One refinement level's row of the study, from one walk (walk_blocks)
    over a run's (state, meta) pairs as march yields them, which also feeds
    the accumulators ``also``, such as harness's Cauchy pair.

    "E1", "E2" and "flux_identity_gap" are absolute values from one
    flux_ledger over the whole run; "P1" and "P2" the absolute closed-form
    weak residuals against the sine modes 1 and 2.  A run without steps has
    no time window, so these and "rho_gamma_plus_1" are 0.0.
    """
    steps = grid.M_steps
    metas = _Metas(steps)
    density = _Density(grid, steps)
    energy = _Energy(grid, params, steps, columns=False)
    flux = _Flux(grid, params)
    # Mode 1 is even about L/2 and mode 2 odd.  A mirror-symmetric scenario
    # has an even density and an odd momentum, which pair with the other
    # parity to roundoff zeros, whose rate would be noise: so P1 at mode 1
    # and P2 at mode 2.
    continuity = _WeakContinuity(grid, _SineModes(grid, steps, (1,)))
    momentum = _WeakMomentum(grid, params, _SineModes(grid, steps, (2,)))
    positivity = _Positivity(grid, steps)
    norms = _Norms(grid, params, steps)
    power = _Power(grid, params.gamma + 1.0)
    walk_blocks(grid, params, metas.states(stream), density, energy, flux, continuity, momentum,
                positivity, norms, power, *also)
    metas.require_every_step()

    ledger = flux.result()
    return {
        "N": grid.N,
        "steps": steps,
        "fallback_steps": metas.fallback_steps,
        "mass_drift_rel": _drift(density.result()),
        "energy_balance_max": float(np.max(energy.balance)),
        "energy_tol": energy_budget(metas.tol, steps),
        "positivity_margin_min": positivity.result().worst_margin,
        "h": grid.dx,
        "E1": abs(ledger.E1),
        "E2": abs(ledger.E2),
        "P1": abs(continuity.result()[0][1]),
        "P2": abs(momentum.result()[0][1]),
        "rho_gamma_plus_1": power.result(),
        "flux_identity_gap": abs(ledger.identity_gap),
        **norms.result(),
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


def _drift(masses: np.ndarray) -> float:
    return float(np.max(np.abs(masses - masses[0]))) / masses[0]


def mass_drift(traj: Trajectory) -> float:
    """Largest change of the total mass over the run, relative to the initial mass."""
    return _drift(mass_history(traj))


def energy_budget(tol: float, steps: int) -> float:
    """Energy-balance and flux-identity budget after ``steps`` steps: 100*tol per step."""
    return 100.0 * tol * max(steps, 1)


# The sine modes at which the identity checks test the weak forms.
_CHECK_MODES = (1, 2, 3)


class IdentitySuite:
    """identity_checks and positivity_report of one run, fed as it is solved.

    ``push`` takes the initial state, then each accepted state with the
    StepMeta of the step that made it, as stepper.march yields them;
    ``steps`` is the number of steps that will be pushed, and ``checks``
    and ``positivity`` refuse a run with any other count.  One walk feeds
    every identity, each step's shared arrays are computed once, and no
    state is kept: what the suite holds is O(N) arrays and O(M) series.
    Each state is fed as a block of one level, not stacked with the next
    ones as level_summary stacks them: a block of B levels holds B
    levels' work arrays at once.
    """

    def __init__(self, grid: GridSpec, params: PhysParams, steps: int):
        self.steps = steps
        self._density = _Density(grid, steps)
        self._energy = _Energy(grid, params, steps, columns=False)
        self._renorm = tuple(
            _Renorm(B, grid) for B in (b_square(), b_power(params.gamma), b_zlogz())
        )
        self._flux = _Flux(grid, params)
        modes = _SineModes(grid, steps, _CHECK_MODES)
        self._weak = (_WeakContinuity(grid, modes), _WeakMomentum(grid, params, modes))
        self._positivity = _Positivity(grid, steps)
        self._walk = _Walk(grid, params, (
            self._density, self._energy, *self._renorm, self._flux, *self._weak,
            self._positivity,
        ))
        self._metas = _Metas(steps)

    def push(self, state: FluidState, meta=None) -> None:
        self._walk.feed(state.rho[None], state.u[None])
        self._metas.count(meta)

    def positivity(self) -> PositivityReport:
        self._metas.require_every_step()
        return self._positivity.result()

    def checks(self) -> tuple[Check, ...]:
        """Every exact identity of the run, each against its budget (see identity_checks)."""
        self._metas.require_every_step()
        steps, tol, worst_res = self.steps, self._metas.tol, self._metas.worst_res
        energy = self._energy
        fractions = np.fromiter(
            (energy.balance[m] / energy_budget(tol, m) for m in range(1, steps + 1)),
            float, count=steps,
        )
        checks = [
            Check("step residual max-norm", 0.0 if worst_res is None else worst_res, tol),
            Check("mass drift (relative)", _drift(self._density.result()), 1e-12 * max(steps, 1)),
            # np.max, not max(): a NaN step must fail the check.
            Check("energy balance (fraction of tolerance)",
                  float(np.max(fractions, initial=0.0)), 1.0),
            # A quiescent run reports -0.0 here, a run without steps +0.0.
            Check("numerical diffusion negativity",
                  -energy.min_increment if steps else 0.0, 1e-12),
        ]
        if not steps:
            return tuple(checks)

        lo, hi = self._density.lo, self._density.hi
        for acc in self._renorm:
            _check_on_range(acc.B, lo, hi)
            bound = 10.0 * tol * sup_abs_deriv(acc.B, lo, hi)
            checks.append(Check(f"renormalized continuity [{acc.B.name}]", acc.result(), bound))

        gap = abs(self._flux.result().identity_gap)
        checks.append(Check("flux identity gap", gap, energy_budget(tol, steps)))

        continuity, momentum = (acc.result() for acc in self._weak)
        for j, (lw, p1), (lm, p2) in zip(_CHECK_MODES, continuity, momentum):
            checks.append(Check(f"weak continuity self-consistency [sin{j}]", abs(lw - p1), 1e-8))
            checks.append(Check(f"weak momentum self-consistency [sin{j}]", abs(lm - p2), 1e-8))
        return tuple(checks)


def duality_check(cases: int, rng: random.Random) -> Check:
    """The inverse-gradient duality of the operators module on ``cases``
    random mean-zero cell fields f and interior face fields v (N in 2..64,
    dx in [0.01, 1]), drawn from ``rng``: the worst gap between
    dx * v . neumann_inv_grad(f) and -dx * dirichlet_inv_grad(v) . f,
    relative to the larger side or to 1, against 1e-12."""
    worst = 0.0
    for _ in range(cases):
        size = rng.randint(2, 64)
        dx = rng.uniform(0.01, 1.0)
        f = np.array([rng.gauss(0.0, 1.0) for _ in range(size)])
        f -= f.mean()
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(size - 1)])
        lhs = dx * float(v @ neumann_inv_grad(f, dx)[1:-1])
        rhs = -dx * float(dirichlet_inv_grad(v, dx) @ f)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    return Check("inverse-gradient duality (relative)", worst, 1e-12)


def identity_checks(traj: Trajectory) -> tuple[Check, ...]:
    """Every exact identity of one trajectory, each against its budget.

    Budgets scale with the largest tolerance the solver applied.  A run
    without steps has no time window, so it gets only the first four checks.
    The trajectory is walked once, through IdentitySuite.
    """
    suite = IdentitySuite(traj.grid, traj.params, len(traj) - 1)
    for state, meta in _marched(traj):
        suite.push(state, meta)
    return suite.checks()
