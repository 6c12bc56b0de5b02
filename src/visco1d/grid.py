"""Staggered 1D grid, discrete flow states, initial data and Gauss quadrature.

Geometry convention used throughout the package:

* ``N`` cells of width ``dx = L/N`` cover ``[0, L]``.  Cell ``i`` is the
  half-open interval ``[i*dx, (i+1)*dx)`` with center ``x_i = (i + 1/2)*dx``;
  densities live there.
* ``N + 1`` faces sit at ``x = i*dx`` for ``i = 0..N``; velocities live there,
  pinned to zero at both walls (no-slip).

A :class:`FluidState` is one time level of that layout.  Between grid points,
density extends as a piecewise constant (right-open cells) and velocity as the
continuous piecewise-linear interpolant of its face values; ``operators.hat``
is the cell average of that interpolant, which for a linear function is just
the midpoint value ``(u[i] + u[i+1]) / 2``.  No pointwise evaluator of these
extensions is public: the diagnostics integrate them per cell, in closed form
or by Gauss quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GridSpec",
    "PhysParams",
    "FluidState",
    "Trajectory",
    "PiecewiseConstant",
    "init_state",
    "RHO0_FLOOR",
    "gauss_panels",
]

# 5-point Gauss-Legendre on [-1, 1]; exact for polynomials of degree <= 9.
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)


def gauss_panels(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """5-point Gauss nodes/weights on each panel [a[j], b[j]], shape (P, 5)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * _GAUSS_X[None, :]
    weights = half[:, None] * _GAUSS_W[None, :]
    return nodes, weights


# ======================================================================
# Grid and physical parameters
# ======================================================================


@dataclass(frozen=True)
class GridSpec:
    """Uniform staggered grid: geometry plus time-step bookkeeping.

    Attributes:
        L: domain length.
        N: number of cells (>= 2).
        dt: time step.
        T: final time, a whole number of time steps: the run takes
            ``M_steps = T/dt`` steps, and a ``T/dt`` more than 1e-9 from a
            whole number, or a ``T > 0`` that rounds to no step, is rejected,
            so that every run ends at ``T``.
    """

    L: float
    N: int
    dt: float
    T: float

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError(f"need at least 2 cells, got N={self.N}")
        if not (0 < self.L < math.inf):
            raise ValueError(f"domain length must be positive and finite, got L={self.L}")
        if not (0 < self.dt < math.inf):
            raise ValueError(f"time step must be positive and finite, got dt={self.dt}")
        if not (0 <= self.T < math.inf):
            raise ValueError(f"final time must be nonnegative and finite, got T={self.T}")
        steps = self.T / self.dt
        if not (steps < math.inf and abs(steps - round(steps)) <= 1e-9) or 0 < steps < 0.5:
            raise ValueError(
                f"final time must be a whole number of time steps, got T={self.T}, "
                f"dt={self.dt} (T/dt = {steps:g})"
            )

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def M_steps(self) -> int:
        return round(self.T / self.dt)

    @property
    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.N) + 0.5) * self.dx

    @property
    def face_nodes(self) -> np.ndarray:
        return np.arange(self.N + 1) * self.dx


@dataclass(frozen=True)
class PhysParams:
    """Pressure law p(rho) = a * rho**gamma and viscosity mu.

    The compactness theory behind the refinement diagnostics needs
    3/2 < gamma < 2; the solver itself runs for any gamma > 1.
    ``in_theory_range`` records which side of that fence we are on so the
    CLI and the harness can warn without refusing, with ``gamma_note``.
    """

    a: float = 1.0
    gamma: float = 5.0 / 3.0
    mu: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.a < math.inf):
            raise ValueError(f"pressure coefficient must be positive and finite, got a={self.a}")
        if not (0 < self.mu < math.inf):
            raise ValueError(f"viscosity must be positive and finite, got mu={self.mu}")
        if not (1 < self.gamma < math.inf):
            raise ValueError(f"adiabatic exponent must be finite, > 1, got gamma={self.gamma}")

    @property
    def in_theory_range(self) -> bool:
        return 1.5 < self.gamma < 2.0

    @property
    def gamma_note(self) -> str:
        """The warning for a gamma outside the convergence window."""
        return f"gamma={self.gamma:g} outside 3/2<gamma<2 convergence regime"

    def pressure(self, rho: np.ndarray) -> np.ndarray:
        return self.a * rho**self.gamma

    def dpressure(self, rho: np.ndarray) -> np.ndarray:
        """d/drho of the pressure law."""
        return self.a * self.gamma * rho ** (self.gamma - 1.0)

    def pressure_potential(self, rho: np.ndarray) -> np.ndarray:
        """B(rho) = a*rho**gamma/(gamma-1), the internal-energy density.

        Satisfies rho*B'(rho) - B(rho) = p(rho), which is what couples the
        renormalized continuity identity to the kinetic-energy balance.
        """
        return self.pressure(rho) / (self.gamma - 1.0)


def _frozen_array(values, length: int | None = None) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1D array, got shape {arr.shape}")
    if length is not None and arr.size != length:
        raise ValueError(f"expected length {length}, got {arr.size}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FluidState:
    """One time level: N positive cell densities, N+1 face velocities.

    The wall faces must carry exactly zero velocity.  Arrays are copied and
    frozen, so states are safe to share between threads.
    """

    rho: np.ndarray
    u: np.ndarray
    k: int = 0

    def __post_init__(self) -> None:
        rho = _frozen_array(self.rho)
        u = _frozen_array(self.u, length=rho.size + 1)
        if rho.size < 2:
            raise ValueError("state needs at least 2 cells")
        # Finiteness first: a NaN density is not a nonpositive one.
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(u))):
            raise ValueError("state contains non-finite entries")
        if not np.all(rho > 0):
            raise ValueError(f"densities must be strictly positive (min={rho.min()})")
        if u[0] != 0.0 or u[-1] != 0.0:
            raise ValueError("wall velocities must be exactly zero")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "u", u)

    @property
    def N(self) -> int:
        return self.rho.size


@dataclass(frozen=True)
class Trajectory:
    """A full run: states for k = 0..M_steps plus per-step solver metadata.

    ``solver_meta[k]`` describes the solve that produced ``states[k+1]``.
    """

    grid: GridSpec
    params: PhysParams
    states: tuple[FluidState, ...]
    solver_meta: tuple = ()

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("trajectory needs at least the initial state")
        if len(self.solver_meta) not in (0, len(self.states) - 1):
            raise ValueError("need one solver_meta entry per advance step")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def rho_matrix(self) -> np.ndarray:
        """(M+1, N) array of densities, one row per time level."""
        return np.stack([s.rho for s in self.states])

    @property
    def u_matrix(self) -> np.ndarray:
        """(M+1, N+1) array of face velocities."""
        return np.stack([s.u for s in self.states])


# ======================================================================
# Initial data
# ======================================================================


@dataclass(frozen=True)
class PiecewiseConstant:
    """Piecewise-constant profile on [0, L] given by interior breakpoints.

    ``values[j]`` holds on ``[breaks[j-1], breaks[j])`` with ``breaks``
    implicitly padded by the domain ends, matching the right-open cell
    convention.  ``init_state`` integrates these profiles exactly instead of
    using quadrature, so jump positions never pollute refinement studies.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        breaks = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        if len(vals) != len(breaks) + 1:
            raise ValueError("need exactly one more value than breakpoints")
        if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", breaks)
        object.__setattr__(self, "values", vals)

    def __call__(self, x):
        idx = np.searchsorted(np.asarray(self.breakpoints), np.asarray(x), side="right")
        return np.asarray(self.values, dtype=float)[idx]

    def integral(self, a: float, b: float) -> float:
        """Exact integral over [a, b]."""
        if b < a:
            raise ValueError("integration bounds out of order")
        edges = (-np.inf, *self.breakpoints, np.inf)
        total = 0.0
        for j, v in enumerate(self.values):
            lo = max(a, edges[j])
            hi = min(b, edges[j + 1])
            if hi > lo:
                total += v * (hi - lo)
        return total


def cell_averages(grid: GridSpec, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Cell averages of f: exactly for PiecewiseConstant, else by 5-pt Gauss.

    Values constant on a cell are reproduced exactly, bit for bit, whatever
    the rounded Gauss weights sum to.  Other profiles are averaged exactly
    through degree-9 polynomials, up to roundoff.
    """
    dx = grid.dx
    if isinstance(f, PiecewiseConstant):
        edges = grid.face_nodes
        return np.array(
            [f.integral(edges[i], edges[i + 1]) / dx for i in range(grid.N)]
        )
    # One 5-point panel per cell: exact through degree-9 polynomials, and far
    # below solver tolerances for the smooth profiles used by the scenarios.
    half = 0.5 * dx
    centers = grid.cell_centers
    nodes = centers[:, None] + half * _GAUSS_X[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    # The weights sum to 2 only up to rounding (1.9999999999999998 on some
    # numpy builds), so ``vals @ w/2`` would shift constants by an ulp.
    # Averaging the deviations from the middle node (the cell center) instead
    # makes them exactly zero on a constant cell, for any weights.
    ref = vals[:, _GAUSS_X.size // 2]
    return ref + (vals - ref[:, None]) @ (0.5 * _GAUSS_W)


# Every initial density must exceed it: an input-validation floor, never
# applied during solves.
RHO0_FLOOR = 1e-12


def init_state(
    grid: GridSpec,
    rho0: Callable[[np.ndarray], np.ndarray],
    u0: Callable[[np.ndarray], np.ndarray],
) -> FluidState:
    """Numerical initial data: averaged density, face-sampled velocity.

    Args:
        grid: target grid.
        rho0: initial density profile; averaged over each cell
            (exactly for :class:`PiecewiseConstant` and for values constant
            on a cell, otherwise by Gauss quadrature, exact through degree 9
            up to roundoff).  Averages must stay above RHO0_FLOOR.
        u0: initial velocity, sampled pointwise at the faces; the wall values
            are overwritten with zero regardless of ``u0``.

    Returns:
        The k = 0 :class:`FluidState`.
    """
    rho = cell_averages(grid, rho0)
    if not np.all(rho > RHO0_FLOOR):
        raise ValueError(f"averaged initial density dips to {rho.min()} <= floor {RHO0_FLOOR:g}")
    u = np.asarray(u0(grid.face_nodes), dtype=float) * np.ones(grid.N + 1)
    u[0] = 0.0
    u[-1] = 0.0
    return FluidState(rho=rho, u=u, k=0)
