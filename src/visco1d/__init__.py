"""Implicit staggered upwind finite differences for 1D viscous isentropic flow.

The package solves the barotropic compressible Navier–Stokes system on an
interval with no-slip walls, using densities at cell centers and velocities
at faces, fully implicit in time with first-order upwinding of the mass and
momentum fluxes.  Around the solver sits a verification layer: every
conservation law and energy-style inequality that holds *exactly* at the
discrete level is exposed as a computable ledger with an explicit remainder,
and a refinement harness measures the empirical decay rates of those
remainders against their theoretical floors.

Each name is imported from the module that defines it (``grid``,
``operators``, ``stepper``, ``diagnostics``, ``harness``, ``cli``); the
package root exports only ``__version__``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
