"""Implicit staggered upwind finite differences for 1D viscous isentropic flow.

The package solves the barotropic compressible Navier–Stokes system on an
interval with no-slip walls, using densities at cell centers and velocities
at faces, fully implicit in time with first-order upwinding of the mass and
momentum fluxes.  Around the solver sits a verification layer: every
conservation law and energy-style inequality that holds *exactly* at the
discrete level is exposed as a computable ledger with an explicit remainder,
and a refinement harness measures the empirical decay rates of those
remainders against their theoretical floors.
"""

from __future__ import annotations

from .diagnostics import (
    BFunction,
    Check,
    EnergyLedger,
    FluxLedger,
    PositivityReport,
    TestFunction,
    b_power,
    b_square,
    b_zlogz,
    default_test_functions,
    effective_newton_tol,
    energy_ledger,
    error_rates,
    flux_ledger,
    identity_checks,
    mass_history,
    norm_suite,
    positivity_report,
    renorm_residual,
    rho_power_integral,
    sup_abs_deriv,
    weak_residual_continuity,
    weak_residual_momentum,
)
from .grid import (
    FluidState,
    GridSpec,
    PhysParams,
    PiecewiseConstant,
    Trajectory,
    cell_averages,
    gauss_rule,
    init_state,
)
from .harness import (
    RefinementReport,
    ScenarioConfig,
    builtin_scenarios,
    cauchy_differences,
    project_cells,
    restrict_faces,
    run_refinement,
)
from .operators import (
    diff_cell,
    diff_face,
    dirichlet_inv_grad,
    hat,
    laplace_velocity,
    neumann_inv_grad,
    upwind_mass_flux,
    upwind_momentum_flux,
)
from .stepper import (
    SolverConfig,
    StepFailure,
    StepMeta,
    StepResidual,
    advance,
    assemble_jacobian,
    assemble_residual,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "BFunction",
    "Check",
    "EnergyLedger",
    "FluidState",
    "FluxLedger",
    "GridSpec",
    "PhysParams",
    "PiecewiseConstant",
    "PositivityReport",
    "RefinementReport",
    "ScenarioConfig",
    "SolverConfig",
    "StepFailure",
    "StepMeta",
    "StepResidual",
    "TestFunction",
    "Trajectory",
    "advance",
    "assemble_jacobian",
    "assemble_residual",
    "b_power",
    "b_square",
    "b_zlogz",
    "builtin_scenarios",
    "cauchy_differences",
    "cell_averages",
    "default_test_functions",
    "diff_cell",
    "diff_face",
    "dirichlet_inv_grad",
    "effective_newton_tol",
    "energy_ledger",
    "error_rates",
    "flux_ledger",
    "gauss_rule",
    "hat",
    "identity_checks",
    "init_state",
    "laplace_velocity",
    "mass_history",
    "neumann_inv_grad",
    "norm_suite",
    "positivity_report",
    "project_cells",
    "renorm_residual",
    "restrict_faces",
    "rho_power_integral",
    "run",
    "run_refinement",
    "sup_abs_deriv",
    "upwind_mass_flux",
    "upwind_momentum_flux",
    "weak_residual_continuity",
    "weak_residual_momentum",
    "__version__",
]
