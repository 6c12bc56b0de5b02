"""Discrete spatial operators on the staggered grid.

Two field layouts appear everywhere:

* cell fields — length ``N``, indexed by cells;
* face fields — length ``N+1``, indexed by faces (both wall faces included).

The scheme's own pieces come first: the upwind switches, ``hat``, the
donor-cell flux, the face momentum, the continuity residual, the momentum
convection, the pressure gradient, the viscous Laplacian and the provable
positivity floor.  The exact identities only hold
for the discretization the solver actually solves, so the stepper and the
diagnostics both take these from here and nowhere else.  The pieces the
diagnostics use work along the last axis, so they take one level or a
block of B levels, (B, N) cell and (B, N+1) face arrays, row by row with
the bits of one level at a time.

``diff_cell`` maps faces to cells.  Whenever the face field vanishes at the
walls it is, up to sign, the adjoint of the cell-to-interior-face difference
``np.diff(f) / dx`` (summation by parts), which no module needs as an
operator of its own.  The two inverse operators at the bottom —
``neumann_inv_grad`` (gradient of a zero-flux inverse Laplacian on cells) and
``dirichlet_inv_grad`` (negative gradient of a wall-pinned inverse Laplacian
on faces) — satisfy the duality

    dx * sum_faces v * neumann_inv_grad(f)  ==  -dx * sum_cells dirichlet_inv_grad(v) * f

for every mean-zero cell field ``f`` and interior face field ``v``.  That
identity is what lets the flux-balance diagnostic trade a face-paired test
field for a cell-paired one.  ``neumann_inv_grad`` uses a closed-form prefix
sum; the tests cross-check it against an independent tridiagonal solve.

This module is also where the package reaches LAPACK.  The scheme needs
three routines, ``dgbtrf``/``dgbtrs`` for the stepper's banded Newton and
``dgtsv`` behind the tridiagonal ``solve_banded``.  They are loaded from
scipy's compiled ``_flapack`` extension directly: importing the
``scipy.linalg`` package would cost more than the rest of the program's
imports together, for functions it only passes through.
"""

from __future__ import annotations

import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from types import ModuleType

import numpy as np
import scipy

__all__ = [
    "split_upwind",
    "hat",
    "upwind_flux",
    "face_momentum",
    "continuity_residual",
    "momentum_convection",
    "pressure_gradient",
    "positivity_floor",
    "diff_cell",
    "laplace_velocity",
    "neumann_inv_grad",
    "dirichlet_inv_grad",
    "dgbtrf",
    "dgbtrs",
    "solve_banded",
]


# ======================================================================
# The scheme's pieces (the stepper and the diagnostics both call these)
# ======================================================================


def split_upwind(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The upwind switches (u+, u-) = (max(u, 0), min(u, 0)) of a face field."""
    return np.maximum(u, 0.0), np.minimum(u, 0.0)


def hat(u: np.ndarray) -> np.ndarray:
    """Cell average (u[i] + u[i+1]) / 2 of the piecewise-linear velocity, along the last axis.

    Takes one level's N+1 face values or a trajectory's (M+1, N+1) matrix.
    """
    return 0.5 * (u[..., :-1] + u[..., 1:])


def upwind_flux(q: np.ndarray, up: np.ndarray, um: np.ndarray) -> np.ndarray:
    """Donor-cell flux q_{f-1}*u+_f + q_f*u-_f of a cell field, given split_upwind(u).

    Wall faces return exactly zero: no-slip, and no donor cell beyond the wall.
    """
    flux = np.zeros(up.shape)
    flux[..., 1:-1] = q[..., :-1] * up[..., 1:-1] + q[..., 1:] * um[..., 1:-1]
    return flux


def face_momentum(m: np.ndarray) -> np.ndarray:
    """Face momentum W_f = (m_{f-1} + m_f)/2 on interior faces, for m = rho * hat(u)."""
    return 0.5 * (m[..., :-1] + m[..., 1:])


def continuity_residual(
    rho_old: np.ndarray, rho: np.ndarray, flux: np.ndarray, dt: float, dx: float
) -> np.ndarray:
    """Continuity residual per cell, for ``flux`` the donor-cell flux of ``rho``."""
    return (rho - rho_old) / dt + (flux[..., 1:] - flux[..., :-1]) / dx


def momentum_convection(mflux: np.ndarray, dx: float) -> np.ndarray:
    """Convection (UpM_{f+1} - UpM_{f-1}) / (2 dx) on interior faces, for UpM the
    donor-cell flux of the momentum m = rho * hat(u)."""
    return (mflux[..., 2:] - mflux[..., :-2]) / (2.0 * dx)


def pressure_gradient(p: np.ndarray, dx: float) -> np.ndarray:
    """Pressure gradient (p_f - p_{f-1}) / dx of a cell field, on interior faces."""
    return (p[1:] - p[:-1]) / dx


def positivity_floor(
    rho_old: np.ndarray, div_u: np.ndarray, cont: np.ndarray, dt: float
) -> float | np.ndarray:
    """Provable floor on min rho of a step with velocity divergence div_u
    (diff_cell(u, dx)) and continuity residual cont.

    At the cell where the new density attains its minimum the neighbours are
    at least as large, so the continuity update forces
    min rho >= (min rho_old - dt*max|cont|) / (1 + dt * max (div u)+).
    A block of steps gets one floor per row.
    """
    div_plus = np.maximum(div_u.max(axis=-1), 0.0)
    return (rho_old.min(axis=-1) - dt * np.abs(cont).max(axis=-1)) / (1.0 + dt * div_plus)


def diff_cell(facefield: np.ndarray, dx: float) -> np.ndarray:
    """Difference quotient faces -> cells: (v[i+1] - v[i]) / dx."""
    v = np.asarray(facefield, dtype=float)
    return (v[..., 1:] - v[..., :-1]) / dx


def laplace_velocity(u: np.ndarray, dx: float, mu: float = 1.0) -> np.ndarray:
    """Viscous term mu * (u_{f-1} - 2 u_f + u_{f+1}) / dx^2 of a face field, on interior faces."""
    u = np.asarray(u, dtype=float)
    return mu * (u[:-2] - 2.0 * u[1:-1] + u[2:]) / dx**2


# ======================================================================
# Inverse Laplacians (only their gradients are ever exposed)
# ======================================================================


def _require_mean_zero(f: np.ndarray, dx: float) -> None:
    """Reject a source, or a block of sources (rows), without zero mean."""
    rows = f if f.ndim == 2 else f[None]
    sizes = np.max(np.abs(rows), axis=1, initial=0.0).tolist()
    for total, size in zip(rows.sum(axis=1).tolist(), sizes):
        total *= dx
        mean_tol = 1e-10 * (1.0 + size)
        if abs(total) > mean_tol:
            raise ValueError(
                f"source must have zero mean: dx*sum(f) = {total:g} exceeds {mean_tol:g}"
            )


def neumann_inv_grad(f: np.ndarray, dx: float) -> np.ndarray:
    """Gradient (at faces) of the zero-flux inverse Laplacian of a cell field.

    Defined only for mean-zero sources.  The gradient has the closed form of a
    prefix sum, r[j+1] = dx * (f[0] + ... + f[j]), with both wall values zero;
    the potential itself is determined only up to a constant and never leaves
    this module.  A block of sources (rows) gets one gradient per row.
    """
    f = np.asarray(f, dtype=float)
    _require_mean_zero(f, dx)
    r = np.zeros(f.shape[:-1] + (f.shape[-1] + 1,))
    np.cumsum(f[..., :-1], axis=-1, out=r[..., 1:-1])
    r[..., 1:-1] *= dx
    return r


def dirichlet_inv_grad(v: np.ndarray, dx: float) -> np.ndarray:
    """Negative cell gradient of the wall-pinned inverse Laplacian of ``v``.

    ``v`` lives on the N-1 interior faces.  Solves -(w[j-1]-2w[j]+w[j+1])/dx^2
    = v[j] with w = 0 at both wall faces (an SPD tridiagonal system), then
    returns -diff_cell(w), a cell field.  Its entries always sum to zero
    (the gradient of a field pinned to zero at both ends telescopes away),
    which is what makes it blind to constant shifts of its duality partner.
    """
    v = np.asarray(v, dtype=float)
    n = v.size  # number of interior faces = N - 1
    if n == 0:
        raise ValueError("need at least one interior face (N >= 2)")
    ab = np.zeros((3, n))
    ab[0, 1:] = -1.0 / dx**2
    ab[2, :-1] = -1.0 / dx**2
    ab[1, :] = 2.0 / dx**2
    w = solve_banded((1, 1), ab, v)
    w_full = np.zeros(n + 2)
    w_full[1:-1] = w
    return -diff_cell(w_full, dx)


# ======================================================================
# LAPACK (the stepper's banded Newton, and the tridiagonal solve above)
# ======================================================================


def _load_flapack() -> ModuleType:
    """scipy's compiled LAPACK wrappers, without running ``scipy/linalg/__init__.py``.

    The module is loaded under its own name, so a later ``import scipy.linalg``
    finds it and hands out the same function objects.
    """
    stem = os.path.join(scipy.__path__[0], "linalg", "_flapack")
    path = next((stem + sfx for sfx in EXTENSION_SUFFIXES if os.path.isfile(stem + sfx)), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK extension not found: no {stem}<suffix>")
    loader = ExtensionFileLoader("scipy.linalg._flapack", path)
    module = module_from_spec(spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


_flapack = _load_flapack()


def dgbtrf(
    ab: np.ndarray, kl: int, ku: int, overwrite_ab: int = 0
) -> tuple[np.ndarray, np.ndarray, int]:
    """LAPACK's banded LU: ``(lu, piv, info)``, ``info > 0`` at a zero pivot.

    ``ab`` holds the band in rows ``kl..`` and leaves rows ``0..kl-1`` for
    the fill-in of partial pivoting; ``overwrite_ab=1`` factors it in place
    when it is a Fortran-ordered float array.
    """
    return _flapack.dgbtrf(ab, kl, ku, overwrite_ab=overwrite_ab)


def dgbtrs(
    lu: np.ndarray, kl: int, ku: int, b: np.ndarray, piv: np.ndarray
) -> tuple[np.ndarray, int]:
    """Solve with ``dgbtrf``'s factors: ``(x, info)``."""
    return _flapack.dgbtrs(lu, kl, ku, b, piv)


def solve_banded(l_and_u: tuple[int, int], ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system in ``scipy.linalg.solve_banded`` layout, with its bits.

    Only the band ``(1, 1)`` is accepted: ``ab[0, 1:]`` is the superdiagonal,
    ``ab[1]`` the diagonal and ``ab[2, :-1]`` the subdiagonal.  Follows
    scipy's path for that band: non-finite input or an ``ab`` without three
    rows raises ``ValueError``, a 1x1 system is divided by its diagonal, any
    other goes to LAPACK's ``dgtsv``, and a zero pivot raises ``LinAlgError``.
    """
    if tuple(l_and_u) != (1, 1):
        raise ValueError(f"only the tridiagonal band (1, 1) is supported, got {l_and_u}")
    ab = np.asarray_chkfinite(ab, dtype=float)
    b = np.asarray_chkfinite(b, dtype=float)
    if ab.shape[0] != 3:
        raise ValueError(f"the band (1, 1) needs 3 rows in ab, got {ab.shape[0]}")
    if ab.shape[-1] == 1:
        return b / ab[1, 0]
    _, _, _, x, info = _flapack.dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x
