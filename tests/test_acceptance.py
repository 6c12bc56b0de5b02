"""Acceptance suite: the twelve gate criteria, one visible line each.

Each test prints exactly one ``criterion NN PASS/FAIL`` line (to the real
stdout, bypassing capture, so the ledger is always visible in the run log)
and then asserts.  Tolerances are the contract values, not tuned numbers.

The identity budgets are not restated here.  Criteria 02, 04, 05 and 12
read the checks of diagnostics.IdentitySuite, the ones ``visco1d verify``
prints, of every built-in run as it is marched: each reports its worst
value as a fraction of the suite's bound, and where.  Criteria 07 and 08
take theirs from diagnostics.energy_budget and the report's order floors.

Criterion 03 asserts the commonly quoted positivity floor
``min rho_new >= min rho_old / (1 + dt*max|u|) - 1e-9`` at every step of
every run.  That floor is NOT satisfied by this discretization: a wall cell
during inflow drains through its single interior face faster than the
whole-domain bound allows, so the criterion fails with margins around -1e-2
on the smooth scenarios.  The test states the bound faithfully and is
expected to fail; the supplement test right after it shows the floor that
is actually provable for the scheme (residual-corrected, divergence-based)
holds to machine precision on every run.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from visco1d import diagnostics, grid, harness
from visco1d.stepper import assemble_jacobian

from conftest import solve_level
from test_stepper import _fd_jacobian, _random_state


def _record(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _named(scenario_checks, prefix: str) -> list[tuple[tuple[str, int], diagnostics.Check]]:
    """(run key, check) for every run's checks whose names start with ``prefix``."""
    return [
        (key, check)
        for key, run in scenario_checks.items()
        for check in run.checks
        if check.name.startswith(prefix)
    ]


def _worst(found) -> tuple[float, tuple[str, int], diagnostics.Check]:
    """(value / bound, run key, check) of the first check nearest its bound."""
    return max(((c.value / c.bound, key, c) for key, c in found), key=lambda item: item[0])


def _passed(found) -> bool:
    return all(check.passed for _, check in found)


# ----------------------------------------------------------------------
# 1. scheme residual / Newton behaviour / runtime
# ----------------------------------------------------------------------


def test_criterion_01_residual_newton_runtime(scenario_checks, capsys):
    worst = 0.0
    for (name, n), run in scenario_checks.items():
        if n != 64:
            continue
        for meta in run.metas:
            worst = max(worst, meta.residual_norm / meta.tol)
    const_iters = {m.iterations for m in scenario_checks[("constant", 64)].metas}
    timings = {}
    for sc in harness.builtin_scenarios():
        t0 = time.perf_counter()
        solve_level(sc, 64)
        timings[sc.name] = time.perf_counter() - t0
    slowest = max(timings.values())
    ok = worst <= 1.0 and const_iters == {1} and slowest < 1.0
    _record(capsys,
        1,
        ok,
        f"residual <= tol at N=64 (worst fraction {worst:.3e}), constant "
        f"Newton iterations {sorted(const_iters)}, slowest N=64 run {slowest:.3f}s < 1s",
    )


# ----------------------------------------------------------------------
# 2. exact mass conservation
# ----------------------------------------------------------------------


def test_criterion_02_mass_conservation(scenario_checks, capsys):
    found = _named(scenario_checks, "mass drift")
    worst, worst_key, check = _worst(found)
    _record(capsys,
        2,
        _passed(found),
        f"relative mass drift within its bound on all 18 runs "
        f"(worst fraction {worst:.3e} of {check.bound:.3e} at {worst_key})",
    )


# ----------------------------------------------------------------------
# 3. the commonly quoted positivity floor (faithful; expected to fail)
# ----------------------------------------------------------------------


def test_criterion_03_positivity_stated_floor(scenario_checks, capsys):
    margins = {key: run.positivity.worst_margin for key, run in scenario_checks.items()}
    worst_key = min(margins, key=margins.get)
    worst = margins[worst_key]
    ok = worst >= -1e-9
    _record(capsys,
        3,
        ok,
        f"min rho_new >= min rho_old/(1+dt*max|u|) - 1e-9 every step "
        f"(worst margin {worst:.3e} at {worst_key}; wall cells during inflow "
        f"undershoot this whole-domain bound)",
    )


def test_criterion_03_supplement_provable_floor_holds(scenario_checks, capsys):
    worst = min(run.positivity.worst_divergence_margin for run in scenario_checks.values())
    ok = worst >= -1e-12
    with capsys.disabled():
        print(
            f"criterion 03 supplement {'PASS' if ok else 'FAIL'} — residual-corrected "
            f"divergence floor holds on all runs (worst margin {worst:.3e})",
            flush=True,
        )
    assert ok


# ----------------------------------------------------------------------
# 4. discrete energy equality with nonnegative diffusion terms
# ----------------------------------------------------------------------


def test_criterion_04_energy_equality(scenario_checks, capsys):
    balance = _named(scenario_checks, "energy balance")
    negativity = _named(scenario_checks, "numerical diffusion negativity")
    worst_frac, worst_key, check = _worst(balance)
    _, _, worst_negativity = _worst(negativity)
    worst_increment = min(0.0, -worst_negativity.value)
    _record(capsys,
        4,
        _passed(balance) and _passed(negativity),
        f"energy balance <= {check.bound:.3e} of its budget for every m on all runs (worst fraction "
        f"{worst_frac:.3e} at {worst_key}); most negative diffusion increment "
        f"{worst_increment:.3e} >= {-worst_negativity.bound:.0e}",
    )


# ----------------------------------------------------------------------
# 5. renormalized continuity for three entropy functions
# ----------------------------------------------------------------------


def test_criterion_05_renormalized_continuity(scenario_checks, capsys):
    found = _named(scenario_checks, "renormalized continuity")
    worst, worst_key, check = _worst(found)
    _record(capsys,
        5,
        _passed(found),
        f"per-step renormalized-continuity residual within its bound for "
        f"B in {{z^2, z^gamma, z log z}} (worst fraction {worst:.3e} of "
        f"{check.bound:.3e} at {(worst_key, check.name)})",
    )


# ----------------------------------------------------------------------
# 6. inverse-gradient duality, randomized
# ----------------------------------------------------------------------


def test_criterion_06_duality_1000_cases(capsys):
    check = diagnostics.duality_check(1000, random.Random(20250819))
    _record(capsys,
        6,
        check.passed,
        f"mean-zero/Neumann vs Dirichlet inverse-gradient duality over 1000 "
        f"random cases, N in 2..64 (worst relative gap {check.value:.3e} <= 1e-12)",
    )


# ----------------------------------------------------------------------
# 7. time-integrated flux identity at checkpoints
# ----------------------------------------------------------------------


def test_criterion_07_flux_identity_checkpoints(smooth_ladder, capsys):
    traj = smooth_ladder[128]
    steps = len(traj) - 1
    tol = diagnostics.effective_newton_tol(traj)
    worst = 0.0
    gaps = {}
    for m in (steps // 4, steps // 2, steps):
        ledger = diagnostics.flux_ledger(traj.grid, traj.params, traj.states, m)
        gaps[m] = abs(ledger.identity_gap)
        worst = max(worst, gaps[m] / diagnostics.energy_budget(tol, m))
    ok = worst <= 1.0
    _record(capsys,
        7,
        ok,
        "flux-identity gap <= 100*tol*m at checkpoints "
        + ", ".join(f"m={m}: {g:.3e}" for m, g in gaps.items())
        + f" (smooth-bump N=128, worst fraction {worst:.3e})",
    )


# ----------------------------------------------------------------------
# 8. empirical decay-rate floors
# ----------------------------------------------------------------------


def test_criterion_08_rate_floors(smooth_ladder, capsys):
    trajs = [smooth_ladder[n] for n in (64, 128, 256, 512)]
    rates = diagnostics.error_rates(trajs)
    floors = {key: rates[key]["floor"] - 0.05 for key in ("E1", "E2", "P1", "P2")}
    observed = {key: rates[key]["order"] for key in floors}
    ok = all(
        isinstance(observed[key], float) and observed[key] >= floors[key]
        for key in floors
    )
    _record(capsys,
        8,
        ok,
        "observed decay orders vs floors: "
        + ", ".join(
            f"{key} {observed[key]:.3f}>={floors[key]:.2f}"
            if isinstance(observed[key], float)
            else f"{key} {observed[key]!r}"
            for key in floors
        )
        + " (smooth-bump 64..512, dt=dx)",
    )


# ----------------------------------------------------------------------
# 9. higher integrability stays bounded under refinement
# ----------------------------------------------------------------------


def test_criterion_09_higher_integrability(smooth_ladder, capsys):
    values = {n: diagnostics.rho_power_integral(t) for n, t in smooth_ladder.items()}
    ratio = max(values.values()) / min(values.values())
    ok = ratio < 2.0
    _record(capsys,
        9,
        ok,
        f"integral of rho^(gamma+1) across N=64..512 varies by {ratio:.4f}x < 2x "
        f"(values {', '.join(f'{n}: {x:.6f}' for n, x in sorted(values.items()))})",
    )


# ----------------------------------------------------------------------
# 10. Cauchy convergence proxy
# ----------------------------------------------------------------------


def test_criterion_10_cauchy_strictly_decreasing(smooth_ladder, riemann_ladder, capsys):
    detail = []
    ok = True
    for name, ladder in (("smooth-bump", smooth_ladder), ("riemann-like", riemann_ladder)):
        diffs = [
            harness.cauchy_differences(ladder[a], ladder[b])[0]
            for a, b in ((64, 128), (128, 256), (256, 512))
        ]
        ok = ok and diffs[0] > diffs[1] > diffs[2] > 0.0
        detail.append(f"{name}: " + " > ".join(f"{d:.4e}" for d in diffs))
    _record(capsys, 10, ok,
            "L1 density Cauchy differences strictly decreasing — " + "; ".join(detail))


# ----------------------------------------------------------------------
# 11. analytic Jacobian vs central finite differences
# ----------------------------------------------------------------------


def test_criterion_11_jacobian_vs_finite_differences(capsys):
    rng = np.random.default_rng(20240818)
    worst = 0.0
    for case in range(200):
        n = int(rng.integers(3, 9))
        g = grid.GridSpec(L=1.0, N=n, dt=1.0 / n, T=1.0)
        params = grid.PhysParams(
            a=float(rng.uniform(0.5, 2.0)),
            gamma=float(rng.uniform(1.51, 1.99)),
            mu=float(rng.uniform(0.01, 1.0)),
        )
        prev = _random_state(rng, n)
        trial = _random_state(rng, n)
        jac = assemble_jacobian(prev, trial, g, params).toarray()
        fd = _fd_jacobian(prev, trial, g, params)
        scale = np.maximum(np.abs(fd), 1.0)
        worst = max(worst, float(np.max(np.abs(jac - fd) / scale)))
    ok = worst <= 1e-6
    _record(capsys,
        11,
        ok,
        f"banded Jacobian vs central differences on 200 random states away "
        f"from the upwind kink (worst relative entry error {worst:.3e} <= 1e-6)",
    )


# ----------------------------------------------------------------------
# 12. weak-form assembly self-consistency
# ----------------------------------------------------------------------


def test_criterion_12_weak_form_self_consistency(scenario_checks, capsys):
    found = _named(scenario_checks, "weak ")
    _, worst_key, check = _worst(found)
    _record(capsys,
        12,
        _passed(found),
        f"independently assembled weak residuals match the P1/P2 pairings for "
        f"the sine modes j = 1, 2, 3 on all 18 runs (worst gap {check.value:.3e} "
        f"<= {check.bound:.0e} at {(worst_key, check.name)})",
    )
