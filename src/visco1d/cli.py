"""Configuration files, CSV serialization, and the command-line interface.

The config format is a flat INI-like text with three sections —
``[scenario]``, ``[solver]``, ``[output]`` — and ``key = value`` lines.
Parsing is deliberately hand-rolled so every diagnostic can name the exact
key and line; unknown keys and sections are errors, not warnings.  All
numeric output uses 17 significant digits, which round-trips IEEE doubles
exactly, and repeated invocations produce byte-identical files.

Exit codes: 0 success, 1 solver failure, 2 configuration error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from . import diagnostics
from .grid import GridSpec, PhysParams, Trajectory
from .harness import (
    RefinementReport,
    ScenarioConfig,
    builtin_scenarios,
    check_levels,
    run_refinement,
)
from .operators import dirichlet_inv_grad, hat, neumann_inv_grad
from .stepper import SolverConfig, StepFailure, run

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "write_state_csv",
    "read_state_csv",
    "write_report",
    "write_flux_csv",
    "cli_main",
    "main",
]


# 17 significant digits round-trip every IEEE double.
_fmt_float = "{:.17g}".format


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "on" if x else "off"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _fmt_float(float(x))


class ConfigError(ValueError):
    """A configuration problem, annotated with the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration: scenario + solver + output destination."""

    scenario: ScenarioConfig
    solver: SolverConfig = field(default_factory=SolverConfig)
    out_dir: str = "."
    warnings: tuple[str, ...] = ()

    def to_text(self) -> str:
        """Serialize every effective value; parse_config() round-trips it."""
        sc, so = self.scenario, self.solver
        lines = [
            "[scenario]",
            f"name = {sc.name}",
            f"rho0 = {sc.rho0}",
            f"u0 = {sc.u0}",
            f"L = {_fmt(sc.L)}",
            f"T = {_fmt(sc.T)}",
            f"a = {_fmt(sc.params.a)}",
            f"gamma = {_fmt(sc.params.gamma)}",
            f"mu = {_fmt(sc.params.mu)}",
            "levels = " + ",".join(str(n) for n in sc.levels),
            f"couple_dt_dx = {_fmt(sc.couple_dt_dx)}",
        ]
        if sc.dt is not None:
            lines.append(f"dt = {_fmt(sc.dt)}")
        lines += [
            "",
            "[solver]",
            "newton_tol = " + ("auto" if so.newton_tol is None else _fmt(so.newton_tol)),
            f"max_newton_iters = {so.max_newton_iters}",
            f"damping = {_fmt(so.damping)}",
            f"fallback = {so.fallback}",
            f"polish_floor = {_fmt(so.polish_floor)}",
            "",
            "[output]",
            f"out_dir = {self.out_dir}",
            "",
        ]
        return "\n".join(lines)


_SCENARIO_KEYS = {
    "name", "rho0", "u0", "L", "T", "a", "gamma", "mu", "levels",
    "couple_dt_dx", "dt",
}
_SOLVER_KEYS = {
    "newton_tol", "max_newton_iters", "damping", "fallback", "polish_floor",
}
_OUTPUT_KEYS = {"out_dir"}
_BOOL_WORDS = {
    "on": True, "off": False, "true": True, "false": False,
    "yes": True, "no": False, "1": True, "0": False,
}


def _parse_float(raw: str, key: str, line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"value for '{key}' is not a number: {raw!r}", line) from None


def _parse_int(raw: str, key: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"value for '{key}' is not an integer: {raw!r}", line) from None


def _parse_bool(raw: str, key: str, line: int) -> bool:
    try:
        return _BOOL_WORDS[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"value for '{key}' is not on/off: {raw!r}", line) from None


def parse_config(text: str) -> RunConfig:
    """Parse config text into a validated RunConfig with defaults recorded.

    A ``name`` matching a built-in scenario seeds every scenario field, and
    explicit keys override it; an unknown name requires at least ``rho0`` so
    that the scenario is fully specified.  Out-of-range values raise
    ConfigError naming the key and line; a gamma outside the (3/2, 2)
    convergence window is accepted but recorded as a warning.
    """
    sections: dict[str, dict[str, tuple[str, int]]] = {
        "scenario": {}, "solver": {}, "output": {},
    }
    allowed = {"scenario": _SCENARIO_KEYS, "solver": _SOLVER_KEYS, "output": _OUTPUT_KEYS}
    current: str | None = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in sections:
                raise ConfigError(f"unknown section '[{section}]'", ln)
            current = section
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", ln)
        if current is None:
            raise ConfigError("key/value before any section header", ln)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in allowed[current]:
            raise ConfigError(f"unknown key '{key}' in [{current}]", ln)
        if key in sections[current]:
            raise ConfigError(f"duplicate key '{key}' in [{current}]", ln)
        sections[current][key] = (value, ln)

    sc = sections["scenario"]
    if "name" not in sc:
        raise ConfigError("missing required key 'name' in [scenario]")
    name, name_ln = sc["name"]
    base = next((s for s in builtin_scenarios() if s.name == name), None)
    if base is None:
        if "rho0" not in sc:
            raise ConfigError(
                f"unknown scenario '{name}' and no rho0 profile given", name_ln
            )
        base = ScenarioConfig(name=name)

    def take_float(key: str, default: float) -> float:
        if key not in sc:
            return default
        raw, ln = sc[key]
        return _parse_float(raw, key, ln)

    L = take_float("L", base.L)
    T = take_float("T", base.T)
    a = take_float("a", base.params.a)
    gamma = take_float("gamma", base.params.gamma)
    mu = take_float("mu", base.params.mu)
    # The ranges PhysParams and ScenarioConfig enforce, checked here so that
    # the error names the key's line; a NaN fails every comparison.
    for key, val, ok, rule in (
        ("L", L, L > 0, "positive"),
        ("T", T, T >= 0, "nonnegative"),
        ("a", a, a > 0, "positive"),
        ("gamma", gamma, gamma > 1, "greater than 1"),
        ("mu", mu, mu > 0, "positive"),
    ):
        if key in sc and not (ok and val < math.inf):
            raise ConfigError(
                f"'{key}' must be {rule} and finite, got {key}={val:g}", sc[key][1]
            )
    warnings: list[str] = []
    if not (1.5 < gamma < 2.0):
        warnings.append(
            f"gamma={gamma:g} outside 3/2<gamma<2 convergence regime"
        )

    levels = base.levels
    if "levels" in sc:
        raw, ln = sc["levels"]
        parts = [p for p in raw.split(",") if p.strip()]
        if not parts:
            raise ConfigError("'levels' must list at least one N", ln)
        levels = tuple(_parse_int(p.strip(), "levels", ln) for p in parts)
        try:
            check_levels(levels)
        except ValueError as exc:
            raise ConfigError(f"invalid scenario: {exc}", ln) from exc
    couple = base.couple_dt_dx
    if "couple_dt_dx" in sc:
        raw, ln = sc["couple_dt_dx"]
        couple = _parse_bool(raw, "couple_dt_dx", ln)
    dt = base.dt
    if "dt" in sc:
        raw, ln = sc["dt"]
        dt = _parse_float(raw, "dt", ln)
        if not couple and not (0.0 < dt < math.inf):
            raise ConfigError(f"decoupled 'dt' must be positive and finite, got dt={dt:g}", ln)

    try:
        params = PhysParams(a=a, gamma=gamma, mu=mu)
        scenario = ScenarioConfig(
            name=name,
            rho0=sc["rho0"][0] if "rho0" in sc else base.rho0,
            u0=sc["u0"][0] if "u0" in sc else base.u0,
            L=L,
            T=T,
            params=params,
            levels=levels,
            couple_dt_dx=couple,
            dt=dt,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid scenario: {exc}", name_ln) from exc

    solver_kwargs: dict = {}
    for key, (raw, ln) in sections["solver"].items():
        if key == "newton_tol" and raw.lower() == "auto":
            val = None
        elif key in ("max_newton_iters", "fallback"):
            val = _parse_int(raw, key, ln)
        else:
            val = _parse_float(raw, key, ln)
        # SolverConfig checks each field on its own, so one key at a time
        # finds the offending line.
        try:
            SolverConfig(**{key: val})
        except ValueError as exc:
            raise ConfigError(f"invalid solver setting: {exc}", ln) from exc
        solver_kwargs[key] = val
    solver = SolverConfig(**solver_kwargs)

    out_dir = sections["output"].get("out_dir", (".", 0))[0]
    return RunConfig(
        scenario=scenario, solver=solver, out_dir=out_dir, warnings=tuple(warnings)
    )


# ======================================================================
# CSV writers
# ======================================================================


def _config_header(config: RunConfig | None) -> list[str]:
    if config is None:
        return []
    return ["# " + line for line in config.to_text().splitlines()]


def write_state_csv(traj: Trajectory, path: str, config: RunConfig | None = None) -> None:
    """Write a trajectory as one CSV block per time level.

    Columns: k, t, i, x_center, rho, x_face, u, hat_u.  Each level has N+1
    rows (one per face); the final face row leaves the cell-centered columns
    empty.  The effective configuration rides along as '#' comments.  The
    grid columns are formatted once, and each level is written as soon as it
    is built, so memory stays at one level's text.
    """
    g = traj.grid
    heads = [f"{i},{x}," for i, x in enumerate(map(_fmt_float, g.cell_centers.tolist()))]
    heads.append(f"{g.N},,")
    mids = [f",{x}," for x in map(_fmt_float, g.face_nodes.tolist())]

    def blocks():
        yield "\n".join(_config_header(config) + ["k,t,i,x_center,rho,x_face,u,hat_u"]) + "\n"
        for k, state in enumerate(traj.states):
            kt = f"{k},{_fmt(k * g.dt)},"
            rho = [*map(_fmt_float, state.rho.tolist()), ""]
            hat_u = [*map(_fmt_float, hat(state.u).tolist()), ""]
            u = map(_fmt_float, state.u.tolist())
            yield "".join([
                f"{kt}{head}{r}{mid}{v},{h}\n"
                for head, r, mid, v, h in zip(heads, rho, mids, u, hat_u)
            ])

    _write_text(path, blocks())


def read_state_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read back a state CSV: (rho matrix M+1 x N, u matrix M+1 x N+1)."""
    rho_rows: dict[int, list[float]] = {}
    u_rows: dict[int, list[float]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("k,"):
                continue
            parts = line.split(",")
            k = int(parts[0])
            if parts[4]:
                rho_rows.setdefault(k, []).append(float(parts[4]))
            u_rows.setdefault(k, []).append(float(parts[6]))
    ks = sorted(u_rows)
    rho = np.array([rho_rows[k] for k in ks])
    u = np.array([u_rows[k] for k in ks])
    return rho, u


_REPORT_DIAGS = [
    "steps", "mass_drift_rel", "energy_balance_max", "flux_identity_gap",
    "positivity_margin_min", "E1", "E2", "P1", "P2", "rho_gamma_plus_1",
    "rho_Linf_Lgamma", "pressure_Linf_L1", "u_L2_H1", "u_L2_Linf",
    "momentum_Linf_Lr", "kinetic_Linf_L1", "rho_u_L2_Lgamma", "rho_u2_L2_Lr",
]
_ORDER_COLS = ["E1", "E2", "P1", "P2", "cauchy_rho", "cauchy_u"]


def _order_cell(entry: dict | None, pair_index: int) -> str:
    if entry is None or pair_index < 0 or pair_index >= len(entry.get("orders", [])):
        return ""
    o = entry["orders"][pair_index]
    if o == "exact":
        return "exact (0 magnitude)"
    if o is None:
        return "undefined"
    return _fmt(o)


def write_report(
    report: RefinementReport, path: str, config: RunConfig | None = None
) -> None:
    """Write the refinement report as a CSV table plus a '#' summary block.

    One row per level: level, h, each diagnostic, the Cauchy differences
    against the previous level, and each observed order for the pair ending
    at that level (first row blank).  The trailing summary block lists every
    identity residual against its tolerance and every observed order against
    its theoretical floor.
    """
    rows = _config_header(config)
    header = (
        ["level", "h"]
        + _REPORT_DIAGS
        + ["cauchy_rho", "cauchy_u"]
        + [f"order_{k}" for k in _ORDER_COLS]
    )
    rows.append(",".join(header))
    for idx, summary in enumerate(report.per_level):
        cells = [str(summary["N"]), _fmt(summary["h"])]
        cells += [_fmt(summary[k]) for k in _REPORT_DIAGS]
        cells.append(_fmt(report.cauchy_rho[idx - 1]) if idx >= 1 else "")
        cells.append(_fmt(report.cauchy_u[idx - 1]) if idx >= 1 else "")
        for key in _ORDER_COLS:
            cells.append(_order_cell(report.orders.get(key), idx - 1))
        rows.append(",".join(cells))

    rows.append("# summary")
    rows.append(f"# scenario {report.scenario} levels " + ",".join(map(str, report.levels)))
    for summary in report.per_level:
        rows.append(
            f"# level {summary['N']}: energy_balance {_fmt(summary['energy_balance_max'])}"
            f" tol {_fmt(summary['energy_tol'])}"
            f" | mass_drift {_fmt(summary['mass_drift_rel'])}"
            f" | flux_gap {_fmt(summary['flux_identity_gap'])}"
        )
    for key in _ORDER_COLS:
        entry = report.orders.get(key)
        if not entry:
            continue
        observed = entry.get("order")
        floor = entry.get("floor")
        rows.append(
            f"# order {key}: observed {observed if isinstance(observed, str) else _fmt(observed) if observed is not None else 'undefined'}"
            + (f" floor {_fmt(floor)}" if floor is not None else "")
        )
    for key, entry in report.boundedness.items():
        rows.append(f"# bounded {key}: max_over_min {_fmt(entry['max_over_min'])}")
    for flag in report.flags:
        rows.append(f"# flag: {flag}")
    _write_text(path, "\n".join(rows) + "\n")


def write_flux_csv(ledger, path: str, config: RunConfig | None = None) -> None:
    """Dump one flux ledger as term,value rows."""
    rows = _config_header(config)
    rows.append("term,value")
    rows.append(f"m,{ledger.m}")
    for name in ("lhs", "S1", "S2", "E1", "E2", "mean_flux",
                 "boundary_terminal", "boundary_initial", "transport"):
        rows.append(f"{name},{_fmt(getattr(ledger, name))}")
    for name, val in ledger.rhs_terms.items():
        rows.append(f"rhs_{name},{_fmt(val)}")
    rows.append(f"rhs_total,{_fmt(ledger.rhs_total)}")
    rows.append(f"identity_gap,{_fmt(ledger.identity_gap)}")
    rows.append(f"pairing_gap,{_fmt(ledger.pairing_gap)}")
    rows.append(f"decomposition_gap,{_fmt(ledger.decomposition_gap)}")
    _write_text(path, "\n".join(rows) + "\n")


def _write_text(path: str, content: str | Iterable[str]) -> None:
    """Write a string, or each string of an iterable as it is produced."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([content] if isinstance(content, str) else content)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# ======================================================================
# Verification suite
# ======================================================================


def _solve_first_level(config: RunConfig) -> Trajectory:
    """Solve the scenario at its coarsest level, as run, verify and flux do."""
    scenario = config.scenario
    return run(
        scenario,
        scenario.grid_for(scenario.levels[0]),
        scenario.params,
        config.solver,
        allow_decoupled_dt=not scenario.couple_dt_dx,
    )


def _verify(config: RunConfig, out) -> int:
    """Run the identity suite at the coarsest level; 0 if all pass, else 3."""
    traj = _solve_first_level(config)
    checks = diagnostics.identity_checks(traj)

    rng = np.random.default_rng(20240817)
    worst_dual = 0.0
    for _ in range(50):
        size = int(rng.integers(2, 65))
        dx = float(rng.uniform(0.01, 1.0))
        f = rng.standard_normal(size)
        f -= f.mean()
        v = rng.standard_normal(size - 1)
        lhs_d = dx * float(v @ neumann_inv_grad(f, dx)[1:-1])
        rhs_d = -dx * float(dirichlet_inv_grad(v, dx) @ f)
        scale = max(abs(lhs_d), abs(rhs_d), 1.0)
        worst_dual = max(worst_dual, abs(lhs_d - rhs_d) / scale)
    checks += (diagnostics.Check("inverse-gradient duality (relative)", worst_dual, 1e-12),)

    pos = diagnostics.positivity_report(traj)
    print(
        f"INFO positivity margins: literature-bound {pos.worst_margin:.3e}, "
        f"provable-bound {pos.worst_divergence_margin:.3e}",
        file=out,
    )
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.value:.3e} <= {c.bound:.3e}", file=out)
    passed = sum(c.passed for c in checks)
    print(f"{passed}/{len(checks)} identity checks passed", file=out)
    return 0 if passed == len(checks) else 3


# ======================================================================
# Entry points
# ======================================================================


def _load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def cli_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="visco1d",
        description="Implicit staggered upwind solver for 1D viscous isentropic flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("run", "solve one level and write the state CSV"),
        ("refine", "run the level ladder and write the convergence report"),
        ("verify", "run the exact-identity suite (exit 3 on failure)"),
        ("flux", "dump the effective-viscous-flux ledger at a checkpoint"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="path to config file")
        if name in ("run", "refine"):
            p.add_argument("--out", default=None, help="output directory")
        if name == "refine":
            p.add_argument("--levels", default=None, help="override level list, e.g. 64,128,256")
        if name == "flux":
            p.add_argument("--step", type=int, default=None, help="checkpoint step m (default: final)")

    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        config = _load_config(args.config)
        for w in config.warnings:
            print(f"WARNING {w}", file=sys.stderr)

        if args.command == "run":
            out_dir = args.out or config.out_dir
            os.makedirs(out_dir, exist_ok=True)
            traj = _solve_first_level(config)
            path = os.path.join(out_dir, "state.csv")
            write_state_csv(traj, path, config)
            print(f"wrote {path} ({len(traj)} time levels, N={traj.grid.N})", file=out)
            return 0

        if args.command == "refine":
            if args.levels:
                try:
                    levels = tuple(int(p) for p in args.levels.split(",") if p.strip())
                except ValueError:
                    raise ConfigError(f"--levels must be integers, got {args.levels!r}")
                config = replace(config, scenario=replace(config.scenario, levels=levels))
            if len(config.scenario.levels) < 3:
                raise ConfigError("refine needs at least 3 levels")
            out_dir = args.out or config.out_dir
            os.makedirs(out_dir, exist_ok=True)
            report = run_refinement(config.scenario, config.solver)
            path = os.path.join(out_dir, "report.csv")
            write_report(report, path, config)
            print(f"wrote {path} ({len(report.levels)} levels)", file=out)
            if report.failed:
                for flag in report.flags:
                    print(f"ERROR {flag}", file=sys.stderr)
                return 1
            return 0

        if args.command == "verify":
            return _verify(config, out)

        if args.command == "flux":
            traj = _solve_first_level(config)
            ledger = diagnostics.flux_ledger(traj, args.step)
            path = os.path.join(config.out_dir, "flux.csv")
            os.makedirs(config.out_dir, exist_ok=True)
            write_flux_csv(ledger, path, config)
            print(f"wrote {path} (checkpoint m={ledger.m})", file=out)
            print(f"lhs {_fmt(ledger.lhs)} rhs {_fmt(ledger.rhs_total)} "
                  f"gap {_fmt(ledger.identity_gap)}", file=out)
            return 0

        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StepFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())
