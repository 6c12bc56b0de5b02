"""Configuration files, CSV serialization, and the command-line interface.

The config format is a flat INI-like text with three sections —
``[scenario]``, ``[solver]``, ``[output]`` — and ``key = value`` lines.
Parsing is deliberately hand-rolled so every diagnostic can name the exact
key and line; unknown keys and sections are errors, not warnings.  The
parser states no value range itself: each key is applied, one at a time in
field order, to the object that owns its rule (``PhysParams``,
``ScenarioConfig`` or ``SolverConfig``), and the ``ValueError`` that object
raises becomes a ConfigError naming the key and its line.  All numeric
output uses 17 significant digits, which round-trips IEEE doubles exactly,
and repeated invocations produce byte-identical files.

Exit codes: 0 success, 1 solver failure, 2 configuration error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import diagnostics
from .grid import GridSpec, Trajectory
from .harness import (
    RefinementReport,
    ScenarioConfig,
    builtin_scenarios,
    fork_worker,
    run_refinement,
    stop_worker,
    worker_result,
)
from .operators import dirichlet_inv_grad, hat, neumann_inv_grad
from .stepper import SolverConfig, StepFailure, run

__all__ = [
    "parse_config",
    "write_state_csv",
    "read_state_csv",
    "write_report",
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


def _parse_int(raw: str, key: str, line: int | None) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"value for '{key}' is not an integer: {raw!r}", line) from None


def _parse_bool(raw: str, key: str, line: int) -> bool:
    try:
        return _BOOL_WORDS[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"value for '{key}' is not on/off: {raw!r}", line) from None


def _parse_levels(raw: str, key: str, line: int | None) -> tuple[int, ...]:
    return tuple(_parse_int(p.strip(), key, line) for p in raw.split(",") if p.strip())


def _parse_text(raw: str, key: str, line: int) -> str:
    return raw


# The [scenario] keys after ``name``, in ScenarioConfig's field order (a,
# gamma and mu are PhysParams fields), each with its parser.
_SCENARIO_PARSERS = {
    "rho0": _parse_text,
    "u0": _parse_text,
    "L": _parse_float,
    "T": _parse_float,
    "a": _parse_float,
    "gamma": _parse_float,
    "mu": _parse_float,
    "levels": _parse_levels,
    "couple_dt_dx": _parse_bool,
    "dt": _parse_float,
}
_PHYS_KEYS = {"a", "gamma", "mu"}
_SCENARIO_KEYS = {"name", *_SCENARIO_PARSERS}


def parse_config(text: str) -> RunConfig:
    """Parse config text into a validated RunConfig with defaults recorded.

    A ``name`` matching a built-in scenario seeds every scenario field, and
    explicit keys override it; an unknown name requires at least ``rho0`` so
    that the scenario is fully specified.  Each key is checked by the
    object that owns its rule, in field order, and an out-of-range value
    raises ConfigError naming the key and its line; a gamma outside the
    (3/2, 2) convergence window is accepted but recorded as a warning.
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
    scenario = next((s for s in builtin_scenarios() if s.name == name), None)
    if scenario is None:
        if "rho0" not in sc:
            raise ConfigError(
                f"unknown scenario '{name}' and no rho0 profile given", name_ln
            )
        scenario = ScenarioConfig(name=name)
    # Each key is checked by the object that owns its rule, one key at a
    # time in field order, so that an error names the key's own line.
    for key, parse in _SCENARIO_PARSERS.items():
        if key not in sc:
            continue
        raw, ln = sc[key]
        val = parse(raw, key, ln)
        try:
            if key in _PHYS_KEYS:
                scenario = replace(scenario, params=replace(scenario.params, **{key: val}))
            else:
                scenario = replace(scenario, **{key: val})
        except ValueError as exc:
            raise ConfigError(f"invalid scenario: {exc}", ln) from exc
    warnings: list[str] = []
    if not scenario.params.in_theory_range:
        warnings.append(f"gamma={scenario.params.gamma:g} outside 3/2<gamma<2 convergence regime")

    solver = SolverConfig()
    for key, (raw, ln) in sections["solver"].items():
        if key == "newton_tol" and raw.lower() == "auto":
            val = None
        elif key in ("max_newton_iters", "fallback"):
            val = _parse_int(raw, key, ln)
        else:
            val = _parse_float(raw, key, ln)
        try:
            solver = replace(solver, **{key: val})
        except ValueError as exc:
            raise ConfigError(f"invalid solver setting: {exc}", ln) from exc

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


def _state_blocks(
    grid: GridSpec,
    levels: Iterable[tuple[np.ndarray, np.ndarray]],
    config: RunConfig | None,
) -> Iterator[str]:
    """The state CSV as text: the header, then one block per (rho, u) level.

    The grid columns are formatted once, into a %-template that formats a
    whole time level in one call.
    """
    n = grid.N
    centers = map(_fmt_float, grid.cell_centers.tolist())
    faces = [_fmt_float(x) for x in grid.face_nodes.tolist()]
    template = "".join(
        [f"%s{i},{c},%.17g,{f},%.17g,%.17g\n" for i, (c, f) in enumerate(zip(centers, faces))]
        + [f"%s{n},,,{faces[n]},%.17g,\n"]
    )
    yield "\n".join(_config_header(config) + ["k,t,i,x_center,rho,x_face,u,hat_u"]) + "\n"
    # Row i < N takes (k and t, rho_i, u_i, hat_u_i) and the last row (k and
    # t, u_N): four interleaved strides, with u_N closing the rho stride.
    args: list = [None] * (4 * n + 2)
    for k, (rho, u) in enumerate(levels):
        u_list = u.tolist()
        args[0::4] = [f"{k},{_fmt(k * grid.dt)},"] * (n + 1)
        args[1::4] = rho.tolist() + u_list[n:]
        args[2::4] = u_list[:n]
        args[3::4] = hat(u).tolist()
        yield template % tuple(args)


def write_state_csv(traj: Trajectory, path: str, config: RunConfig | None = None) -> None:
    """Write a trajectory as one CSV block per time level.

    Columns: k, t, i, x_center, rho, x_face, u, hat_u.  Each level has N+1
    rows (one per face); the final face row leaves the cell-centered columns
    empty.  The effective configuration rides along as '#' comments.  Each
    level is written as soon as it is formatted, so memory stays at one
    level's text.
    """
    levels = ((state.rho, state.u) for state in traj.states)
    _write_text(path, _state_blocks(traj.grid, levels, config))


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


def _solve_first_level(config: RunConfig, observer=None) -> Trajectory:
    """Solve the scenario at its coarsest level, as run, verify and flux do."""
    scenario = config.scenario
    return run(
        scenario,
        scenario.grid_for(scenario.levels[0]),
        scenario.params,
        config.solver,
        observer=observer,
    )


def _state_writer(conn, grid: GridSpec, config: RunConfig, tmp: str) -> None:
    """Writer process body: write each time level the parent sends to tmp,
    until the empty message that ends the solve."""

    def levels():
        while data := conn.recv_bytes():
            level = np.frombuffer(data)
            yield level[: grid.N], level[grid.N :]

    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_state_blocks(grid, levels(), config))


def _solve_writing_state(config: RunConfig, path: str) -> Trajectory:
    """Solve the first level and write its state CSV to ``path``.

    A forked writer process formats and writes each time level while the
    solver computes the next.  It writes a temporary file next to ``path``,
    which replaces ``path`` only after the solve has finished and the writer
    has closed it; on any failure the temporary file is removed and ``path``
    is left as it was.  Any failure of the writer, or of the replace, is an
    OSError "cannot write <path>".  Where fork does not exist, the CSV is
    written in process after the solve.
    """
    scenario = config.scenario
    grid = scenario.grid_for(scenario.levels[0])
    tmp = f"{path}.{os.getpid()}.tmp"
    writer = fork_worker(_state_writer, grid, config, tmp)
    if writer is None:
        traj = _solve_first_level(config)
        write_state_csv(traj, path, config)
        return traj
    conn = writer[1]

    def wait_for_writer() -> None:
        try:
            worker_result(writer, "state.csv writer")
        except Exception as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc

    def send(data) -> None:
        try:
            conn.send_bytes(data)
        except ConnectionError:
            wait_for_writer()  # raises what stopped the writer
            raise

    try:
        traj = _solve_first_level(
            config, observer=lambda state: send(np.concatenate((state.rho, state.u)))
        )
        send(b"")  # the solve is done: the writer closes its file
        wait_for_writer()
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
    finally:
        stop_worker(writer)
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
    return traj


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
            path = os.path.join(out_dir, "state.csv")
            traj = _solve_writing_state(config, path)
            print(f"wrote {path} ({len(traj)} time levels, N={traj.grid.N})", file=out)
            return 0

        if args.command == "refine":
            if args.levels:
                levels = _parse_levels(args.levels, "--levels", None)
                try:
                    scenario = replace(config.scenario, levels=levels)
                except ValueError as exc:
                    raise ConfigError(f"--levels {args.levels}: {exc}") from exc
                config = replace(config, scenario=scenario)
            # Reject the ladder, then the output directory, before any solve;
            # a rejected ladder leaves no directory behind.
            diagnostics.check_study_levels(len(config.scenario.levels))
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
            os.makedirs(config.out_dir, exist_ok=True)
            traj = _solve_first_level(config)
            ledger = diagnostics.flux_ledger(traj, args.step)
            path = os.path.join(config.out_dir, "flux.csv")
            write_flux_csv(ledger, path, config)
            print(f"wrote {path} (checkpoint m={ledger.m})", file=out)
            print(f"lhs {_fmt(ledger.lhs)} rhs {_fmt(ledger.rhs_total)} "
                  f"gap {_fmt(ledger.identity_gap)}", file=out)
            return 0

        raise ConfigError(f"unknown command {args.command!r}")
    except ValueError as exc:  # ConfigError included
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
