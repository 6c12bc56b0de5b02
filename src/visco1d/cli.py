"""Configuration files, CSV serialization, and the command-line interface.

The config format is a flat INI-like text with three sections —
``[scenario]``, ``[solver]``, ``[output]`` — and ``key = value`` lines.
Parsing is deliberately hand-rolled so every diagnostic can name the exact
key and line; unknown keys and sections are errors, not warnings.  One
table, ``_KEYS``, lists every key, and both the parser and the writer walk
it.  The parser states no value range itself: each key is applied to the
object that owns its rule (``PhysParams``, ``ScenarioConfig`` or
``SolverConfig``), and the ``ValueError`` that object raises becomes a
ConfigError naming the key and its line.  All numeric output uses 17
significant digits, which round-trips IEEE doubles exactly, and repeated
invocations produce byte-identical files.

Exit codes: 0 success, 1 solver failure, 2 configuration error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import random
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields, replace

# Before numpy loads OpenBLAS: the band solves are too small for BLAS threads,
# which would only spin idle.  A value the user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import diagnostics
from .grid import GridSpec, Trajectory
from .harness import (
    RefinementReport,
    ScenarioConfig,
    builtin_scenario,
    fork_worker,
    recv_levels,
    run_refinement,
    send_levels,
    stop_worker,
    worker_result,
)
# The inverse gradients and run are named here for perfbench's tracer, which wraps
# cli's names; diagnostics calls the former, and every command streams from march.
from .operators import dirichlet_inv_grad, hat, neumann_inv_grad  # noqa: F401
from .stepper import SolverConfig, StepFailure, march, run  # noqa: F401

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
    if isinstance(x, tuple):
        return ",".join(map(_fmt, x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _fmt_float(float(x))


class ConfigError(ValueError):
    """A configuration problem, annotated with the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


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


def _parse_levels(raw: str, key: str, line: int | None) -> tuple[int, ...]:
    return tuple(_parse_int(p.strip(), key, line) for p in raw.split(",") if p.strip())


def _parse_text(raw: str, key: str, line: int) -> str:
    return raw


def _parse_tol(raw: str, key: str, line: int) -> float | None:
    """A number, or ``auto`` (None): the tolerance adapts to each step."""
    return None if raw.lower() == "auto" else _parse_float(raw, key, line)


# Each section's keys, in field order, with the parser of each value.  A
# [scenario] key is a ScenarioConfig field, or a field of its PhysParams
# ``params`` (a, gamma, mu); a [solver] key is a SolverConfig field, and an
# [output] key a RunConfig field.
_KEYS = {
    "scenario": {
        "name": _parse_text,
        "rho0": _parse_text,
        "u0": _parse_text,
        "L": _parse_float,
        "T": _parse_float,
        "a": _parse_float,
        "gamma": _parse_float,
        "mu": _parse_float,
        "levels": _parse_levels,
        "dt_over_dx": _parse_float,
    },
    "solver": {
        "newton_tol": _parse_tol,
        "max_newton_iters": _parse_int,
        "fallback": _parse_int,
        "polish_floor": _parse_float,
    },
    "output": {"out_dir": _parse_text},
}


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration: scenario + solver + output destination."""

    scenario: ScenarioConfig
    solver: SolverConfig = field(default_factory=SolverConfig)
    out_dir: str = "."

    def to_text(self) -> str:
        """Serialize every effective value; parse_config() round-trips it."""
        lines = []
        for section, keys in _KEYS.items():
            obj = self if section == "output" else getattr(self, section)
            lines.append(f"[{section}]")
            for key in keys:
                value = getattr(obj, key) if hasattr(obj, key) else getattr(obj.params, key)
                if value is None:
                    value = "auto"  # newton_tol, the one key that may be None
                lines.append(f"{key} = {_fmt(value)}")
            lines.append("")
        return "\n".join(lines)


def _with_keys(config: RunConfig, section: str, values: dict) -> RunConfig:
    """config with one section's keys replaced, checked by the objects that own them."""
    if section == "output":
        return replace(config, **values)
    obj = getattr(config, section)
    own = {key: value for key, value in values.items() if hasattr(obj, key)}
    params = {key: value for key, value in values.items() if key not in own}
    if params:
        own["params"] = replace(obj.params, **params)
    return replace(config, **{section: replace(obj, **own)})


def parse_config(text: str) -> RunConfig:
    """Parse config text into a validated RunConfig with defaults recorded.

    A ``name`` matching a built-in scenario seeds every scenario field, and
    explicit keys override it; an unknown name requires at least ``rho0`` so
    that the scenario is fully specified.  Each key is checked by the
    object that owns its rule, and an out-of-range value raises ConfigError
    naming the key and its line.
    """
    sections: dict[str, dict[str, tuple[str, int]]] = {name: {} for name in _KEYS}
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
        if key not in _KEYS[current]:
            raise ConfigError(f"unknown key '{key}' in [{current}]", ln)
        if key in sections[current]:
            raise ConfigError(f"duplicate key '{key}' in [{current}]", ln)
        sections[current][key] = (value, ln)

    sc = sections["scenario"]
    if "name" not in sc:
        raise ConfigError("missing required key 'name' in [scenario]")
    name, name_ln = sc["name"]
    scenario = builtin_scenario(name)
    if scenario is None:
        if "rho0" not in sc:
            raise ConfigError(
                f"unknown scenario '{name}' and no rho0 profile given", name_ln
            )
        scenario = ScenarioConfig(name=name)
    given = []  # (section, key, value, line) in field order
    for section, keys in _KEYS.items():
        for key, parse in keys.items():
            if key in sections[section]:
                raw, ln = sections[section][key]
                given.append((section, key, parse(raw, key, ln), ln))

    def build(items) -> RunConfig:
        config = RunConfig(scenario=scenario)
        for section in _KEYS:
            values = {key: value for s, key, value, _ in items if s == section}
            config = _with_keys(config, section, values)
        return config

    # The keys are applied all at once, so that a rule joining keys (T a
    # whole number of every level's time steps) judges the config as
    # written, not a mix of given and default values.
    try:
        return build(given)
    except ValueError as exc:
        error = exc
    # Name the one key without which the config would be taken.
    for i, (section, _, _, ln) in enumerate(given):
        try:
            build(given[:i] + given[i + 1:])
        except ValueError:
            continue
        raise ConfigError(f"invalid {section}: {error}", ln) from error
    # More than one key is at fault: name the first, in field order.
    for i, (section, _, _, ln) in enumerate(given):
        try:
            build(given[: i + 1])
        except ValueError as exc:
            raise ConfigError(f"invalid {section}: {exc}", ln) from exc
    raise error  # not reached: the whole config is the last prefix tried


# ======================================================================
# CSV writers
# ======================================================================


def _config_header(config: RunConfig | None) -> list[str]:
    if config is None:
        return []
    return ["# " + line for line in config.to_text().splitlines()]


def _level_formatter(grid: GridSpec) -> Callable[[int, np.ndarray, np.ndarray], np.ndarray]:
    """The function that formats time level k's (rho, u) on grid as its block
    of the state CSV, returned as bytes in an array.

    Every row of a level is laid out once, in one byte matrix: the level's
    ``k,t,`` prefix, then the grid columns, formatted once per grid, and the
    rho, u and hat_u fields, each NUL-padded to its column's width.  A level
    writes its prefix and its fields, which ``g17.Fields`` formats in one
    call, into the matrix, and its text is the matrix without its NUL bytes.
    A level whose rho and u have the bits of the level before keeps that
    level's fields.
    """
    from . import g17  # only the state CSV loads the kernel

    n = grid.N
    width = g17.WIDTH
    heads = [f"{i},{_fmt_float(c)}," for i, c in enumerate(grid.cell_centers.tolist())]
    heads.append(f"{n},,")
    mids = [f",{_fmt_float(f)}," for f in grid.face_nodes.tolist()]
    # Column blocks, in row order: the prefix, padded on its left so that it
    # runs into the head; the head; rho; the face, padded on its left so
    # that it runs into u; u; a comma; hat_u; the newline.
    prefix = len(str(grid.M_steps)) + width + 2
    starts = np.cumsum([0, prefix, max(map(len, heads)), width, max(map(len, mids)), width,
                        1, width, 1])
    rows = np.zeros((n + 1, starts[-1]), dtype=np.uint8)

    def block(j: int) -> np.ndarray:
        return rows[:, starts[j]:starts[j + 1]]

    for j, texts, align in ((1, heads, str.ljust), (3, mids, str.rjust)):
        text = "".join(align(t, starts[j + 1] - starts[j], "\0") for t in texts)
        block(j)[:] = np.frombuffer(text.encode(), dtype=np.uint8).reshape(n + 1, -1)
    block(5)[:] = ord(",")
    block(7)[:] = ord("\n")
    # Each value's field is copied whole, as one item of WIDTH bytes: rho
    # and hat_u into rows 0..N-1, u into every row.
    field = np.dtype((np.void, width))
    rho_col, u_col, hat_col = (block(j).view(field)[:, 0] for j in (2, 4, 6))
    pre = block(0)
    flat, keep = rows.ravel(), np.empty(rows.size, dtype=bool)
    fields = g17.Fields(3 * n + 1)
    values = np.empty(3 * n + 1)  # rho, u, hat_u
    bits, last_bits = values[: 2 * n + 1].view(np.uint64), np.empty(2 * n + 1, dtype=np.uint64)

    def level_text(k: int, rho: np.ndarray, u: np.ndarray) -> np.ndarray:
        pre[:] = np.frombuffer(f"{k},{_fmt(k * grid.dt)},".encode().rjust(prefix, b"\0"),
                               dtype=np.uint8)
        np.concatenate((rho, u, hat(u)), out=values)
        if k == 0 or not np.array_equal(bits, last_bits):  # level 0 has none before it
            cells = fields(values).view(field)[:, 0]
            rho_col[:n] = cells[:n]
            u_col[:] = cells[n:2 * n + 1]
            hat_col[:n] = cells[2 * n + 1:]
            last_bits[:] = bits
        return flat[np.not_equal(flat, 0, out=keep)]

    return level_text


def _write_levels(
    path: str,
    grid: GridSpec,
    levels: Iterable[tuple[np.ndarray, np.ndarray]],
    config: RunConfig | None,
) -> None:
    """Write the state CSV to path: its header, then each (rho, u) level as
    it comes."""
    level_text = _level_formatter(grid)
    header = "\n".join(_config_header(config) + ["k,t,i,x_center,rho,x_face,u,hat_u"]) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for k, level in enumerate(levels):
            fh.write(level_text(k, *level))


def write_state_csv(traj: Trajectory, path: str, config: RunConfig | None = None) -> None:
    """Write a trajectory as one CSV block per time level.

    Columns: k, t, i, x_center, rho, x_face, u, hat_u.  Each level has N+1
    rows (one per face); the final face row leaves the cell-centered columns
    empty.  The effective configuration rides along as '#' comments.  Each
    level is written as soon as it is formatted, so memory stays at one
    level's text.
    """
    try:
        _write_levels(path, traj.grid, ((state.rho, state.u) for state in traj.states), config)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


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

    One row per level: level, each column of diagnostics.STUDY_COLUMNS (the
    Cauchy gaps are to the previous level, so blank on the first row), and
    each observed order for the pair of that column's entries ending at that
    level (blank on the first row that carries the column and before it).
    The trailing summary block lists every identity residual against its
    tolerance and every observed order against its theoretical floor.
    """
    columns = diagnostics.STUDY_COLUMNS
    decaying = [key for key, kind in columns.items() if callable(kind)]
    rows = _config_header(config)
    rows.append(",".join(["level", *columns, *(f"order_{key}" for key in decaying)]))
    # Each column's pairs count from the first row that carries the column.
    first = {key: next((idx for idx, row in enumerate(report.per_level) if key in row), 0)
             for key in decaying}
    for idx, summary in enumerate(report.per_level):
        cells = [str(summary["N"])]
        cells += [_fmt(summary[key]) if key in summary else "" for key in columns]
        cells += [_order_cell(report.orders.get(key), idx - 1 - first[key]) for key in decaying]
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
    for key, entry in report.orders.items():
        observed = entry.get("order")
        floor = entry.get("floor")
        rows.append(
            f"# order {key}: observed {_fmt(observed) if observed is not None else 'undefined'}"
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
    for f in fields(ledger):
        rows.append(f"{f.name},{_fmt(getattr(ledger, f.name))}")
    for name, val in ledger.rhs_terms.items():
        rows.append(f"rhs_{name},{_fmt(val)}")
    rows.append(f"rhs_total,{_fmt(ledger.rhs_total)}")
    rows.append(f"identity_gap,{_fmt(ledger.identity_gap)}")
    rows.append(f"pairing_gap,{_fmt(ledger.pairing_gap)}")
    rows.append(f"decomposition_gap,{_fmt(ledger.decomposition_gap)}")
    _write_text(path, "\n".join(rows) + "\n")


def _write_text(path: str, content: str) -> None:
    """Write content to path; an OSError names path."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# ======================================================================
# run's state.csv writer process
# ======================================================================


def _state_writer(conn, grid: GridSpec, config: RunConfig, tmp: str) -> None:
    """Writer process body: write to tmp each time level the parent sends,
    until the empty message that ends the solve."""
    _write_levels(tmp, grid, recv_levels(conn, grid.N), config)


def _solve_writing_state(config: RunConfig, path: str) -> GridSpec:
    """Solve the first level, streaming its state CSV to ``path``; returns its grid.

    A forked writer process formats and writes each time level while the
    solver computes the next; the solver only sends it the states.  Where
    fork does not exist, this process writes each level as soon as it is
    solved.  No trajectory is kept.  The CSV goes to a temporary file next
    to ``path``, which replaces ``path`` only after the solve has finished
    and the file is closed; on any failure the temporary file is removed and
    ``path`` is left as it was.  Any failure of the writing, or of the
    replace, is an OSError "cannot write <path>".
    """
    scenario = config.scenario
    grid = scenario.grid_for(scenario.levels[0])
    states = (state for state, _ in march(scenario, grid, scenario.params, config.solver))
    tmp = f"{path}.{os.getpid()}.tmp"
    writer = fork_worker(_state_writer, grid, config, tmp)
    try:
        if writer is None:
            _write_levels(tmp, grid, ((state.rho, state.u) for state in states), config)
        else:
            send_levels(writer[1], states)
            try:
                worker_result(writer, "state.csv writer")
            except Exception as exc:  # what stopped the writer
                raise OSError(str(exc)) from exc
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    finally:
        if writer is not None:
            stop_worker(writer)
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
    return grid


# ======================================================================
# Verification suite
# ======================================================================


def _verify(config: RunConfig, out) -> int:
    """Run the identity suite at the coarsest level; 0 if all pass, else 3.

    The suite walks each state as the solver makes it, so no trajectory is
    kept.
    """
    scenario = config.scenario
    grid = scenario.grid_for(scenario.levels[0])
    suite = diagnostics.IdentitySuite(
        grid, scenario.params, march(scenario, grid, scenario.params, config.solver))
    checks = suite.checks()

    checks += (diagnostics.duality_check(50, random.Random(20240817)),)

    pos = suite.positivity()
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
        params = config.scenario.params
        if not params.in_theory_range:
            print(f"WARNING {params.gamma_note}", file=sys.stderr)

        if args.command == "run":
            out_dir = args.out or config.out_dir
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, "state.csv")
            grid = _solve_writing_state(config, path)
            print(f"wrote {path} ({grid.M_steps + 1} time levels, N={grid.N})", file=out)
            return 0

        if args.command == "refine":
            if args.levels is not None:
                levels = _parse_levels(args.levels, "--levels", None)
                try:
                    config = _with_keys(config, "scenario", {"levels": levels})
                except ValueError as exc:
                    raise ConfigError(f"--levels {args.levels}: {exc}") from exc
            # Reject the ladder, then the output directory, before any solve;
            # a rejected ladder leaves no directory behind.
            diagnostics.check_study_levels(len(config.scenario.levels))
            out_dir = args.out or config.out_dir
            os.makedirs(out_dir, exist_ok=True)
            try:
                report = run_refinement(config.scenario, config.solver)
            except RuntimeError as exc:  # the finest level's worker ended without a result
                print(f"solver failure: {exc}", file=sys.stderr)
                return 1
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
            grid = config.scenario.grid_for(config.scenario.levels[0])
            m = diagnostics.check_checkpoint(args.step, grid.M_steps)  # before the solve
            os.makedirs(config.out_dir, exist_ok=True)
            states = (state for state, _ in march(config.scenario, grid, params, config.solver))
            ledger = diagnostics.flux_ledger(grid, params, states, m)
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


if __name__ == "__main__":
    main()
