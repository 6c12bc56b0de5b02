"""Scenario library and mesh-refinement study driver.

A scenario couples initial profiles (named analytic shapes or piecewise
constants), domain/physics parameters, and a ladder of resolutions, each
level at the one time-step ratio dt = dt_over_dx * dx.  The refinement
driver runs every level, gathers the identity diagnostics, forms
Cauchy differences between successive levels by exact projection, and turns
decaying error functionals into observed orders with their theoretical floors
side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .grid import FluidState, GridSpec, PhysParams, PiecewiseConstant, Trajectory
from . import diagnostics
from .stepper import SolverConfig, StepFailure, run

__all__ = [
    "ScenarioConfig",
    "RefinementReport",
    "builtin_scenarios",
    "run_refinement",
    "cauchy_differences",
    "fork_worker",
    "send_levels",
    "recv_levels",
    "worker_result",
    "stop_worker",
]


# ======================================================================
# Initial-data profiles
# ======================================================================


def resolve_density_profile(spec: str, L: float):
    """Turn a density-profile spec string into a callable or step function.

    Accepted forms:
      "constant" or "constant:V"        uniform density V (default 1)
      "bump" or "bump:A"                1 + A*sin^2(pi x / L), default A=0.5
      "piecewise:f1,f2|v0,v1,v2"        steps at fractions f_j of L
    """
    kind, _, arg = spec.partition(":")
    if kind == "constant":
        value = float(arg) if arg else 1.0
        return lambda x: value * np.ones_like(np.asarray(x, dtype=float))
    if kind == "bump":
        amp = float(arg) if arg else 0.5
        return lambda x: 1.0 + amp * np.sin(math.pi * np.asarray(x, dtype=float) / L) ** 2
    if kind == "piecewise":
        fracs_txt, _, vals_txt = arg.partition("|")
        breaks = [float(f) * L for f in fracs_txt.split(",") if f.strip()]
        values = [float(v) for v in vals_txt.split(",") if v.strip()]
        return PiecewiseConstant(breakpoints=tuple(breaks), values=tuple(values))
    raise ValueError(f"unknown density profile {spec!r}")


def resolve_velocity_profile(spec: str, L: float) -> Callable:
    """Velocity profile spec: "zero", or "sin2pi"/"sin2pi:A" = A*sin(2 pi x/L)."""
    kind, _, arg = spec.partition(":")
    if kind == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if kind == "sin2pi":
        amp = float(arg) if arg else 0.1
        return lambda x: amp * np.sin(2.0 * math.pi * np.asarray(x, dtype=float) / L)
    raise ValueError(f"unknown velocity profile {spec!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """One named experiment: initial profiles, physics, and a level ladder.

    ``levels`` must be strictly increasing with every entry a multiple of the
    coarsest, so that coarse cells are unions of fine cells and the Cauchy
    projections below are exact.  Every level runs at dt = dt_over_dx * dx,
    so a ladder has one ratio and its time windows nest.  ``GridSpec`` checks
    each level's grid, and so rejects a ratio that leaves T off some level's
    steps.

    ``name`` is a label only; it does not look up a built-in scenario.  With
    the default ``rho0``/``u0``, ``ScenarioConfig(name="riemann-like")`` is a
    constant, quiescent scenario.  To get a built-in one, pick it from
    ``builtin_scenarios()`` by name, or let ``cli.parse_config`` resolve a
    config's ``name`` key, which seeds every default from it.
    """

    name: str
    rho0: str = "constant"
    u0: str = "zero"
    L: float = 1.0
    T: float = 0.25
    params: PhysParams = field(default_factory=PhysParams)
    levels: tuple[int, ...] = (64, 128, 256, 512)
    dt_over_dx: float = 1.0

    def __post_init__(self) -> None:
        levels = self.levels
        if not levels:
            raise ValueError("levels must list at least one N")
        if any(n <= 0 for n in levels):
            raise ValueError("levels must be positive")
        if list(levels) != sorted(set(levels)):
            raise ValueError("levels must be strictly increasing")
        if any(n % levels[0] for n in levels):
            raise ValueError("every level must be a multiple of the coarsest")
        if not (0 < self.dt_over_dx < math.inf):
            raise ValueError(f"dt_over_dx must be positive and finite, got {self.dt_over_dx}")
        # GridSpec states the grid rules (L, T, N >= 2 and the time step).
        for n in levels:
            self.grid_for(n)
        # Each profile must resolve and be finite on [0, L], and the density
        # strictly positive there.
        probe = np.linspace(0.0, self.L, 513)
        for key, spec, resolve in (
            ("rho0", self.rho0, resolve_density_profile),
            ("u0", self.u0, resolve_velocity_profile),
        ):
            try:
                profile = resolve(spec, self.L)
            except ValueError as exc:
                raise ValueError(f"bad {key} profile {spec!r}: {exc}") from None
            with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 is NaN
                vals = np.asarray(profile(probe), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"{key} profile {spec!r} is not finite on [0, L]")
            if key == "rho0" and not (float(np.min(vals)) > 0.0):
                raise ValueError(f"{key} profile {spec!r}: initial density must be strictly positive")

    @property
    def rho0_fn(self):
        return resolve_density_profile(self.rho0, self.L)

    @property
    def u0_fn(self) -> Callable:
        return resolve_velocity_profile(self.u0, self.L)

    def grid_for(self, n: int) -> GridSpec:
        return GridSpec(L=self.L, N=n, dt=self.dt_over_dx * (self.L / n), T=self.T)


def builtin_scenarios() -> tuple[ScenarioConfig, ...]:
    """The stock experiments: steady, smooth, discontinuous, and a gamma sweep.

    The smooth scenarios run at mu = 0.05: weak enough viscosity that the
    flow stays convection-dominated over the whole window, which keeps the
    signed error functionals away from accidental zero crossings and makes
    their decay under refinement monotone from N = 64 on.
    """
    smooth = dict(rho0="bump", u0="sin2pi")
    return (
        ScenarioConfig(name="constant"),
        ScenarioConfig(name="smooth-bump", params=PhysParams(mu=0.05), **smooth),
        ScenarioConfig(name="riemann-like", rho0="piecewise:0.5|2,1", u0="zero",
                       params=PhysParams(mu=0.05)),
        ScenarioConfig(name="gamma-1.6", params=PhysParams(gamma=1.6, mu=0.05), **smooth),
        ScenarioConfig(name="gamma-5over3", params=PhysParams(gamma=5.0 / 3.0, mu=0.05), **smooth),
        ScenarioConfig(name="gamma-1.9", params=PhysParams(gamma=1.9, mu=0.05), **smooth),
    )


# ======================================================================
# Exact fine-to-coarse comparisons
# ======================================================================


def project_cells(fine: np.ndarray, ratio: int) -> np.ndarray:
    """Box-average a fine cell field onto the coarse grid (conserves mass)."""
    if fine.size % ratio:
        raise ValueError("fine grid is not a refinement of the coarse grid")
    return fine.reshape(-1, ratio).mean(axis=1)


def restrict_faces(fine: np.ndarray, ratio: int) -> np.ndarray:
    """Sample a fine face field at the shared coarse face nodes."""
    return fine[::ratio]


def cauchy_differences(coarse: Trajectory, fine: Trajectory) -> tuple[float, float]:
    """(L1-in-space-time density gap, L2-in-space-time velocity gap).

    Both trajectories are extended backward in time (state k on window
    (t^{k-1}, t^k]); each fine window compares against the coarse window that
    contains it, so the coarse time step must be a whole multiple of the fine
    one.  Density is projected by exact box averages, velocity by restriction
    to the shared coarse nodes; the remaining integrals are then evaluated in
    closed form.  Only complete groups of nested windows enter.
    """
    ratio = fine.grid.N // coarse.grid.N
    if ratio * coarse.grid.N != fine.grid.N or ratio < 1:
        raise ValueError("fine level is not a multiple of the coarse level")
    tratio = round(coarse.grid.dt / fine.grid.dt)
    if tratio < 1 or abs(coarse.grid.dt - tratio * fine.grid.dt) > 1e-12 * coarse.grid.dt:
        raise ValueError("coarse time step is not a whole multiple of the fine one")
    mc, mf = len(coarse) - 1, len(fine) - 1
    groups = min(mc, mf // tratio)
    dt_f = fine.grid.dt
    dx_c = coarse.grid.dx
    l1 = 0.0
    l2_sq = 0.0
    for j in range(1, groups * tratio + 1):
        k = (j + tratio - 1) // tratio
        rho_gap = coarse.states[k].rho - project_cells(fine.states[j].rho, ratio)
        l1 += dt_f * dx_c * float(np.sum(np.abs(rho_gap)))
        u_gap = coarse.states[k].u - restrict_faces(fine.states[j].u, ratio)
        l2_sq += dt_f * diagnostics.linear_l2_sq(u_gap, dx_c)
    return l1, math.sqrt(l2_sq)


# ======================================================================
# Refinement driver
# ======================================================================


_ORDER_FLOORS: dict[str, Callable[[float], float | None]] = {
    "E1": lambda gamma: (2.0 * gamma - 3.0) / (2.0 * gamma),
    "E2": lambda gamma: (3.0 * gamma - 4.0) / (2.0 * gamma),
    "P1": lambda gamma: 0.5,
    "P2": lambda gamma: 0.25,
    "cauchy_rho": lambda gamma: None,
    "cauchy_u": lambda gamma: None,
}


@dataclass(frozen=True)
class RefinementReport:
    """Everything a convergence study produced, as plain data.

    ``orders`` maps each decaying functional to {"magnitudes", "orders",
    "order", "floor"}; ``boundedness`` maps each monitored norm to its
    per-level values and max/min ratio; ``per_level`` holds one diagnostics
    summary dict per completed level.  ``flags`` collects advisory notes
    (regime violations, solver fallbacks, aborted levels); ``failed`` is set
    when a level's solve failed and the report is partial.
    """

    scenario: str
    levels: tuple[int, ...]
    per_level: tuple[dict, ...]
    cauchy_rho: tuple[float, ...]
    cauchy_u: tuple[float, ...]
    orders: dict[str, dict]
    boundedness: dict[str, dict]
    flags: tuple[str, ...]
    failed: bool = False


def _solve_level(
    scenario: ScenarioConfig, solver: SolverConfig, n: int
) -> tuple[Trajectory, dict]:
    """Solve one level of the ladder and summarize its diagnostics."""
    traj = run(scenario, scenario.grid_for(n), scenario.params, solver)
    return traj, diagnostics.level_summary(traj)


def fork_worker(target, *args):
    """Fork a process running target(conn, *args); None where fork does not exist.

    Returns (process, conn), conn being this process's end of a duplex pipe
    whose other end target gets.  Either side may send the other time levels
    with ``send_levels``/``recv_levels`` while target runs.  The child's last
    message is target's return value, or the exception it raised, which
    ``worker_result`` receives.  A forked child starts from the parent's
    imports (a spawned one would pay the numpy/scipy import again) and needs
    none of its arguments pickled; only its messages cross.
    """
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return None
    conn, child_conn = ctx.Pipe()
    proc = ctx.Process(
        target=_forked_main, args=(conn, child_conn, target, args), daemon=True
    )
    proc.start()
    child_conn.close()
    return proc, conn


# A time level crosses a pipe as either of two kinds, told apart by one
# trailing byte: a state, as N + (N+1) doubles, rho then u, or the level's
# text, already formatted.  The tag trails so that a state's doubles stay
# aligned.  The empty message ends the levels.
_STATE, _TEXT = b"s", b"t"


def _send_level(conn, level: FluidState | str | None) -> None:
    """Send one time level as its state or as its text; None sends the
    empty message that ends the levels."""
    if level is None:
        conn.send_bytes(b"")
    elif isinstance(level, str):
        conn.send_bytes(level.encode() + _TEXT)
    else:
        conn.send_bytes(np.concatenate((level.rho, level.u)).tobytes() + _STATE)


def send_levels(conn, levels: Iterable[FluidState | str]) -> None:
    """Send each level, a state or its text, then the end message.  A worker
    that has ended cannot take them; worker_result then says what ended it."""
    try:
        for level in levels:
            _send_level(conn, level)
        _send_level(conn, None)
    except ConnectionError:
        pass


def recv_levels(conn, n: int) -> Iterator[tuple[np.ndarray, np.ndarray] | str]:
    """Yield each level ``send_levels`` sent on an N = n grid, as (rho, u) or
    as its text, until the empty message."""
    while data := conn.recv_bytes():
        if data.endswith(_TEXT):
            yield data[:-1].decode()
        else:
            level = np.frombuffer(data, count=2 * n + 1)
            yield level[:n], level[n:]


def _forked_main(parent_conn, conn, target, args) -> None:
    """Child process body: send back target's result or its exception."""
    # The child inherits the parent's end too; holding it open would keep
    # the child from ever seeing the parent close the pipe.
    parent_conn.close()
    try:
        result = target(conn, *args)
    except Exception as exc:
        result = exc
    conn.send(result)
    conn.close()


def worker_result(worker, name: str):
    """Wait for a forked worker's result and reap it; re-raise its exception here."""
    proc, conn = worker
    try:
        result = conn.recv()
    except (EOFError, ConnectionError):  # a killed child can reset the pipe
        proc.join()
        raise RuntimeError(
            f"{name} exited with code {proc.exitcode} without a result"
        ) from None
    proc.join()
    if isinstance(result, Exception):
        raise result
    return result


def stop_worker(worker) -> None:
    """Stop and reap a forked worker (a no-op once it has ended), then close its pipe."""
    proc, conn = worker
    proc.terminate()
    proc.join()
    conn.close()


def _finest_level_worker(
    conn, scenario: ScenarioConfig, solver: SolverConfig, n: int, n_coarse: int
) -> tuple[dict, tuple[float, float]]:
    """Worker body: solve and summarize level n, then read level n_coarse's
    states from conn and return (summary, its Cauchy pair with level n)."""
    fine, summary = _solve_level(scenario, solver, n)
    coarse = Trajectory(
        grid=scenario.grid_for(n_coarse),
        params=scenario.params,
        states=tuple(
            FluidState(rho=rho, u=u, k=k)
            for k, (rho, u) in enumerate(recv_levels(conn, n_coarse))
        ),
    )
    return summary, cauchy_differences(coarse, fine)


def run_refinement(
    scenario: ScenarioConfig, solver: SolverConfig | None = None
) -> RefinementReport:
    """Run the scenario across its level ladder and assemble the report.

    The finest level, whose cost alone exceeds that of all coarser ones
    (about N^2 at a fixed dt/dx), is solved and summarized in a forked worker
    process while this process solves the coarser levels one after another,
    coarsest first, and takes each Cauchy pair as soon as its finer level is
    done.  Once the next-to-finest level is solved, this process sends its
    states to the worker, each as its doubles (``send_levels``); the worker
    sends back only its level's summary and the last Cauchy pair, so the
    finest trajectory never leaves it.  A failing level aborts the study as
    if the levels ran in order: completed levels are reported, a flag records
    the failure, and ``failed`` is set; a failure below the finest level
    discards the worker.
    A worker that ended before it read the coarse level is reported by
    ``worker_result``, with what ended it.  Levels are independent and the
    worker computes exactly what this process would, so the study's numbers
    do not depend on where a level ran.  Where fork does not exist, every
    level runs in this process.
    """
    solver = solver or SolverConfig()
    levels = scenario.levels
    diagnostics.check_study_levels(len(levels))

    finest, next_finest = levels[-1], levels[-2]
    worker = fork_worker(_finest_level_worker, scenario, solver, finest, next_finest)
    done: list[int] = []
    summaries: list[dict] = []
    cauchy_rho: list[float] = []
    cauchy_u: list[float] = []
    flags: list[str] = []
    failed = False
    coarse = None  # the last level solved here, until its Cauchy pair is taken
    try:
        for n in levels:
            pair = None
            try:
                if n == finest and worker is not None:
                    summary, pair = worker_result(worker, f"level {n} worker")
                else:
                    traj, summary = _solve_level(scenario, solver, n)
                    if coarse is not None:
                        pair = cauchy_differences(coarse, traj)
                    coarse = traj
                    if n == next_finest and worker is not None:
                        send_levels(worker[1], traj.states)
            except StepFailure as exc:
                flags.append(f"level {n} solve failed: {exc}")
                failed = True
                break
            if pair is not None:
                cauchy_rho.append(pair[0])
                cauchy_u.append(pair[1])
            done.append(n)
            summaries.append(summary)
    finally:
        if worker is not None:
            # After a failure below the finest level, the worker's level is dropped.
            stop_worker(worker)

    per_level = tuple(summaries)
    for row in per_level:
        if row["fallback_steps"]:
            flags.append(f"level {row['N']}: {row['fallback_steps']} fixed-point fallback steps")

    orders: dict[str, dict] = {}
    # Decay orders need a study's worth of completed levels, each with at
    # least one step, to telescope; otherwise report magnitudes alone.
    steps_everywhere = all(row["steps"] for row in per_level)
    if len(done) >= diagnostics.STUDY_MIN_LEVELS and steps_everywhere:
        rates = diagnostics.rates_from_levels(per_level)
        for key in ("E1", "E2", "P1", "P2"):
            entry = dict(rates[key])
            entry["floor"] = _ORDER_FLOORS[key](scenario.params.gamma)
            orders[key] = entry
        hs_pairs = [scenario.L / n for n in done[:-1]]
        for key, series in (("cauchy_rho", cauchy_rho), ("cauchy_u", cauchy_u)):
            entry = diagnostics.summarize_orders(series, hs_pairs)
            entry["floor"] = _ORDER_FLOORS[key](scenario.params.gamma)
            orders[key] = entry

    boundedness = {
        key: diagnostics.boundedness([row[key] for row in per_level])
        for key in (
            "rho_gamma_plus_1",
            "rho_Linf_Lgamma",
            "pressure_Linf_L1",
            "u_L2_H1",
            "u_L2_Linf",
            "momentum_Linf_Lr",
            "kinetic_Linf_L1",
            "rho_u_L2_Lgamma",
            "rho_u2_L2_Lr",
        )
    }

    if not scenario.params.in_theory_range:
        flags.append(scenario.params.gamma_note)

    return RefinementReport(
        scenario=scenario.name,
        levels=tuple(done),
        per_level=per_level,
        cauchy_rho=tuple(cauchy_rho),
        cauchy_u=tuple(cauchy_u),
        orders=orders,
        boundedness=boundedness,
        flags=tuple(flags),
        failed=failed,
    )
