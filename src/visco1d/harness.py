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
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .grid import RHO0_FLOOR, FluidState, GridSpec, PhysParams, PiecewiseConstant, Trajectory
from . import diagnostics
# run is named here for perfbench's tracer, which wraps harness.run; every
# level streams from march.
from .stepper import SolverConfig, StepFailure, march, run  # noqa: F401

__all__ = [
    "ScenarioConfig",
    "RefinementReport",
    "builtin_scenarios",
    "builtin_scenario",
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
      "piecewise:f1,f2|v0,v1,v2"        steps at fractions 0 < f_j < 1 of L
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
        fracs = [float(f) for f in fracs_txt.split(",") if f.strip()]
        values = [float(v) for v in vals_txt.split(",") if v.strip()]
        # A step at or beyond a wall would leave a value no cell holds.
        if not all(0.0 < f < 1.0 for f in fracs):
            raise ValueError(f"breakpoint fractions must lie inside (0, 1), got {fracs_txt}")
        return PiecewiseConstant(breakpoints=tuple(f * L for f in fracs), values=tuple(values))
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
    constant, quiescent scenario.  To get a built-in one, call
    ``builtin_scenario(name)`` or pick it from ``builtin_scenarios()``, or let
    ``cli.parse_config`` resolve a config's ``name`` key, which seeds every
    default from it.
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
        grids = [self.grid_for(n) for n in levels]
        # Each profile must resolve and be finite where init_state reads it on
        # every level, rho0 as its cell averages, which must stay above
        # init_state's floor, and u0 at the faces.
        for key, spec, resolve in (
            ("rho0", self.rho0, resolve_density_profile),
            ("u0", self.u0, resolve_velocity_profile),
        ):
            try:
                profile = resolve(spec, self.L)
            except ValueError as exc:
                raise ValueError(f"bad {key} profile {spec!r}: {exc}") from None
            for grid in grids:
                with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 is NaN
                    vals = (grid.cell_averages(profile) if key == "rho0"
                            else np.asarray(profile(grid.face_nodes), dtype=float))
                if not np.all(np.isfinite(vals)):
                    raise ValueError(f"{key} profile {spec!r} is not finite on [0, L]")
                if key == "rho0" and not (float(np.min(vals)) > RHO0_FLOOR):
                    raise ValueError(
                        f"{key} profile {spec!r} averages {np.min(vals):g} on a cell at "
                        f"N={grid.N}: initial density must be strictly positive, above the "
                        f"floor {RHO0_FLOOR:g}")

    @property
    def rho0_fn(self):
        return resolve_density_profile(self.rho0, self.L)

    @property
    def u0_fn(self) -> Callable:
        return resolve_velocity_profile(self.u0, self.L)

    def grid_for(self, n: int) -> GridSpec:
        return GridSpec(L=self.L, N=n, dt=self.dt_over_dx * (self.L / n), T=self.T)


_SMOOTH = dict(rho0="bump", u0="sin2pi")
# Each built-in scenario's fields beyond its name, so that one is built alone.
_BUILTINS: dict[str, dict] = {
    "constant": {},
    "smooth-bump": dict(params=PhysParams(mu=0.05), **_SMOOTH),
    "riemann-like": dict(rho0="piecewise:0.5|2,1", u0="zero", params=PhysParams(mu=0.05)),
    "gamma-1.6": dict(params=PhysParams(gamma=1.6, mu=0.05), **_SMOOTH),
    "gamma-5over3": dict(params=PhysParams(gamma=5.0 / 3.0, mu=0.05), **_SMOOTH),
    "gamma-1.9": dict(params=PhysParams(gamma=1.9, mu=0.05), **_SMOOTH),
}


def builtin_scenarios() -> tuple[ScenarioConfig, ...]:
    """The stock experiments: steady, smooth, discontinuous, and a gamma sweep.

    The smooth scenarios run at mu = 0.05: weak enough viscosity that the
    flow stays convection-dominated over the whole window, which keeps the
    signed error functionals away from accidental zero crossings and makes
    their decay under refinement monotone from N = 64 on.
    """
    return tuple(builtin_scenario(name) for name in _BUILTINS)


def builtin_scenario(name: str) -> ScenarioConfig | None:
    """The built-in scenario called ``name``, built without the others; None
    if no built-in has that name."""
    fields = _BUILTINS.get(name)
    return None if fields is None else ScenarioConfig(name=name, **fields)


# ======================================================================
# Exact fine-to-coarse comparisons
# ======================================================================


def project_cells(fine: np.ndarray, ratio: int) -> np.ndarray:
    """Box-average a fine cell field, or each row of a block, onto the coarse
    grid (conserves mass)."""
    if fine.shape[-1] % ratio:
        raise ValueError("fine grid is not a refinement of the coarse grid")
    return fine.reshape(fine.shape[:-1] + (-1, ratio)).mean(axis=-1)


def restrict_faces(fine: np.ndarray, ratio: int) -> np.ndarray:
    """Sample a fine face field, or each row of a block, at the shared coarse face nodes."""
    return fine[..., ::ratio]


class _Cauchy:
    """cauchy_differences in the finer level's walk.  ``states`` yields the
    coarser level's (rho, u) in order; each is read once a fine step needs it
    and ``ready()``, and until then the steps wait as their projections."""

    def __init__(self, coarse: GridSpec, fine: GridSpec, states: Iterable, ready=lambda: True):
        self.ratio, self.tratio = fine.N // coarse.N, round(coarse.dt / fine.dt)
        if self.ratio * coarse.N != fine.N or self.ratio < 1:
            raise ValueError("fine level is not a multiple of the coarse level")
        if self.tratio < 1 or abs(coarse.dt - self.tratio * fine.dt) > 1e-12 * coarse.dt:
            raise ValueError("coarse time step is not a whole multiple of the fine one")
        self._dt_f, self._dx_c = fine.dt, coarse.dx
        self._states, self._ready = iter(states), ready
        self._read, self._over = -1, None  # the last coarse state read: its index, itself
        self._waiting: deque = deque()
        self._compared, self.l1, self.l2_sq = 0, 0.0, 0.0

    def start(self, level) -> None:
        pass

    def push(self, cur) -> None:
        u = np.ascontiguousarray(restrict_faces(cur.u, self.ratio))  # a copy, not a fine view
        self._waiting.extend(zip(project_cells(cur.rho, self.ratio), u))
        self._compare(self._ready)

    def _compare(self, ready) -> None:
        """Compare the waiting steps in order, while each one's coarse state is read or ready."""
        over = []
        for i in range(len(self._waiting)):
            window = (self._compared + i + self.tratio) // self.tratio
            while self._read < window and ready():
                self._over, self._read = next(self._states), self._read + 1
            if self._read < window:
                break
            over.append(self._over)
        fine = [self._waiting.popleft() for _ in over]
        self._compared += len(over)
        if not over:
            return
        rho_gap = np.array([rho for rho, _ in over]) - np.array([rho for rho, _ in fine])
        u_gap = np.array([u for _, u in over]) - np.array([u for _, u in fine])
        rows = zip((self._dt_f * self._dx_c * np.abs(rho_gap).sum(axis=1)).tolist(),
                   (self._dt_f * diagnostics.linear_l2_sq(u_gap, self._dx_c)).tolist())
        for l1_step, l2_step in rows:  # one step at a time, in order
            self.l1 += l1_step
            self.l2_sq += l2_step

    def result(self) -> dict[str, float]:
        """The finer level's Cauchy gaps to the coarser one, as its row's columns."""
        self._compare(lambda: True)
        return {"cauchy_rho": self.l1, "cauchy_u": math.sqrt(self.l2_sq)}


def cauchy_differences(coarse: Trajectory, fine: Trajectory) -> tuple[float, float]:
    """(L1-in-space-time density gap, L2-in-space-time velocity gap).

    Both trajectories are extended backward in time (state k on window
    (t^{k-1}, t^k]); each fine window compares against the coarse window that
    contains it, so the coarse time step must be a whole multiple of the fine
    one.  Density is projected by exact box averages, velocity by restriction
    to the shared coarse nodes; the remaining integrals are then evaluated in
    closed form.  Only complete groups of nested windows enter.  The fine
    steps are walked in blocks (diagnostics.walk_blocks) through the one
    accumulator that run_refinement feeds each level's states as they are
    solved, each row with the bits of one step at a time.
    """
    pair = _Cauchy(coarse.grid, fine.grid, ((s.rho, s.u) for s in coarse.states))
    groups = min(len(coarse) - 1, (len(fine) - 1) // pair.tratio)
    diagnostics.walk_blocks(fine.grid, fine.params, fine.states[: groups * pair.tratio + 1], pair)
    return tuple(pair.result().values())


# ======================================================================
# Refinement driver
# ======================================================================


@dataclass(frozen=True)
class RefinementReport:
    """Everything a convergence study produced, as plain data.

    ``per_level`` holds one row per completed level: its
    diagnostics.level_summary and, after the first level, its Cauchy gaps to
    the level before.  ``orders`` and ``boundedness`` are
    diagnostics.study_rates of those rows: ``orders`` maps each decaying
    column of diagnostics.STUDY_COLUMNS to {"magnitudes", "orders", "order",
    "floor"}, the floor being the one that column declares, and
    ``boundedness`` maps each bounded one to its per-level values and
    max/min ratio.  ``flags`` collects advisory notes
    (regime violations, solver fallbacks, aborted levels); ``failed`` is set
    when a level's solve failed and the report is partial.
    """

    scenario: str
    levels: tuple[int, ...]
    per_level: tuple[dict, ...]
    orders: dict[str, dict]
    boundedness: dict[str, dict]
    flags: tuple[str, ...]
    failed: bool = False


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


def _handed_on(stream, keep: list | None, conn=None):
    """A run's (state, meta) pairs as they come, each state first kept in
    ``keep`` as its (rho, u), or sent on ``conn`` until the worker has ended."""
    for state, meta in stream:
        if keep is not None:
            keep.append((state.rho, state.u))
        if conn is not None:
            try:
                _send_level(conn, state)
            except ConnectionError:
                conn = None
        yield state, meta


def _level(scenario: ScenarioConfig, solver: SolverConfig, n: int, coarse=None,
           keep: list | None = None, conn=None, ready=lambda: True):
    """Level n's row of the study from one walk of the states march makes:
    its summary and, given ``coarse`` (the level before's N and states), its
    Cauchy gaps to that level."""
    grid = scenario.grid_for(n)
    stream = _handed_on(march(scenario, grid, scenario.params, solver), keep, conn)
    if coarse is None:
        return diagnostics.level_summary(grid, scenario.params, stream)
    pair = _Cauchy(scenario.grid_for(coarse[0]), grid, coarse[1], ready)
    return {**diagnostics.level_summary(grid, scenario.params, stream, pair), **pair.result()}


def _finest_level_worker(
    conn, scenario: ScenarioConfig, solver: SolverConfig, n: int, n_coarse: int
) -> dict:
    """Worker body: level n's row, with its Cauchy gaps to level n_coarse,
    whose states the parent sends on conn as it solves them."""
    return _level(scenario, solver, n, (n_coarse, recv_levels(conn, n_coarse)), ready=conn.poll)


def run_refinement(
    scenario: ScenarioConfig, solver: SolverConfig | None = None
) -> RefinementReport:
    """Run the scenario across its level ladder and assemble the report.

    The finest level, whose cost alone exceeds that of all coarser ones
    (about N^2 at a fixed dt/dx), is solved in a forked worker process while
    this process solves the coarser levels one after another, coarsest
    first.  Each level streams from march into one walk that makes its row:
    its summary and its Cauchy gaps to the level before, whose states are the
    only ones kept.  Each next-to-finest state is sent to the worker as
    march makes it, as its doubles (``send_levels``' wire format), and the
    worker sends back only its level's row.
    A failing level aborts the study as if the levels ran in order:
    completed levels are reported, a flag records the failure, and
    ``failed`` is set; a failure below the finest level discards the worker.
    A worker that ended early is reported by ``worker_result``, with what
    ended it, once this process has solved its own levels.  The worker
    computes exactly what this process would, so the study's numbers do
    not depend on where a level ran.  Where fork does not exist, every
    level runs in this process.
    """
    solver = solver or SolverConfig()
    levels = scenario.levels
    diagnostics.check_study_levels(len(levels))

    finest, next_finest = levels[-1], levels[-2]
    worker = fork_worker(_finest_level_worker, scenario, solver, finest, next_finest)
    # The last level this process solves has no finer level here: it is not kept.
    last = finest if worker is None else next_finest
    rows: list[dict] = []
    flags: list[str] = []
    failed = False
    coarse = None  # (N, kept states) of the last level solved here, for the next pair
    try:
        for n in levels:
            try:
                if n > last:
                    row = worker_result(worker, f"level {n} worker")
                else:
                    kept = [] if n < last else None
                    conn = worker[1] if worker is not None and n == last else None
                    row = _level(scenario, solver, n, coarse, kept, conn)
                    coarse = (n, kept)
            except StepFailure as exc:
                flags.append(f"level {n} solve failed: {exc}")
                failed = True
                break
            rows.append(row)
    finally:
        if worker is not None:
            # After a failure below the finest level, the worker's level is dropped.
            stop_worker(worker)

    for row in rows:
        if row["fallback_steps"]:
            flags.append(f"level {row['N']}: {row['fallback_steps']} continuation fallback steps")

    orders, boundedness = diagnostics.study_rates(rows, scenario.params.gamma)

    if not scenario.params.in_theory_range:
        flags.append(scenario.params.gamma_note)

    return RefinementReport(
        scenario=scenario.name,
        levels=tuple(row["N"] for row in rows),
        per_level=tuple(rows),
        orders=orders,
        boundedness=boundedness,
        flags=tuple(flags),
        failed=failed,
    )
