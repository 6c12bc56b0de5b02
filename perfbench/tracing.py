"""Outside-in layer tracing for one visco1d job, and its reduction to metrics.

The tracer replaces module attributes of the visco1d package with timing
wrappers, one per call site a caller resolves (``harness.run`` and ``cli.run``
are both the stepper's ``run``, seen from two callers).  Every wrapped call
becomes a span: name, start, end, parent span and thread id.  Spans stay in
memory and are written out once, when the job ends; ``restore`` puts the
original attributes back.  Nothing here changes what the program computes.

``layer_metrics`` turns the spans of one traced job into the per-layer
numbers of the benchmark.  Self time is taken per thread: a span's children
are the spans opened on the same thread while it was open, so they nest.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

LAYERS = ("grid", "operators", "stepper", "diagnostics", "harness", "cli")

DIAGNOSTICS = (
    "energy_ledger",
    "renorm_residual",
    "positivity_report",
    "flux_ledger",
    "weak_residual_continuity",
    "weak_residual_momentum",
    "norm_suite",
    "error_rates",
    # Not reported by name, but wrapped so that their time is charged to
    # diagnostics instead of to whichever caller happens to use them.
    "mass_history",
    "effective_newton_tol",
    "rho_power_integral",
)


class Tracer:
    """Spans and counters for one job; install with ``install`` below."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.newton_solves = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._seen: set[tuple] = set()
        self._keep: list[tuple] = []  # keeps ids in repeat keys from being reused

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _traced(self, name: str, fn, extra=None):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            span = {"id": sid, "name": name, "t0": t0, "t1": t1,
                    "parent": parent, "tid": threading.get_ident()}
            if extra is not None:
                span.update(extra(args, kwargs, result))
            self.spans.append(span)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, extra=None) -> None:
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self._traced(name, orig, extra))

    def wrap_property(self, cls, attr: str, name: str, extra=None) -> None:
        orig = cls.__dict__[attr]
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, property(self._traced(name, orig.fget, extra), doc=orig.__doc__))

    def count_solves(self, owner) -> None:
        """Count Newton's banded solves; the Picard fallback's are tridiagonal."""
        orig = owner.solve_banded

        def solve_banded(l_and_u, *args, **kwargs):
            if tuple(l_and_u) != (1, 1):
                with self._lock:
                    self.newton_solves += 1
            return orig(l_and_u, *args, **kwargs)

        self._patches.append((owner, "solve_banded", orig))
        owner.solve_banded = solve_banded

    def repeat_flag(self, name: str):
        """Extra for diagnostics: flag a call already made with the same arguments."""

        def extra(args, kwargs, result):
            key = (name, tuple(id(a) for a in args),
                   tuple(sorted((k, id(v)) for k, v in kwargs.items())))
            with self._lock:
                repeat = key in self._seen
                self._seen.add(key)
                self._keep.append((args, kwargs))
            return {"repeat": repeat}

        return extra

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def dump(self) -> dict:
        return {"spans": self.spans, "newton_solves": self.newton_solves}


def _advance_extra(args, kwargs, result):
    prev = args[0]
    meta = result[1]
    return {"N": int(prev.N), "iters": int(meta.iterations),
            "backtracks": int(meta.backtracks), "fallback": bool(meta.fallback_used),
            "sweeps": int(meta.fallback_iterations)}


def _nbytes_extra(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _file_size_extra(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def install(tracer: Tracer):
    """Wrap every traced call site; returns the traced ``cli_main``."""
    from visco1d import cli, diagnostics, grid, harness, stepper

    tracer.wrap(harness, "run", "stepper.run")
    tracer.wrap(cli, "run", "stepper.run")
    tracer.wrap(stepper, "advance", "stepper.advance", _advance_extra)
    tracer.wrap(stepper, "init_state", "grid.init_state")
    tracer.count_solves(stepper)
    for fn in DIAGNOSTICS:
        name = f"diagnostics.{fn}"
        tracer.wrap(diagnostics, fn, name, tracer.repeat_flag(name))
    tracer.wrap_property(grid.Trajectory, "rho_matrix", "grid.rho_matrix", _nbytes_extra)
    tracer.wrap_property(grid.Trajectory, "u_matrix", "grid.u_matrix", _nbytes_extra)
    tracer.wrap(cli, "run_refinement", "harness.run_refinement")
    tracer.wrap(harness, "cauchy_differences", "harness.cauchy_differences")
    tracer.wrap(cli, "parse_config", "cli.parse_config")
    tracer.wrap(cli, "write_state_csv", "cli.write_state_csv", _file_size_extra)
    tracer.wrap(cli, "write_report", "cli.write_report")
    for module in (diagnostics, cli):
        tracer.wrap(module, "neumann_inv_grad", "operators.neumann_inv_grad")
        tracer.wrap(module, "dirichlet_inv_grad", "operators.dirichlet_inv_grad")
    tracer.wrap(cli, "cli_main", "cli.cli_main")
    return cli.cli_main


# ----------------------------------------------------------------------
# Reduction of one traced job to per-layer numbers
# ----------------------------------------------------------------------


def _self_times(spans: list[dict]) -> dict[int, float]:
    own = {s["id"]: s["t1"] - s["t0"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["t1"] - s["t0"]
    return own


def layer_metrics(trace: dict, job_wall_s: float) -> dict[str, float]:
    """Per-layer numbers for one traced job whose process took ``job_wall_s``.

    Layer shares divide each layer's self time, summed over threads, by the
    busy time of the job: all layers' self time plus the main-thread time
    outside every span (interpreter start, imports, exit).  Main-thread time
    spent waiting on the level pool is busy time of no layer; it is reported
    as ``harness.pool_wait_s``.
    """
    spans = trace["spans"]
    own = _self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name: str) -> float:
        return sum(s["t1"] - s["t0"] for s in by_name.get(name, ()))

    def self_total(name: str) -> float:
        return sum(own[s["id"]] for s in by_name.get(name, ()))

    out: dict[str, float] = {}
    roots = by_name.get("cli.cli_main", [])
    main_tid = roots[0]["tid"] if roots else None
    unattributed = max(job_wall_s - total("cli.cli_main"), 0.0)

    # Solve phase of a refinement: with the level pool, levels run on pool
    # threads while the main thread waits inside run_refinement.
    runs = by_name.get("stepper.run", [])
    pool_wait = 0.0
    out["harness.pool_speedup"] = 0.0
    if runs and by_name.get("harness.run_refinement"):
        phase = max(s["t1"] for s in runs) - min(s["t0"] for s in runs)
        out["harness.pool_speedup"] = sum(s["t1"] - s["t0"] for s in runs) / phase
        if any(s["tid"] != main_tid for s in runs):
            pool_wait = phase
    out["harness.pool_wait_s"] = pool_wait

    busy = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        busy[s["name"].split(".", 1)[0]] += own[s["id"]]
    busy["harness"] -= pool_wait
    busy_total = sum(busy.values()) + unattributed
    for layer in LAYERS:
        out[f"{layer}.share"] = busy[layer] / busy_total
    out["trace.unattributed_share"] = unattributed / job_wall_s
    out["trace.spans"] = float(len(spans))

    adv = by_name.get("stepper.advance", [])
    steps = len(adv)
    iters = sum(s["iters"] for s in adv)
    out["stepper.run.s"] = total("stepper.run")
    out["stepper.advance.calls"] = float(steps)
    out["stepper.advance.s"] = total("stepper.advance")
    for n in (64, 128, 256, 512, 1024):
        times = [s["t1"] - s["t0"] for s in adv if s["N"] == n]
        out[f"stepper.advance.mean_ms.N{n}"] = 1e3 * sum(times) / len(times) if times else 0.0
    out["stepper.newton_iters"] = float(iters)
    out["stepper.iters_per_step"] = iters / steps if steps else 0.0
    out["stepper.linear_solves"] = float(trace["newton_solves"])
    out["stepper.backtracks"] = float(sum(s["backtracks"] for s in adv))
    out["stepper.fallback_steps"] = float(sum(s["fallback"] for s in adv))
    out["stepper.fallback_sweeps"] = float(sum(s["sweeps"] for s in adv))

    diag_calls = 0
    repeats = 0
    for fn in DIAGNOSTICS:
        calls = by_name.get(f"diagnostics.{fn}", [])
        diag_calls += len(calls)
        repeats += sum(s["repeat"] for s in calls)
        out[f"diagnostics.{fn}.calls"] = float(len(calls))
        out[f"diagnostics.{fn}.s"] = total(f"diagnostics.{fn}")
    out["diagnostics.error_rates.self_s"] = self_total("diagnostics.error_rates")
    out["diagnostics.calls"] = float(diag_calls)
    out["diagnostics.repeat_calls"] = float(repeats)

    out["grid.init_state.s"] = total("grid.init_state")
    stacked = 0
    for name in ("grid.rho_matrix", "grid.u_matrix"):
        out[f"{name}.calls"] = float(len(by_name.get(name, ())))
        stacked += sum(s["bytes"] for s in by_name.get(name, ()))
    out["grid.stack_mb"] = stacked / 1e6

    out["harness.run_refinement.self_s"] = self_total("harness.run_refinement") - pool_wait
    out["harness.cauchy_differences.s"] = total("harness.cauchy_differences")

    out["cli.parse_config.s"] = total("cli.parse_config")
    out["cli.write_state_csv.s"] = total("cli.write_state_csv")
    out["cli.write_state_csv.share"] = out["cli.write_state_csv.s"] / busy_total
    out["cli.write_state_csv.mb"] = sum(
        s["bytes"] for s in by_name.get("cli.write_state_csv", ())) / 1e6
    out["cli.write_state_csv.mb_per_s"] = (
        out["cli.write_state_csv.mb"] / out["cli.write_state_csv.s"]
        if out["cli.write_state_csv.s"] else 0.0)
    out["cli.write_report.s"] = total("cli.write_report")
    out["cli.cli_main.self_s"] = self_total("cli.cli_main")

    for fn in ("neumann_inv_grad", "dirichlet_inv_grad"):
        out[f"operators.{fn}.calls"] = float(len(by_name.get(f"operators.{fn}", ())))
        out[f"operators.{fn}.s"] = total(f"operators.{fn}")
    return out


def advance_durations(trace: dict) -> list[float]:
    return [s["t1"] - s["t0"] for s in trace["spans"] if s["name"] == "stepper.advance"]
