"""visco1d benchmark runner.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the ``visco1d`` CLI one job at a time, each in a fresh interpreter
(``perfbench/job.py`` with ``src`` on PYTHONPATH), for S seconds, checks every
job's outputs, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
medians over the run's jobs.  With ``--trace 1`` jobs alternate untraced and
traced, a probe process counts solver iterations and times the assembly
kernels, and the metrics are the per-layer ones.  An op is one job; it fails
if it exits non-zero or an output check fails.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
JOB_TIMEOUT_S = 150.0

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402


# ----------------------------------------------------------------------
# Output checks: each returns an error message, or None when the job is right
# ----------------------------------------------------------------------

_LEVEL_LINE = re.compile(
    r"# level (\d+): energy_balance (\S+) tol (\S+) \| mass_drift (\S+) \| flux_gap (\S+)")


def check_refine(jobdir: Path, info: dict) -> str | None:
    """Every level completed and within the budgets report.csv prints.

    The printed energy ``tol`` is 100 * newton_tol * steps, which is also the
    flux-identity budget; the mass budget is 1e-12 * steps.  Decay orders and
    Cauchy differences are information, not gates.
    """
    lines = (jobdir / "out" / "report.csv").read_text(encoding="utf-8").splitlines()
    table = [ln for ln in lines if ln and not ln.startswith("#")]
    header = table[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in table[1:]]
    expected = [int(n) for n in WORKLOADS["refine-smooth"].levels.split(",")]
    if [int(r["level"]) for r in rows] != expected:
        return f"levels {[r['level'] for r in rows]} != {expected}"
    if any(ln.startswith("# flag:") and "failed" in ln for ln in lines):
        return "a level failed"
    tols = {int(m.group(1)): float(m.group(3))
            for m in map(_LEVEL_LINE.match, lines) if m}
    for r in rows:
        n, steps = int(r["level"]), int(r["steps"])
        tol = tols[n]
        for key, value, bound in (
            ("energy_balance_max", float(r["energy_balance_max"]), tol),
            ("flux_identity_gap", float(r["flux_identity_gap"]), tol),
            ("mass_drift_rel", float(r["mass_drift_rel"]), 1e-12 * steps),
        ):
            if not value <= bound:
                return f"level {n}: {key} {value:.3e} exceeds {bound:.3e}"
    for ln in lines:
        if ln.startswith("# order "):
            key, _, rest = ln[len("# order "):].partition(": ")
            info[f"order_{key}"] = rest
    info["cauchy_rho"] = [r["cauchy_rho"] for r in rows[1:]]
    return None


def check_verify(jobdir: Path, info: dict) -> str | None:
    out = (jobdir / "stdout").read_text(encoding="utf-8")
    if "15/15 identity checks passed" not in out:
        return "verify did not report 15/15 identity checks passed"
    return None


def check_run(jobdir: Path, info: dict) -> str | None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from visco1d.cli import read_state_csv

    n, steps = 1024, 256  # dt = dx = 1/1024 up to T = 0.25
    rho, u = read_state_csv(str(jobdir / "out" / "state.csv"))
    if rho.shape != (steps + 1, n) or u.shape != (steps + 1, n + 1):
        return f"state.csv shapes {rho.shape}, {u.shape}; want {(steps + 1, n + 1)} rows"
    if not (rho > 0).all():
        return "state.csv has a non-positive density"
    mass = rho.sum(axis=1) / n
    drift = float(abs(mass - mass[0]).max() / mass[0])
    if not drift <= 1e-12 * steps:
        return f"mass drift {drift:.3e} exceeds {1e-12 * steps:.3e}"
    return None


@dataclass(frozen=True)
class Workload:
    scenario: str
    levels: str
    cli_args: tuple[str, ...]
    check: Callable[[Path, dict], str | None]
    outputs: tuple[str, ...]  # files hashed with stdout for the identity check


# BENCHMARK.json says why each workload was chosen.  Seed 0 runs the built-in
# scenario exactly; other seeds pass custom rho0/u0 keys (see config_text).
WORKLOADS = {
    "refine-smooth": Workload(
        scenario="smooth-bump",
        levels="64,128,256,512,1024",
        cli_args=("refine", "--config", "job.cfg", "--out", "out"),
        check=check_refine,
        outputs=("out/report.csv",),
    ),
    "verify-quiescent": Workload(
        scenario="constant",
        levels="1024",
        cli_args=("verify", "--config", "job.cfg"),
        check=check_verify,
        outputs=(),
    ),
    "run-riemann-csv": Workload(
        scenario="riemann-like",
        levels="1024",
        cli_args=("run", "--config", "job.cfg", "--out", "out"),
        check=check_run,
        outputs=("out/state.csv",),
    ),
}


def draw_inputs(seed: int) -> dict[str, float]:
    """Initial-data amplitudes for a seed; seed 0 gives the built-in values."""
    builtin = {"u_amp": 0.1, "bump_amp": 0.5, "riemann_left": 2.0, "constant": 1.0}
    if seed == 0:
        return builtin
    rng = random.Random(seed)
    return {key: value * rng.uniform(0.9, 1.1) for key, value in builtin.items()}


def config_text(name: str, seed: int) -> str:
    wl = WORKLOADS[name]
    lines = ["[scenario]", f"name = {wl.scenario}", f"levels = {wl.levels}"]
    if seed != 0:
        x = draw_inputs(seed)
        if wl.scenario == "smooth-bump":
            lines += [f"rho0 = bump:{x['bump_amp']!r}", f"u0 = sin2pi:{x['u_amp']!r}"]
        elif wl.scenario == "riemann-like":
            lines += [f"rho0 = piecewise:0.5|{x['riemann_left']!r},1"]
        else:
            lines += [f"rho0 = constant:{x['constant']!r}"]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    traced: bool
    record: dict
    error: str | None = None


def environment() -> dict[str, str | int | None]:
    """What the numbers depend on besides the code, as found."""
    env: dict[str, str | int | None] = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = None
    env["nproc"] = os.cpu_count()
    for var in ("VISCO1D_THREADS", "OPENBLAS_NUM_THREADS"):
        env[var] = os.environ.get(var)
    return env


def child_env() -> dict[str, str]:
    """The caller's environment with ``src`` first on PYTHONPATH.

    VISCO1D_THREADS is unset, so the level pool of ``refine`` runs as users
    get it by default (one thread per core, up to the number of levels).
    """
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env.pop("VISCO1D_THREADS", None)
    return env


def spawn(argv: list[str], cwd: Path, env: dict[str, str]) -> tuple[float, float, float, int]:
    """Run one child to completion: (wall s, user+sys s, peak RSS MB, exit code)."""
    with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_job(name: str, config: str, workdir: Path, traced: bool) -> tuple[Job, str]:
    """One job in a clean directory; returns it and the digest of its outputs."""
    wl = WORKLOADS[name]
    jobdir = fresh_dir(workdir / "job")
    (jobdir / "job.cfg").write_text(config, encoding="utf-8")
    argv = [sys.executable, str(HERE / "job.py"), "result.json", "job.cfg"]
    argv += (["--trace"] if traced else []) + ["--", *wl.cli_args]
    wall, cpu, rss, code = spawn(argv, jobdir, child_env())
    try:
        record = json.loads((jobdir / "result.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {}
    job = Job(wall, cpu, rss, traced, record)
    digest = hashlib.sha256((jobdir / "stdout").read_bytes())
    if code != 0 or "setup_s" not in record:
        err = (jobdir / "stderr").read_text(encoding="utf-8", errors="replace")
        job.error = f"exit code {code}: {err.strip()[-500:]}"
        return job, ""
    try:
        for rel in wl.outputs:
            digest.update((jobdir / rel).read_bytes())
    except OSError as exc:
        job.error = f"missing output: {exc}"
        return job, ""
    return job, digest.hexdigest()


def run_probe(name: str, config: str, workdir: Path) -> dict | None:
    probedir = fresh_dir(workdir / "probe")
    (probedir / "job.cfg").write_text(config, encoding="utf-8")
    argv = [sys.executable, str(HERE / "probe.py"), "result.json", "job.cfg"]
    *_, code = spawn(argv, probedir, child_env())
    if code != 0:
        return None
    return json.loads((probedir / "result.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def percentile(sorted_values: list[float], p: float) -> float:
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, float]:
    """(highest percentile with at least 10 samples beyond it, its value)."""
    ordered = sorted(values)
    best = 50.0
    for p in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9):
        if len(ordered) * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best, percentile(ordered, best)


def end_to_end(jobs: list[Job]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(j.wall_s for j in jobs),
        "cpu_s": statistics.median(j.cpu_s for j in jobs),
        "setup_s": statistics.median(j.record["setup_s"] for j in jobs),
        "peak_rss_mb": statistics.median(j.peak_rss_mb for j in jobs),
    }


def per_layer(plain: list[Job], traced: list[Job], probe: dict) -> dict[str, float]:
    per_job = [tracing.layer_metrics(j.record, j.wall_s) for j in traced]
    out = {key: statistics.median(m[key] for m in per_job) for key in per_job[0]}
    durations = [d for j in traced for d in tracing.advance_durations(j.record)]
    out["stepper.advance.samples"] = float(len(durations))
    if durations:
        pct, value = tail(durations)
        out["stepper.advance.p50_ms"] = 1e3 * statistics.median(durations)
        out["stepper.advance.tail_pct"] = pct
        out["stepper.advance.tail_ms"] = 1e3 * value
    else:
        out["stepper.advance.p50_ms"] = out["stepper.advance.tail_ms"] = 0.0
        out["stepper.advance.tail_pct"] = 0.0
    out["stepper.iters_to_tol"] = float(probe["iters_to_tol"])
    iters = out["stepper.newton_iters"]
    out["stepper.polish_share"] = 1.0 - probe["iters_to_tol"] / iters if iters else 0.0
    out["stepper.assemble_residual.us"] = probe["assemble_residual_us"]
    out["stepper.assemble_jacobian.us"] = probe["assemble_jacobian_us"]
    wall_plain = statistics.median(j.wall_s for j in plain)
    wall_traced = statistics.median(j.wall_s for j in traced)
    out["trace.overhead_share"] = (wall_traced - wall_plain) / wall_plain
    return out


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "visco1d" / "cli.py").is_file():
        print(f"error: no visco1d sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    name = args.workload
    config = config_text(name, args.seed)
    workdir = fresh_dir(ROOT / ".bench_work" / f"{name}-{os.getpid()}")
    try:
        # Fill the file cache and byte-compile before anything is timed.
        warm = fresh_dir(workdir / "warm")
        spawn([sys.executable, "-c", "import visco1d.cli"], warm, child_env())

        jobs: list[Job] = []
        failures: list[str] = []
        info: dict = {}
        reference = None
        start = time.perf_counter()
        laps: list[float] = []
        while True:
            lap = time.perf_counter()
            # With tracing, jobs alternate untraced and traced.
            job, digest = run_job(name, config, workdir, bool(args.trace) and len(jobs) % 2 == 1)
            if job.error is None:
                if reference is None:
                    try:
                        job.error = WORKLOADS[name].check(workdir / "job", info)
                    except (OSError, ValueError, KeyError, IndexError) as exc:
                        job.error = f"unreadable output: {exc!r}"
                    reference = digest if job.error is None else None
                elif digest != reference:
                    job.error = "outputs differ from the run's first job"
            if job.error is not None:
                failures.append(job.error)
            jobs.append(job)
            now = time.perf_counter()
            laps.append(now - lap)
            # Start no job that would be expected to end past the deadline.
            enough = not args.trace or len(jobs) >= 2
            if enough and now - start + statistics.median(laps) > args.seconds:
                break

        attempted = len(jobs)
        good_plain = [j for j in jobs if j.error is None and not j.traced]
        good_traced = [j for j in jobs if j.error is None and j.traced]
        probe = run_probe(name, config, workdir) if args.trace else {}
        if args.trace:
            attempted += 1
            if probe is None:
                failures.append("probe failed")
        if not good_plain or (args.trace and (not good_traced or probe is None)):
            metrics = {}
        elif args.trace:
            metrics = per_layer(good_plain, good_traced, probe)
        else:
            metrics = end_to_end(good_plain)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    for i, j in enumerate(jobs):
        print(f"job {i}{' traced' if j.traced else ''}: wall {j.wall_s:.3f} s, "
              f"cpu {j.cpu_s:.3f} s, rss {j.peak_rss_mb:.1f} MB, "
              f"setup {j.record.get('setup_s', math.nan):.3f} s", file=sys.stderr)
    for line in failures:
        print(f"FAILED: {line}", file=sys.stderr)
    print(f"env: {json.dumps(environment())}", file=sys.stderr)
    if info:
        print(f"info: {json.dumps(info)}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = not failures and not missing
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    if missing and not failures:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
