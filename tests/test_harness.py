"""Scenario configs, grid transfer operators, and the refinement driver."""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from visco1d import diagnostics, grid, harness, stepper
from visco1d.harness import resolve_density_profile, resolve_velocity_profile

from conftest import marched, reset_worker, scenario_named, solve_level, with_levels


# ======================================================================
# profiles and scenario validation
# ======================================================================


def test_density_profile_grammar():
    bump = resolve_density_profile("bump:0.5", 1.0)
    x = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(bump(x), [1.0, 1.5, 1.0], atol=1e-15)
    flat = resolve_density_profile("constant:2.5", 1.0)
    np.testing.assert_array_equal(flat(x), [2.5, 2.5, 2.5])
    steps = resolve_density_profile("piecewise:0.25,0.5|3,2,1", 2.0)
    assert steps.breakpoints == (0.5, 1.0)
    assert steps.values == (3.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        resolve_density_profile("vortex", 1.0)


def test_velocity_profile_grammar():
    z = resolve_velocity_profile("zero", 1.0)
    np.testing.assert_array_equal(z(np.array([0.1, 0.9])), [0.0, 0.0])
    s = resolve_velocity_profile("sin2pi:0.3", 2.0)
    assert s(np.array([0.5]))[0] == pytest.approx(0.3)
    with pytest.raises(ValueError):
        resolve_velocity_profile("tanh", 1.0)


def test_scenario_requires_increasing_nested_levels():
    with pytest.raises(ValueError):
        harness.ScenarioConfig(name="x", levels=(64, 64, 128))
    with pytest.raises(ValueError):
        harness.ScenarioConfig(name="x", levels=(64, 96))  # 96 not a multiple of 64
    with pytest.raises(ValueError):
        harness.ScenarioConfig(name="x", levels=())
    # a single level is a legal configuration (refinement studies need more,
    # but plain runs do not)
    assert harness.ScenarioConfig(name="x", levels=(8,)).levels == (8,)


def test_scenario_rejects_nonpositive_density():
    with pytest.raises(ValueError):
        harness.ScenarioConfig(name="bad", rho0="constant:-1")


@pytest.mark.parametrize(
    "profiles, message",
    [
        (dict(rho0="constant:nan"), "rho0 profile 'constant:nan' is not finite"),
        (dict(rho0="bump:nan"), "rho0 profile 'bump:nan' is not finite"),
        (dict(rho0="piecewise:0.5|nan,1"), "rho0 profile 'piecewise:0.5|nan,1' is not finite"),
        (dict(rho0="piecewise:0.5|0,1"), "initial density must be strictly positive"),
        (dict(u0="sin2pi:inf"), "u0 profile 'sin2pi:inf' is not finite"),
        (dict(u0="sin2pi:x"), "bad u0 profile 'sin2pi:x'"),
        (dict(rho0="constant:1e-12"), "initial density must be strictly positive, above the floor 1e-12"),
        # A dip that averages out on the N=16 cells falls below the floor on
        # the N=8192 cells, which init_state averages too.
        (dict(rho0="piecewise:0.5001,0.5006|1,1e-13,1", levels=(16, 8192)),
         "averages 1e-13 on a cell at N=8192: initial density must be strictly positive"),
        (dict(rho0="piecewise:1|1,2"), "breakpoint fractions must lie inside \\(0, 1\\), got 1$"),
        (dict(rho0="piecewise:0.5,0|1,2,3"), "breakpoint fractions must lie inside \\(0, 1\\), got 0.5,0$"),
    ],
)
def test_scenario_rejects_non_finite_profiles(profiles, message):
    with pytest.raises(ValueError, match=message.replace("|", r"\|")):
        harness.ScenarioConfig(name="bad", **profiles)


def test_scenario_grid_couples_dt_to_dx():
    """Every level runs at dt = dt_over_dx * dx; the default ratio is 1, exactly."""
    sc = harness.ScenarioConfig(name="x", levels=(8, 16, 32))
    assert all(sc.grid_for(n).dt == sc.grid_for(n).dx for n in sc.levels)
    half = harness.ScenarioConfig(name="y", levels=(8, 16, 32), dt_over_dx=0.5)
    assert [half.grid_for(n).dt for n in half.levels] == [1 / 16, 1 / 32, 1 / 64]


def test_builtin_scenarios_roster():
    names = [s.name for s in harness.builtin_scenarios()]
    for expected in ("constant", "smooth-bump", "riemann-like",
                     "gamma-1.6", "gamma-5over3", "gamma-1.9"):
        assert expected in names
    const = scenario_named("constant")
    probe = np.linspace(0.0, const.L, 5)
    np.testing.assert_array_equal(const.rho0_fn(probe), np.ones(5))
    gammas = {scenario_named(f).params.gamma for f in ("gamma-1.6", "gamma-5over3", "gamma-1.9")}
    assert gammas == {1.6, 5.0 / 3.0, 1.9}


def test_riemann_like_cell_averages():
    sc = scenario_named("riemann-like")
    g = grid.GridSpec(L=1.0, N=4, dt=0.25, T=0.0)
    st = grid.init_state(g, sc.rho0_fn, sc.u0_fn)
    np.testing.assert_allclose(st.rho, [2.0, 2.0, 1.0, 1.0], atol=1e-15)


# ======================================================================
# grid transfer
# ======================================================================


def test_project_cells_box_average():
    fine = np.array([1.0, 3.0, 5.0, 7.0])
    np.testing.assert_allclose(harness.project_cells(fine, 2), [2.0, 6.0])
    np.testing.assert_allclose(harness.project_cells(fine, 4), [4.0])


def test_project_cells_conserves_mass():
    rng = np.random.default_rng(0)
    fine = rng.uniform(0.5, 2.0, size=24)
    for ratio in (2, 3, 4):
        coarse = harness.project_cells(fine, ratio)
        assert coarse.sum() * ratio == pytest.approx(fine.sum(), rel=1e-14)


def test_restrict_faces_keeps_shared_nodes():
    fine = np.linspace(0.0, 1.0, 9)  # 8 fine cells
    np.testing.assert_array_equal(harness.restrict_faces(fine, 2), fine[::2])


def test_cauchy_differences_zero_for_identical_resolutions():
    sc = scenario_named("constant")
    t1 = stepper.run(sc, sc.grid_for(8), sc.params)
    t2 = stepper.run(sc, sc.grid_for(16), sc.params)
    l1, l2 = harness.cauchy_differences(t1, t2)
    assert l1 == 0.0
    assert l2 == 0.0


def test_cauchy_differences_detect_known_gap():
    """Hand-check the L1 part on synthetic single-step constant fields."""
    g8 = grid.GridSpec(L=1.0, N=8, dt=0.125, T=0.125)
    g16 = grid.GridSpec(L=1.0, N=16, dt=0.0625, T=0.125)
    mk = lambda g, val, steps: grid.Trajectory(
        grid=g, params=grid.PhysParams(),
        states=tuple(
            grid.FluidState(rho=np.full(g.N, val), u=np.zeros(g.N + 1), k=k)
            for k in range(steps + 1)
        ),
    )
    coarse = mk(g8, 1.0, 1)
    fine = mk(g16, 1.25, 2)
    l1, l2 = harness.cauchy_differences(coarse, fine)
    # |1.25 - 1| over unit length, integrated over one coarse window of 0.125
    assert l1 == pytest.approx(0.25 * 0.125, rel=1e-13)
    assert l2 == 0.0


def test_cauchy_pair_reads_no_coarse_state_before_it_is_ready():
    """The finer level's walk reads a coarse state only once ``ready()``
    says it can, as the worker reads the states the parent sends; until
    then the fine steps wait, and the pair keeps every bit."""
    sc = scenario_named("smooth-bump")
    coarse, fine = solve_level(sc, 16), solve_level(sc, 32)  # 4 and 8 steps
    answers = iter([False, False, True, True, False])
    gate = {"open": False}

    def ready() -> bool:
        gate["open"] = next(answers, True)
        return gate["open"]

    def states():
        for state in coarse.states:
            assert gate["open"], "a coarse state was read before it was ready"
            yield state.rho, state.u

    pair = harness._Cauchy(coarse.grid, fine.grid, states(), ready)
    waiting = []
    push = pair.push

    def recorded(cur) -> None:
        push(cur)
        waiting.append(len(pair._waiting))

    pair.push = recorded
    diagnostics.walk_blocks(fine.grid, fine.params, fine.states, pair)
    # Blocks of steps 1-3, 4-7 and 8; the third push reads coarse states 0
    # and 1, compares steps 1 and 2, and finds state 2 not ready.
    assert waiting == [3, 7, 6]
    gate["open"] = True  # result() reads the rest, as the worker does at its end
    assert tuple(pair.result().values()) == harness.cauchy_differences(coarse, fine)


@pytest.mark.parametrize("coarse_dt", [0.03, 0.01], ids=["1.5x", "0.5x"])
def test_cauchy_differences_reject_windows_that_do_not_nest(coarse_dt):
    """A fine window must lie inside one coarse window: the coarse time step
    is a whole multiple of the fine one, or no pair is formed."""
    sc = scenario_named("smooth-bump")
    coarse = stepper.run(sc, grid.GridSpec(L=1.0, N=8, dt=coarse_dt, T=0.06), sc.params)
    fine = stepper.run(sc, grid.GridSpec(L=1.0, N=16, dt=0.02, T=0.06), sc.params)
    with pytest.raises(ValueError, match="not a whole multiple"):
        harness.cauchy_differences(coarse, fine)


# ======================================================================
# refinement driver
# ======================================================================


def test_run_refinement_needs_three_levels():
    sc = with_levels(scenario_named("constant"), (8, 16, 32))
    bad = with_levels(sc, (8, 16))
    with pytest.raises(ValueError):
        harness.run_refinement(bad)


def test_run_refinement_constant_scenario_exact():
    sc = with_levels(scenario_named("constant"), (8, 16, 32))
    rep = harness.run_refinement(sc)
    assert not rep.failed
    assert [row["cauchy_rho"] for row in rep.per_level[1:]] == [0.0, 0.0]
    assert [row["cauchy_u"] for row in rep.per_level[1:]] == [0.0, 0.0]
    for key in ("E1", "E2", "P1", "P2"):
        assert rep.orders[key]["order"] == "exact"
        assert rep.orders[key]["floor"] is not None
    assert rep.orders["cauchy_rho"]["order"] == "exact"


def test_run_refinement_reports_floors_next_to_orders(smooth_ladder):
    sc = with_levels(scenario_named("smooth-bump"), (64, 128, 256))
    rep = harness.run_refinement(sc)
    g = sc.params.gamma
    assert rep.orders["E1"]["floor"] == pytest.approx((2 * g - 3) / (2 * g))
    assert rep.orders["E2"]["floor"] == pytest.approx((3 * g - 4) / (2 * g))
    assert rep.orders["P1"]["floor"] == pytest.approx(0.5)
    assert rep.orders["P2"]["floor"] == pytest.approx(0.25)


def test_run_refinement_reports_every_order_off_dt_eq_dx():
    """A ladder at dt = 2 dx has one ratio, so it reports all six orders, unflagged."""
    sc = harness.ScenarioConfig(
        name="kappa-2", rho0="bump", u0="sin2pi", T=0.25,
        levels=(8, 16, 32), params=grid.PhysParams(mu=0.05), dt_over_dx=2.0,
    )
    assert [sc.grid_for(n).dt for n in sc.levels] == [2 / n for n in sc.levels]
    rep = harness.run_refinement(sc)
    assert not rep.failed
    assert rep.flags == ()
    assert set(rep.orders) == {"E1", "E2", "P1", "P2", "cauchy_rho", "cauchy_u"}
    assert all(isinstance(rep.orders[key]["order"], float) for key in rep.orders)


def test_run_refinement_flags_decoupled_dt():
    """A dt fixed across levels is refused; the same ladder on one ratio reports its orders."""
    kw = dict(name="decoupled", rho0="bump", u0="zero", T=0.05,
              levels=(8, 16, 32), params=grid.PhysParams(mu=0.05))
    with pytest.raises(TypeError):
        harness.ScenarioConfig(dt=0.01, **kw)
    sc = harness.ScenarioConfig(dt_over_dx=0.08, **kw)  # dt = 0.01 at N = 8
    fixed = [stepper.run(sc, grid.GridSpec(L=1.0, N=n, dt=0.01, T=0.05), sc.params)
             for n in sc.levels]
    with pytest.raises(ValueError, match="one dt/dx ratio at every level"):
        diagnostics.error_rates(fixed)
    rep = harness.run_refinement(sc)
    assert rep.flags == ()
    assert set(rep.orders) == {"E1", "E2", "P1", "P2", "cauchy_rho", "cauchy_u"}


def test_run_refinement_decoupled_without_dt_stays_on_dt_eq_dx():
    """Without dt_over_dx every level runs at dt = dx, and the study keeps its six orders."""
    sc = harness.ScenarioConfig(
        name="free", rho0="bump", u0="sin2pi", T=0.125,
        levels=(8, 16, 32), params=grid.PhysParams(mu=0.05),
    )
    assert all(sc.grid_for(n).dt == sc.grid_for(n).dx for n in sc.levels)
    rep = harness.run_refinement(sc)
    assert rep.flags == ()
    assert set(rep.orders) == {"E1", "E2", "P1", "P2", "cauchy_rho", "cauchy_u"}


def test_run_refinement_flags_gamma_outside_window():
    sc = harness.ScenarioConfig(
        name="gamma-off", rho0="bump", u0="sin2pi", T=0.125,
        levels=(8, 16, 32), params=grid.PhysParams(gamma=2.5, mu=0.05),
    )
    rep = harness.run_refinement(sc)
    assert any("gamma" in f for f in rep.flags)


def test_run_refinement_per_level_summary_fields(smooth_ladder):
    sc = with_levels(scenario_named("smooth-bump"), (64, 128, 256))
    rep = harness.run_refinement(sc)
    row = rep.per_level[0]
    for key in ("N", "h", "steps", "mass_drift_rel", "energy_balance_max",
                "energy_tol", "positivity_margin_min", "E1", "E2", "P1", "P2",
                "flux_identity_gap", "rho_gamma_plus_1"):
        assert key in row
    assert row["N"] == 64
    assert row["h"] == pytest.approx(1.0 / 64.0)


def test_run_refinement_orders_are_error_rates_without_recomputing(monkeypatch, tmp_path):
    sc = with_levels(scenario_named("smooth-bump"), (16, 32, 64))
    # One line per call, appended to a file, so that calls made in the
    # finest level's worker process are counted too.
    log = tmp_path / "calls.log"
    log.touch()

    def record(name: str) -> None:
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(name + "\n")

    level_summary = diagnostics.level_summary

    def counted(*args):
        record("level_summary")
        return level_summary(*args)

    monkeypatch.setattr(diagnostics, "level_summary", counted)
    error_rates = diagnostics.error_rates

    def forbidden(*args, **kwargs):
        record("error_rates")
        raise AssertionError("run_refinement recomputed the level diagnostics")

    monkeypatch.setattr(diagnostics, "error_rates", forbidden)
    rep = harness.run_refinement(sc)
    calls = Counter(log.read_text(encoding="utf-8").split())
    assert calls == {"level_summary": len(sc.levels)}

    rates = error_rates([solve_level(sc, n) for n in sc.levels])
    for key in ("E1", "E2", "P1", "P2"):
        assert rep.orders[key] == rates[key], key
    assert rep.boundedness["rho_gamma_plus_1"] == rates["rho_gamma_plus_1"]


def test_run_refinement_without_steps_reports_no_orders():
    sc = with_levels(scenario_named("smooth-bump"), (8, 16, 32))
    rep = harness.run_refinement(harness.ScenarioConfig(
        name=sc.name, rho0=sc.rho0, u0=sc.u0, T=0.0, params=sc.params, levels=sc.levels,
    ))
    assert not rep.failed
    assert [row["steps"] for row in rep.per_level] == [0, 0, 0]
    assert rep.orders == {}
    assert rep.boundedness["rho_gamma_plus_1"]["values"] == [0.0, 0.0, 0.0]
    for row in rep.per_level:
        assert row["positivity_margin_min"] == np.inf
        for key in ("E1", "E2", "P1", "P2", "rho_gamma_plus_1", "flux_identity_gap"):
            assert row[key] == 0.0


# ======================================================================
# the finest level's worker process
# ======================================================================


def _inline(monkeypatch):
    """Make run_refinement solve every level in this process."""
    monkeypatch.setattr(harness, "fork_worker", lambda *args: None)


def _fail_at(monkeypatch, level: int, exc: Exception) -> None:
    solve = harness.march

    def march(scenario, grid, *args, **kwargs):
        if grid.N == level:
            raise exc
        return solve(scenario, grid, *args, **kwargs)

    monkeypatch.setattr(harness, "march", march)


def test_run_refinement_worker_matches_in_process_levels(monkeypatch):
    sc = with_levels(scenario_named("smooth-bump"), (16, 32, 64))
    rep = harness.run_refinement(sc)
    assert multiprocessing.active_children() == []

    trajs = [solve_level(sc, n) for n in sc.levels]
    summaries = [diagnostics.level_summary(t.grid, t.params, marched(t)) for t in trajs]
    pairs = [harness.cauchy_differences(a, b) for a, b in zip(trajs, trajs[1:])]
    # Each row is its level's summary, and after the first its Cauchy gaps.
    assert rep.per_level == (summaries[0], *(
        {**summary, "cauchy_rho": l1, "cauchy_u": l2}
        for summary, (l1, l2) in zip(summaries[1:], pairs)))

    _inline(monkeypatch)
    serial = harness.run_refinement(sc)
    assert rep.orders == serial.orders
    assert rep == serial


@pytest.mark.parametrize("forked", [True, False], ids=["worker", "in-process"])
def test_run_refinement_builds_no_trajectory(monkeypatch, forked):
    """Every level streams from march into its walk, in this process and in
    the worker alike: no Trajectory is built, so stepper.run is not called."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a Trajectory was built")

    monkeypatch.setattr(grid.Trajectory, "__init__", forbidden)
    if not forked:
        _inline(monkeypatch)
    rep = harness.run_refinement(with_levels(scenario_named("smooth-bump"), (16, 32, 64)))
    assert not rep.failed and rep.levels == (16, 32, 64)


@pytest.mark.parametrize("level", [32, 64])
def test_run_refinement_step_failure_stops_at_the_failing_level(monkeypatch, level):
    sc = with_levels(scenario_named("smooth-bump"), (16, 32, 64))
    _fail_at(monkeypatch, level, stepper.StepFailure("injected", 4, [1.0, 0.5], 0.25))
    rep = harness.run_refinement(sc)
    assert multiprocessing.active_children() == []
    assert rep.failed
    assert rep.levels == tuple(n for n in sc.levels if n < level)
    assert rep.flags[0] == (
        f"level {level} solve failed: injected (step k=4, min rho=2.500000e-01, "
        "recent residual norms: [1.000e+00, 5.000e-01])"
    )

    _inline(monkeypatch)
    serial = harness.run_refinement(sc)
    assert (rep.levels, rep.flags, rep.failed) == (serial.levels, serial.flags, serial.failed)


def test_run_refinement_reraises_worker_exception_type(monkeypatch):
    sc = with_levels(scenario_named("constant"), (8, 16, 32))
    exc = LookupError("injected")
    _fail_at(monkeypatch, 32, exc)
    with pytest.raises(LookupError, match="^injected$") as err:
        harness.run_refinement(sc)
    assert err.value is not exc  # a copy, sent back by the worker
    assert multiprocessing.active_children() == []


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the finest level runs in process without fork")
def test_run_refinement_names_a_worker_that_died(monkeypatch):
    sc = with_levels(scenario_named("constant"), (8, 16, 32))
    parent = os.getpid()
    solve = harness.march

    def march(scenario, grid, *args, **kwargs):
        if grid.N == 32 and os.getpid() != parent:
            os._exit(7)
        return solve(scenario, grid, *args, **kwargs)

    monkeypatch.setattr(harness, "march", march)
    with pytest.raises(RuntimeError, match=r"level 32 worker exited with code 7"):
        harness.run_refinement(sc)
    assert multiprocessing.active_children() == []


def test_run_refinement_names_a_worker_whose_pipe_was_reset(monkeypatch):
    """A killed worker's pipe can raise ConnectionResetError instead of EOFError."""
    sc = with_levels(scenario_named("constant"), (8, 16, 32))
    monkeypatch.setattr(harness, "fork_worker", lambda *args: reset_worker(-9))
    with pytest.raises(
        RuntimeError, match=r"^level 32 worker exited with code -9 without a result$"
    ):
        harness.run_refinement(sc)


def test_levels_cross_a_pipe_as_states_or_text():
    """Each kind comes back as sent, whatever a state's last byte or a
    text's last character is."""
    u = np.array([0.5, -0.0, np.frombuffer(b"\0" * 7 + b"t")[0]])
    state = SimpleNamespace(rho=np.array([np.nan, 5e-324]), u=u)  # unchecked
    levels = ["0,0,t\n", state, "ends in s", state]
    receiver, sender = multiprocessing.Pipe(duplex=False)
    harness.send_levels(sender, levels)
    got = list(harness.recv_levels(receiver, 2))
    receiver.close()
    sender.close()
    assert len(got) == len(levels)
    assert got[0::2] == levels[0::2]
    for rho, u_got in got[1::2]:
        assert rho.tobytes() + u_got.tobytes() == state.rho.tobytes() + u.tobytes()


def test_send_levels_to_a_closed_reader_returns():
    """A worker that has ended cannot take the levels; the sender carries on,
    and worker_result says what ended the worker."""
    receiver, sender = multiprocessing.Pipe(duplex=False)
    receiver.close()
    state = SimpleNamespace(rho=np.ones(2), u=np.zeros(3))
    harness.send_levels(sender, [state, "text"])
    with pytest.raises(ConnectionError):  # what send_levels met
        sender.send_bytes(b"")
    sender.close()


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the finest level runs in process without fork",
)


@pytest.fixture(scope="module")
def worker_handoff() -> dict:
    """A smooth-bump 64..256 study, with what worker_result returned in this
    process and the tracemalloc peak while it ran."""
    sc = with_levels(scenario_named("smooth-bump"), (64, 128, 256))
    seen: dict = {"scenario": sc}
    original = harness.worker_result

    def worker_result(*args):
        tracemalloc.start()
        try:
            seen["result"] = original(*args)
            seen["peak"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return seen["result"]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "worker_result", worker_result)
        seen["report"] = harness.run_refinement(sc)
    return seen


def _leaves(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


@needs_fork
def test_run_refinement_worker_returns_a_summary_and_a_cauchy_pair(worker_handoff):
    """The finest trajectory stays in the worker: only its level's row comes
    back, its summary with its Cauchy gaps to the next-to-finest level."""
    result, rep = worker_handoff["result"], worker_handoff["report"]
    assert result == rep.per_level[-1]
    assert {"cauchy_rho", "cauchy_u"} <= result.keys()
    assert not any(
        isinstance(leaf, (np.ndarray, grid.Trajectory, grid.FluidState))
        for leaf in _leaves(result)
    )
    assert len(pickle.dumps(result)) < 4096


@needs_fork
def test_run_refinement_receives_far_less_than_the_finest_level(worker_handoff):
    g = worker_handoff["scenario"].grid_for(256)
    finest_bytes = (g.M_steps + 1) * (2 * g.N + 1) * 8
    assert worker_handoff["peak"] < 0.1 * finest_bytes


@needs_fork
def test_run_refinement_worker_failing_before_the_coarse_level_is_sent(monkeypatch):
    """The worker's level fails and the worker ends before this process sends
    it the coarse level: the send meets a closed pipe, and the study reports
    the failure as the inline run does."""
    sc = with_levels(scenario_named("smooth-bump"), (16, 32, 64))
    _fail_at(monkeypatch, 64, stepper.StepFailure("injected", 4, [1.0, 0.5], 0.25))
    workers = []
    fork, solve, send = harness.fork_worker, harness.march, harness._send_level

    def fork_worker(*args):
        workers.append(fork(*args))
        return workers[-1]

    def march(scenario, grid, *args, **kwargs):
        if grid.N == 32:  # only this process solves level 32
            workers[0][0].join(timeout=60)
            assert workers[0][0].exitcode == 0  # it sent its StepFailure and ended
        return solve(scenario, grid, *args, **kwargs)

    resets = []

    def send_level(conn, level):
        try:
            send(conn, level)
        except ConnectionError as exc:
            resets.append(exc)
            raise

    monkeypatch.setattr(harness, "fork_worker", fork_worker)
    monkeypatch.setattr(harness, "march", march)
    monkeypatch.setattr(harness, "_send_level", send_level)
    rep = harness.run_refinement(sc)
    assert multiprocessing.active_children() == []
    assert len(resets) == 1
    assert rep.failed and rep.levels == (16, 32)
    assert rep.flags[0].startswith("level 64 solve failed: injected")

    _inline(monkeypatch)
    serial = harness.run_refinement(sc)
    assert (rep.levels, rep.flags, rep.failed) == (serial.levels, serial.flags, serial.failed)


_BLOCKED_SEND = r"""
import json, multiprocessing, os, sys, time
from dataclasses import replace
from visco1d import harness, stepper

marker = sys.argv[1]
smooth = next(s for s in harness.builtin_scenarios() if s.name == "smooth-bump")
sc = replace(smooth, levels=(128, 256, 512))
parent = os.getpid()
solve, send = harness.march, harness._send_level
sends = {"ok": 0, "reset": 0}

def march(scenario, grid, *args, **kwargs):
    if grid.N == 512:
        # Fail once this process has started sending level 256 and, with
        # more bytes than the socket buffer holds, is blocked in the send.
        while not os.path.exists(marker):
            time.sleep(0.01)
        time.sleep(0.5)
        raise stepper.StepFailure("injected", 4, [1.0, 0.5], 0.25)
    return solve(scenario, grid, *args, **kwargs)

def send_level(conn, level):
    if os.getpid() == parent:
        open(marker, "a").close()
    try:
        send(conn, level)
    except ConnectionError:
        sends["reset"] += 1
        raise
    sends["ok"] += 1

harness.march, harness._send_level = march, send_level
forked = harness.run_refinement(sc)
children = len(multiprocessing.active_children())
harness.fork_worker = lambda *args: None
inline = harness.run_refinement(sc)
print(json.dumps({
    "forked": [forked.levels, forked.flags, forked.failed],
    "inline": [inline.levels, inline.flags, inline.failed],
    "children": children,
    "sends": sends,
    "states": sc.grid_for(256).M_steps + 1,
}))
"""


@needs_fork
def test_run_refinement_worker_failing_while_the_send_is_blocked(tmp_path):
    """The worker's level fails while this process is blocked sending a coarse
    level larger than the socket buffer.  Run in a subprocess with a timeout,
    so that a deadlock fails the test instead of hanging the suite."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _BLOCKED_SEND, str(tmp_path / "sending")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker too
        proc.communicate()
        pytest.fail("run_refinement did not return within 120 s: deadlocked")
    assert proc.returncode == 0, stderr
    out = json.loads(stdout)
    assert out["forked"] == out["inline"]
    levels, flags, failed = out["forked"]
    assert failed and levels == [128, 256]
    assert flags[0].startswith("level 512 solve failed: injected")
    assert out["children"] == 0
    # The send broke off part-way through level 256: it had been blocked.
    assert out["sends"]["reset"] == 1
    assert out["sends"]["ok"] < out["states"]


def test_refine_cli_writes_each_line_once(tmp_path):
    """Output buffered before the worker forks is written once, not twice."""
    cfg = tmp_path / "warn.cfg"
    cfg.write_text("[scenario]\nname = smooth-bump\ngamma = 1.4\nlevels = 8,16,32\n",
                   encoding="utf-8")
    script = (
        "from visco1d.cli import main\n"
        "print('before refine')\n"  # stdout is a pipe: this stays buffered
        "main()\n"
    )
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)  # buffer stdout, as a plain run does
    proc = subprocess.run(
        [sys.executable, "-c", script, "refine", "--config", str(cfg), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "before refine", f"wrote {tmp_path / 'report.csv'} (3 levels)"]
    assert proc.stderr.splitlines() == [
        "WARNING gamma=1.4 outside 3/2<gamma<2 convergence regime"]
