"""The cross-runtime guarantee of the trace tree: the same script yields
the *same span structure* under the real POSIX driver and the simulation
driver — the obs-side analogue of tests/integration/test_cross_driver.py.

And each metric is a view of a record the run keeps: the ``ftsh_*``
families agree with the spans and the ``grid_*`` ones with the
substrate counters.
"""

import collections

import pytest

from repro.clients.base import ALOHA
from repro.core import Ftsh
from repro.core.backoff import BackoffPolicy
from repro.core.realruntime import RealDriver
from repro.experiments.scenario_submit import SubmitParams, run_submission
from repro.faults.injectors import FaultSpec
from repro.faults.schedule import Burst
from repro.grid.condor import CondorConfig
from repro.obs.api import Observability
from repro.obs.clock import engine_clock
from repro.obs.push import SPANS_COUNTER, span_counters
from repro.sim import Engine
from repro.simruntime import CommandRegistry, SimFtsh

#: Identical deterministic policy in both drivers (no jitter, tiny base
#: so the real runs stay fast).
POLICY = BackoffPolicy(base=0.05, factor=2.0, ceiling=0.4,
                       jitter_low=1.0, jitter_high=1.0)


def run_real(script):
    obs = Observability.wall()
    shell = Ftsh(driver=RealDriver(term_grace=0.2, obs=obs), policy=POLICY,
                 obs=obs)
    return shell.run(script), obs


def run_sim(script, max_spans=250_000):
    engine = Engine()
    obs = Observability(clock=engine_clock(engine), max_spans=max_spans)
    registry = CommandRegistry()

    @registry.register("sh")
    def sh(ctx):
        """Interpret the tiny `sh -c 'exit N'` subset our scripts use."""
        assert ctx.args[0] == "-c"
        body = ctx.args[1]
        if body.startswith("exit "):
            return int(body.split()[1])
        return 0
        yield  # pragma: no cover

    shell = SimFtsh(engine, registry, policy=POLICY, obs=obs)
    return shell.run(script), obs


CASES = [
    "sh -c 'exit 0'",
    "sh -c 'exit 1'",
    "try 3 times\n  sh -c 'exit 1'\nend",
    "try 3 times\n  sh -c 'exit 1'\ncatch\n  sh -c 'exit 0'\nend",
    'forany x in 1 1 0\n  sh -c "exit ${x}"\nend',
    "a=5\nif ${a} .lt. 10\n  sh -c 'exit 0'\nelse\n  sh -c 'exit 1'\nend",
]


@pytest.mark.parametrize("script", CASES, ids=range(len(CASES)))
def test_same_span_structure_both_drivers(script):
    """Names, kinds, statuses and nesting line up span for span."""
    real_result, real_obs = run_real(script)
    sim_result, sim_obs = run_sim(script)
    assert real_result.success == sim_result.success
    assert real_obs.tracer.structure() == sim_obs.tracer.structure()


def test_try_span_records_attempts_identically():
    script = "try 3 times\n  sh -c 'exit 1'\ncatch\n  sh -c 'exit 0'\nend"
    _, real_obs = run_real(script)
    _, sim_obs = run_sim(script)
    for obs in (real_obs, sim_obs):
        (trial,) = [s for s in obs.tracer if s.kind == "try"]
        assert trial.attrs["attempts"] == 3
        assert trial.attrs["caught"] is True


def test_metrics_line_up_across_drivers():
    script = "try 3 times\n  sh -c 'exit 1'\ncatch\n  sh -c 'exit 0'\nend"
    _, real_obs = run_real(script)
    _, sim_obs = run_sim(script)

    def snapshot(obs):
        return {
            "attempts": obs.metrics.get("ftsh_try_attempts_total").value,
            "backoffs": obs.metrics.get("ftsh_backoff_initiations_total").value,
            "catches": obs.metrics.get("ftsh_catch_entered_total").value,
            "failed": obs.metrics.get("ftsh_commands_total")
                         .labels(command="sh", outcome="failed").value,
            "ok": obs.metrics.get("ftsh_commands_total")
                     .labels(command="sh", outcome="ok").value,
        }

    expected = {"attempts": 3.0, "backoffs": 2.0, "catches": 1.0,
                "failed": 3.0, "ok": 1.0}
    assert snapshot(real_obs) == expected
    assert snapshot(sim_obs) == expected


def test_all_spans_closed_after_run():
    for runner in (run_real, run_sim):
        _, obs = runner("try 2 times\n  sh -c 'exit 1'\ncatch\n  sh -c 'exit 0'\nend")
        assert all(span.finished for span in obs.tracer)


def test_sim_spans_use_virtual_time():
    """The backoff sleeps land on the virtual clock, not the wall."""
    _, obs = run_sim("try 3 times\n  sh -c 'exit 1'\ncatch\n  sh -c 'exit 0'\nend")
    backoffs = [s for s in obs.tracer if s.kind == "backoff"]
    assert [pytest.approx(b.duration) for b in backoffs] == [0.05, 0.1]


def test_forall_branch_spans_nest_under_forall():
    script = 'forall x in 0 0\n  sh -c "exit ${x}"\nend'
    real_result, real_obs = run_real(script)
    sim_result, sim_obs = run_sim(script)
    assert real_result.success and sim_result.success
    assert real_obs.tracer.structure() == sim_obs.tracer.structure()
    for obs in (real_obs, sim_obs):
        (forall,) = [s for s in obs.tracer if s.kind == "forall"]
        branches = obs.tracer.children(forall)
        assert [b.kind for b in branches] == ["branch", "branch"]
        assert all(b.status == "ok" for b in branches)
        for branch in branches:
            kinds = [c.kind for c in obs.tracer.children(branch)]
            assert kinds == ["command"]


def value(obs, name):
    return obs.metrics.get(name).value


def test_ftsh_and_grid_metrics_are_views_of_spans_and_substrate():
    """A faulted, contended submit run: every ``ftsh_*`` count equals the
    spans it folds, and every schedd counter the substrate's own."""
    obs = Observability()
    result = run_submission(SubmitParams(
        ALOHA, n_clients=40, duration=120.0,
        condor=CondorConfig(fd_capacity=1000, restart_delay=10.0),
        faults=(FaultSpec("schedd-crash", Burst(30.0, 1.0)),), obs=obs))
    spans = list(obs.tracer)
    assert obs.tracer.dropped == 0

    by_outcome = collections.Counter(
        (s.name.partition(":")[2], s.status) for s in spans
        if s.kind == "command")
    folded = {child.label_values: child.value for child in
              obs.metrics.get("ftsh_commands_total").children()}
    assert folded == by_outcome
    attempts = sum(1 for s in spans if s.kind == "attempt")
    assert value(obs, "ftsh_try_attempts_total") == attempts
    backoffs = sum(1 for s in spans if s.kind == "backoff")
    assert value(obs, "ftsh_backoff_initiations_total") == result.backoffs
    assert result.backoffs == backoffs > 0

    grid = {"grid_jobs_submitted_total": result.jobs_submitted,
            "grid_schedd_crashes_total": result.crashes,
            "grid_emfile_failures_total": result.emfile_failures,
            "grid_connections_refused_total": result.refused}
    assert all(count > 0 for count in grid.values()), grid
    assert {name: value(obs, name) for name in grid} == grid


TRY_CASES = [
    # (script, succeeds, exhausted, catches)
    ("try 2 times\n  sh -c 'exit 0'\nend", True, 0, 0),
    ("try 2 times\n  sh -c 'exit 1'\nend", False, 1, 0),
    ("try 2 times\n  sh -c 'exit 1'\ncatch\n  sh -c 'exit 0'\nend",
     True, 1, 1),
    ("try 2 times\n  sh -c 'exit 1'\ncatch\n  sh -c 'exit 1'\nend",
     False, 1, 1),
]


@pytest.mark.parametrize("script,succeeds,exhausted,catches", TRY_CASES,
                         ids=["ok", "exhausted", "caught", "catch-failed"])
def test_try_exhausted_counts_every_try_that_gave_up(
        script, succeeds, exhausted, catches):
    """Exhausted counts a try whose retries ran out, caught or not; catch
    counts the catch blocks entered."""
    result, obs = run_sim(script)
    assert result.success is succeeds
    assert value(obs, "ftsh_try_exhausted_total") == exhausted
    assert value(obs, "ftsh_catch_entered_total") == catches


def test_a_capped_tracer_still_counts_every_span():
    """Past ``max_spans`` spans are dropped, not uncounted: the span
    counter and the metrics see every one."""
    script = "try 3 times\n  sh -c 'exit 1'\ncatch\n  sh -c 'exit 0'\nend"
    _, full = run_sim(script)
    _, capped = run_sim(script, max_spans=2)
    assert len(capped.tracer) == 2
    assert capped.tracer.started == len(full.tracer) > 2
    assert capped.tracer.dropped == len(full.tracer) - 2
    pushed = {row["name"]: row["value"] for row in span_counters(capped)}
    assert pushed[SPANS_COUNTER] == len(full.tracer)
    for name in ("ftsh_try_attempts_total", "ftsh_backoff_initiations_total"):
        assert value(capped, name) == value(full, name) > 0
