"""Scenario harnesses at reduced scale, including the paper's shape claims.

The full-scale runs live in the benchmark harness; here we use small
client counts and short windows so the whole file stays fast, while still
asserting the *relationships* the paper reports.
"""

import pytest

from repro.clients.base import ALOHA, ETHERNET, FIXED
from repro.core.shell_log import LOG_TRACE
from repro.experiments import (
    BufferParams,
    ReplicaParams,
    SubmitParams,
    run_buffer,
    run_replica,
    run_submission,
)
from repro.grid.condor import CondorConfig
from repro.grid.storage import BufferConfig


class TestSubmissionScenario:
    def test_low_load_all_equal(self):
        results = {
            d.name: run_submission(
                SubmitParams(discipline=d, n_clients=10, duration=60.0)
            ).jobs_submitted
            for d in (FIXED, ALOHA, ETHERNET)
        }
        assert results["fixed"] == results["aloha"] == results["ethernet"]
        assert results["fixed"] > 0

    def test_deterministic_given_seed(self):
        params = dict(discipline=ALOHA, n_clients=25, duration=60.0, seed=11)
        first = run_submission(SubmitParams(**params))
        second = run_submission(SubmitParams(**params))
        assert first.jobs_submitted == second.jobs_submitted
        assert list(first.fd_series) == list(second.fd_series)

    def test_seed_changes_outcome_details(self):
        base = run_submission(
            SubmitParams(discipline=ALOHA, n_clients=25, duration=60.0, seed=1)
        )
        other = run_submission(
            SubmitParams(discipline=ALOHA, n_clients=25, duration=60.0, seed=2)
        )
        # same physics, different stagger/jitter: job completion instants
        # should differ somewhere even if sampled FD counts coincide
        assert list(base.jobs_series) != list(other.jobs_series)

    @pytest.mark.slow
    def test_paper_shapes_at_high_load(self):
        """Figure 1's qualitative claims at 400 submitters."""
        results = {
            d.name: run_submission(
                SubmitParams(discipline=d, n_clients=400, duration=300.0)
            )
            for d in (FIXED, ALOHA, ETHERNET)
        }
        fixed, aloha, ethernet = (
            results["fixed"], results["aloha"], results["ethernet"]
        )
        # "The fixed client fails completely above a load of 400 submitters."
        assert fixed.jobs_submitted <= 20
        assert fixed.crashes >= 3
        # Aloha keeps working but well below Ethernet, with crashes.
        assert aloha.crashes >= 1
        assert 0 < aloha.jobs_submitted < ethernet.jobs_submitted
        # "The Ethernet client maintains about 50 percent of peak" and
        # never starves the schedd.
        assert ethernet.crashes == 0
        peak = run_submission(
            SubmitParams(discipline=ETHERNET, n_clients=50, duration=300.0)
        ).jobs_submitted
        assert ethernet.jobs_submitted >= 0.35 * peak
        # Ethernet preserves the critical FD floor.
        assert min(ethernet.fd_series.values) >= 500

    def test_fd_series_sampled(self):
        run = run_submission(
            SubmitParams(discipline=ALOHA, n_clients=5, duration=30.0,
                         sample_interval=5.0)
        )
        assert run.fd_series.times == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]


class TestBufferScenario:
    def test_low_load_equal(self):
        results = {
            d.name: run_buffer(
                BufferParams(discipline=d, n_producers=2, duration=30.0)
            ).files_consumed
            for d in (FIXED, ALOHA, ETHERNET)
        }
        assert results["fixed"] == results["aloha"] == results["ethernet"]

    def test_overload_shapes(self):
        """Figure 4/5 claims at 30 producers."""
        results = {
            d.name: run_buffer(
                BufferParams(discipline=d, n_producers=30, duration=60.0)
            )
            for d in (FIXED, ALOHA, ETHERNET)
        }
        fixed, aloha, ethernet = (
            results["fixed"], results["aloha"], results["ethernet"]
        )
        # Throughput: ethernet >= aloha > fixed (fixed collapses).
        assert ethernet.files_consumed >= aloha.files_consumed
        assert aloha.files_consumed > 1.5 * fixed.files_consumed
        # Collisions: fixed >> aloha >= ethernet.
        assert fixed.collisions > 5 * aloha.collisions
        assert aloha.collisions >= ethernet.collisions

    def test_deterministic(self):
        params = dict(discipline=ETHERNET, n_producers=10, duration=30.0, seed=3)
        assert (
            run_buffer(BufferParams(**params)).files_consumed
            == run_buffer(BufferParams(**params)).files_consumed
        )

    def test_conservation(self):
        run = run_buffer(BufferParams(discipline=ALOHA, n_producers=10,
                                      duration=30.0))
        # Everything written is consumed, wasted, or still in the buffer.
        assert run.mb_written == pytest.approx(
            run.mb_consumed + run.mb_wasted +
            (120.0 - run.free_series.values[-1]),
            abs=5.0,
        )


class TestReplicaScenario:
    def test_ethernet_beats_aloha(self):
        aloha = run_replica(ReplicaParams(discipline=ALOHA, duration=900.0))
        ethernet = run_replica(ReplicaParams(discipline=ETHERNET, duration=900.0))
        # Figure 6 vs 7: Ethernet transfers more and collides almost never.
        assert ethernet.transfers > aloha.transfers
        assert ethernet.collisions <= 2
        assert aloha.collisions >= 5
        assert ethernet.deferrals > 0
        assert aloha.deferrals == 0

    def test_aloha_stalls_cost_sixty_seconds(self):
        run = run_replica(ReplicaParams(discipline=ALOHA, duration=300.0))
        # Every collision burned a 60 s try window.
        assert run.collisions * 60.0 <= 300.0 * 3  # bounded by client-time

    def test_no_black_hole_equalizes(self):
        aloha = run_replica(
            ReplicaParams(discipline=ALOHA, duration=300.0, black_holes=())
        )
        # the occasional 60 s queueing overrun aside, no systematic stalls
        assert aloha.collisions <= 5
        assert aloha.transfers >= 40

    def test_deterministic(self):
        first = run_replica(ReplicaParams(discipline=ALOHA, duration=300.0, seed=5))
        second = run_replica(ReplicaParams(discipline=ALOHA, duration=300.0, seed=5))
        assert first.transfers == second.transfers
        assert first.collisions == second.collisions


def logs_built(monkeypatch, module, **overrides):
    """Every ``ShellLog`` that ``module`` builds from here on, built with
    ``overrides`` on top of the arguments it passes."""
    from repro.core.shell_log import ShellLog

    built = []

    def make(*args, **kwargs):
        built.append(ShellLog(*args, **{**kwargs, **overrides}))
        return built[-1]

    monkeypatch.setattr(module, "ShellLog", make)
    return built


#: A keep-everything transcript, patched in where a default log is built.
FULL = {"level": LOG_TRACE, "max_events": 10**9}


class TestHarnessLogOnlyCounts:
    """The harnesses read back one number, ``backoffs`` — the paper's
    overload alarm — from the default log, which keeps no event.  A
    keep-everything ``LOG_TRACE`` log patched in where the default is
    built must give the same result, so nothing the harness does not
    keep was ever read, and the alarm does not saturate however many
    events a jammed run records."""

    @pytest.mark.parametrize("module, run", [
        ("scenario_submit", lambda m: m.run_submission(m.SubmitParams(
            ALOHA, 400, duration=30.0, script_window=30.0))),
        ("scenario_buffer", lambda m: m.run_buffer(m.BufferParams(
            ALOHA, 50, duration=30.0))),
        ("scenario_replica", lambda m: m.run_replica(m.ReplicaParams(
            ETHERNET, 12, duration=300.0))),
        ("scenario_kangaroo", lambda m: m.run_kangaroo(m.KangarooParams(
            ALOHA, 30, duration=60.0))),
    ])
    def test_result_equals_a_full_transcript(self, monkeypatch, module, run):
        import importlib

        from repro.core.shell_log import EventKind
        from repro.parallel.transport import to_jsonable

        from repro.experiments import population

        harness = importlib.import_module(f"repro.experiments.{module}")
        own = logs_built(monkeypatch, population)
        counted = run(harness)
        full = logs_built(monkeypatch, population, **FULL)
        kept = run(harness)

        [own_log], [full_log] = own, full
        assert len(own_log) == 0
        assert full_log.dropped == 0
        assert counted.backoffs == kept.backoffs > 0
        assert kept.backoffs == sum(
            1 for e in full_log.events if e.kind is EventKind.TRY_BACKOFF)
        assert to_jsonable(counted) == to_jsonable(kept)

    def test_dag_result_equals_a_full_transcript(self, monkeypatch):
        """The DAG dispatcher gives every task its own shell, each from
        the population, so every task logs into its one default counter."""
        from repro.experiments import population
        from repro.experiments.scenario_dag import DagParams, run_dag_scenario
        from repro.parallel.transport import to_jsonable

        params = DagParams(FIXED, n_users=2, layers=2, width=10)
        own = logs_built(monkeypatch, population)
        counted = run_dag_scenario(params)
        full = logs_built(monkeypatch, population, **FULL)
        kept = run_dag_scenario(params)

        assert len(own) == len(full) > 0
        assert counted.tasks_done == counted.tasks_total
        assert sum(len(log) for log in own) == 0
        assert sum(log.dropped for log in full) == 0
        assert sum(len(log) for log in full) > 0
        assert to_jsonable(counted) == to_jsonable(kept)
