"""Worker pool and matchmaker."""

import random

import pytest

from repro.core.errors import SimulationError
from repro.grid.pool import WorkerPool
from repro.sim import Engine


class TestSubmitAndRun:
    def test_single_job(self):
        engine = Engine()
        pool = WorkerPool(engine, n_workers=2, negotiation_interval=5.0)
        job = pool.submit(exec_time=10.0)

        def waiter():
            yield job.done
            return engine.now

        finished = engine.run(until=engine.process(waiter()))
        # first negotiation at t=5, execution 10 s
        assert finished == pytest.approx(15.0)
        assert pool.jobs_completed.count == 1

    def test_parallel_up_to_workers(self):
        engine = Engine()
        pool = WorkerPool(engine, n_workers=3, negotiation_interval=1.0)
        jobs = [pool.submit(exec_time=10.0) for _ in range(3)]
        engine.run(until=engine.all_of([j.done for j in jobs]))
        assert engine.now == pytest.approx(11.0)

    def test_queueing_beyond_workers(self):
        engine = Engine()
        pool = WorkerPool(engine, n_workers=1, negotiation_interval=1.0)
        jobs = [pool.submit(exec_time=10.0) for _ in range(3)]
        engine.run(until=engine.all_of([j.done for j in jobs]))
        # serialized: starts at 1, 12, 23 (negotiations after each finish)
        assert engine.now >= 30.0
        assert pool.jobs_completed.count == 3

    def test_fifo_matching(self):
        engine = Engine()
        pool = WorkerPool(engine, n_workers=1, negotiation_interval=1.0)
        order = []
        jobs = [pool.submit(exec_time=2.0) for _ in range(3)]
        for index, job in enumerate(jobs):
            job.done.callbacks.append(lambda ev, i=index: order.append(i))
        engine.run(until=engine.all_of([j.done for j in jobs]))
        assert order == [0, 1, 2]

    def test_idle_and_queue_depth(self):
        engine = Engine()
        pool = WorkerPool(engine, n_workers=4, negotiation_interval=1.0)
        def idle():
            return sum(not worker.busy for worker in pool.workers)

        assert idle() == 4
        pool.submit(5.0)
        pool.submit(5.0)
        assert len(pool.queue) == 2
        engine.run(until=2.0)
        assert idle() == 2
        assert len(pool.queue) == 0


class TestFailures:
    def test_failed_jobs_requeue_and_finish(self):
        engine = Engine()
        pool = WorkerPool(engine, n_workers=4, negotiation_interval=1.0,
                          failure_rate=0.5, rng=random.Random(3))
        jobs = [pool.submit(exec_time=5.0) for _ in range(10)]
        engine.run(until=engine.all_of([j.done for j in jobs]))
        assert pool.jobs_completed.count == 10
        assert pool.jobs_requeued.count > 0

    def test_zero_failure_rate_never_requeues(self):
        engine = Engine()
        pool = WorkerPool(engine, n_workers=4, negotiation_interval=1.0)
        jobs = [pool.submit(exec_time=2.0) for _ in range(8)]
        engine.run(until=engine.all_of([j.done for j in jobs]))
        assert pool.jobs_requeued.count == 0

    def test_attempts_tracked(self):
        engine = Engine()
        pool = WorkerPool(engine, n_workers=1, negotiation_interval=1.0,
                          failure_rate=0.9, rng=random.Random(1))
        job = pool.submit(exec_time=1.0)
        engine.run(until=job.done)
        assert job.attempts >= 2


class TestValidation:
    def test_bad_worker_count(self):
        with pytest.raises(SimulationError):
            WorkerPool(Engine(), n_workers=0)

    def test_bad_failure_rate(self):
        with pytest.raises(SimulationError):
            WorkerPool(Engine(), failure_rate=1.0)

    def test_negative_exec_time(self):
        pool = WorkerPool(Engine(), n_workers=1)
        with pytest.raises(SimulationError):
            pool.submit(-1.0)


class TestScenarioIntegration:
    def test_pool_limited_dag_slower_than_unlimited(self):
        from repro.clients.base import ETHERNET
        from repro.experiments.scenario_dag import DagParams, run_dag_scenario

        limited = run_dag_scenario(
            DagParams(discipline=ETHERNET, n_users=2, layers=2, width=15,
                      pool_workers=5, horizon=3600.0)
        )
        unlimited = run_dag_scenario(
            DagParams(discipline=ETHERNET, n_users=2, layers=2, width=15,
                      horizon=3600.0)
        )
        assert limited.all_finished and unlimited.all_finished
        assert limited.makespan > unlimited.makespan

    def test_machine_failures_slow_but_finish(self):
        from repro.clients.base import ETHERNET
        from repro.experiments.scenario_dag import DagParams, run_dag_scenario

        flaky = run_dag_scenario(
            DagParams(discipline=ETHERNET, n_users=2, layers=2, width=15,
                      pool_workers=20, pool_failure_rate=0.2, horizon=3600.0)
        )
        assert flaky.all_finished
        assert flaky.jobs_requeued > 0
