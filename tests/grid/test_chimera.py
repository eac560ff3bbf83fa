"""DAG workflow manager: structure, dispatch, and contention behaviour."""

import random

import pytest

from repro.clients.base import ALOHA, ETHERNET, FIXED
from repro.core.errors import SimulationError
from repro.grid.chimera import (
    DagDispatcher,
    Task,
    TaskDAG,
    bag_of_tasks,
    chain,
    layered_dag,
)
from repro.experiments.population import Population
from repro.experiments.scenario_dag import DagParams, run_dag_scenario
from repro.grid.condor import CondorConfig, CondorWorld, register_condor_commands
from repro.obs.api import Observability


class TestTaskDAG:
    def test_ready_respects_deps(self):
        dag = TaskDAG([Task("a"), Task("b", ("a",)), Task("c", ("a", "b"))])
        assert [t.name for t in dag.ready()] == ["a"]
        dag.complete("a")
        assert [t.name for t in dag.ready()] == ["b"]
        dag.complete("b")
        assert [t.name for t in dag.ready()] == ["c"]

    def test_dispatched_not_offered_again(self):
        dag = TaskDAG([Task("a"), Task("b")])
        dag.mark_dispatched("a")
        assert [t.name for t in dag.ready()] == ["b"]
        dag.unmark_dispatched("a")
        assert {t.name for t in dag.ready()} == {"a", "b"}

    def test_all_done(self):
        dag = TaskDAG([Task("a"), Task("b", ("a",))])
        assert not dag.all_done()
        dag.complete("a")
        dag.complete("b")
        assert dag.all_done()
        assert dag.done_count == 2

    def test_duplicate_rejected(self):
        with pytest.raises(SimulationError):
            TaskDAG([Task("a"), Task("a")])

    def test_unknown_dep_rejected(self):
        with pytest.raises(SimulationError):
            TaskDAG([Task("a", ("ghost",))])

    def test_cycle_rejected(self):
        with pytest.raises(SimulationError):
            TaskDAG([Task("a", ("b",)), Task("b", ("a",))])

    def test_self_cycle_rejected(self):
        with pytest.raises(SimulationError):
            TaskDAG([Task("a", ("a",))])


class TestWorkloadShapes:
    def test_bag(self):
        dag = bag_of_tasks(10)
        assert len(dag) == 10
        assert len(dag.ready()) == 10

    def test_chain(self):
        dag = chain(5)
        assert len(dag) == 5
        assert len(dag.ready()) == 1

    def test_layered(self):
        dag = layered_dag(3, 4, rng=random.Random(1))
        assert len(dag) == 12
        # exactly the first layer is ready at the start
        assert len(dag.ready()) == 4
        for task in list(dag.ready()):
            dag.complete(task.name)
        assert 1 <= len(dag.ready()) <= 4

    def test_layered_deterministic(self):
        a = layered_dag(3, 5, rng=random.Random(7))
        b = layered_dag(3, 5, rng=random.Random(7))
        assert {t.name: t.deps for t in a.tasks.values()} == {
            t.name: t.deps for t in b.tasks.values()
        }


class TestDispatcher:
    def make_world(self):
        population = Population(seed=0)  # a bare Engine()'s streams
        world = CondorWorld(population.engine, CondorConfig())
        register_condor_commands(population.registry, world)
        return population.engine, world, population

    def test_chain_executes_in_order(self):
        engine, world, population = self.make_world()
        dag = chain(3, exec_time=10.0)
        dispatcher = DagDispatcher(population, world, dag, ETHERNET)
        process = dispatcher.start()
        stats = engine.run(until=process)
        assert stats.finished
        assert stats.tasks_done == 3
        # 3 sequential (submit ~4s + exec 10s) rounds
        assert stats.makespan >= 30.0

    def test_bag_runs_in_parallel(self):
        engine, world, population = self.make_world()
        dag = bag_of_tasks(20, exec_time=10.0)
        dispatcher = DagDispatcher(population, world, dag, ETHERNET,
                                   max_inflight=20)
        stats = engine.run(until=dispatcher.start())
        assert stats.finished
        # far better than 20 sequential rounds (~280 s)
        assert stats.makespan < 100.0

    def test_inflight_cap_respected(self):
        engine, world, population = self.make_world()
        dag = bag_of_tasks(10, exec_time=5.0)
        dispatcher = DagDispatcher(population, world, dag, ETHERNET,
                                   max_inflight=2)
        stats = engine.run(until=dispatcher.start())
        assert stats.finished
        # 10 tasks, 2 at a time, each >= 5 s of execution
        assert stats.makespan >= 25.0


class TestScenario:
    def test_uncontended_all_equal(self):
        results = {
            d.name: run_dag_scenario(
                DagParams(discipline=d, n_users=2, layers=2, width=10,
                          horizon=3600.0)
            )
            for d in (ALOHA, ETHERNET)
        }
        assert all(r.all_finished for r in results.values())
        assert results["aloha"].crashes == results["ethernet"].crashes == 0

    def test_deterministic(self):
        params = dict(n_users=2, layers=2, width=10, horizon=3600.0, seed=9)
        first = run_dag_scenario(DagParams(discipline=ALOHA, **params))
        second = run_dag_scenario(DagParams(discipline=ALOHA, **params))
        assert first.makespan == second.makespan
        assert first.submissions_attempted == second.submissions_attempted

    @pytest.mark.parametrize("discipline", [ETHERNET, FIXED],
                             ids=lambda d: d.name)
    def test_every_task_shell_and_the_schedd_report_to_the_obs(
            self, discipline):
        """A finished DAG's submission scripts all reach the run's
        telemetry, one finished script per attempt, and so does the
        schedd's job counter."""
        obs = Observability()
        result = run_dag_scenario(DagParams(
            discipline, n_users=3, layers=3, width=6,
            exec_time_range=(5.0, 10.0), seed=5, obs=obs))

        def total(name):
            return sum(child.value
                       for child in obs.metrics.get(name).children())

        assert result.all_finished
        assert total("ftsh_scripts_total") == result.submissions_attempted
        assert total("grid_jobs_submitted_total") == result.tasks_done > 0

    @pytest.mark.slow
    def test_burst_above_cliff_backoff_survives(self):
        result = run_dag_scenario(
            DagParams(discipline=ALOHA, n_users=6, layers=2, width=70,
                      max_inflight=70, horizon=1800.0)
        )
        assert result.all_finished
        assert result.tasks_done == result.tasks_total
