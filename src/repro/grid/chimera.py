"""A Chimera-like DAG workflow manager (paper §5 motivation).

    "We expect that large numbers of submitters will compete for a schedd
    in systems such as Chimera, which manage large trees of dependent
    tasks for a user, dispatching new jobs as old ones complete."

This module supplies that workload: a :class:`TaskDAG` of dependent
tasks and a :class:`DagDispatcher` that submits every *ready* task
through the client discipline's ftsh script.  Completing a layer of a
wide DAG releases its dependents simultaneously — exactly the correlated
burst the Ethernet approach exists to absorb.  The interesting measure
is **makespan**: a discipline that crashes the schedd pays for it in
wall-clock time to finish the workflow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from ..clients.base import Discipline
from ..clients.scripts import submit_script
from ..core.errors import SimulationError
from ..core.parser import parse_cached
from ..sim.process import Process
from .condor import CondorWorld
from .pool import WorkerPool


@dataclass(frozen=True, slots=True)
class Task:
    """One node of the workflow."""

    name: str
    deps: tuple[str, ...] = ()
    exec_time: float = 30.0


class TaskDAG:
    """Dependency bookkeeping: which tasks are ready, which are done."""

    def __init__(self, tasks: Iterable[Task]) -> None:
        self.tasks: dict[str, Task] = {}
        for task in tasks:
            if task.name in self.tasks:
                raise SimulationError(f"duplicate task {task.name!r}")
            self.tasks[task.name] = task
        for task in self.tasks.values():
            for dep in task.deps:
                if dep not in self.tasks:
                    raise SimulationError(
                        f"task {task.name!r} depends on unknown {dep!r}"
                    )
        self._done: set[str] = set()
        self._dispatched: set[str] = set()
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        state: dict[str, int] = {}
        for name in self.tasks:
            self._visit(name, state)

    def _visit(self, name: str, state: dict[str, int]) -> None:
        """Depth-first from ``name``: 1 on the path, 2 done.  A method,
        not a closure: a recursive closure is a reference cycle, and it
        would hold the whole DAG until a collector pass."""
        if state.get(name) == 1:
            raise SimulationError(f"dependency cycle through {name!r}")
        if state.get(name) == 2:
            return
        state[name] = 1
        for dep in self.tasks[name].deps:
            self._visit(dep, state)
        state[name] = 2

    # ------------------------------------------------------------------
    def ready(self) -> list[Task]:
        """Tasks whose dependencies are all done and which have not been
        handed to a dispatcher yet, in stable name order."""
        out = []
        for name in sorted(self.tasks):
            if name in self._dispatched or name in self._done:
                continue
            task = self.tasks[name]
            if all(dep in self._done for dep in task.deps):
                out.append(task)
        return out

    def mark_dispatched(self, name: str) -> None:
        self._dispatched.add(name)

    def unmark_dispatched(self, name: str) -> None:
        """Give a task back (its submission ultimately failed)."""
        self._dispatched.discard(name)

    def complete(self, name: str) -> None:
        self._done.add(name)
        self._dispatched.discard(name)

    @property
    def done_count(self) -> int:
        return len(self._done)

    def all_done(self) -> bool:
        return len(self._done) == len(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)


# ---------------------------------------------------------------------------
# Workload shapes
# ---------------------------------------------------------------------------

def bag_of_tasks(count: int, exec_time: float = 30.0, prefix: str = "t") -> TaskDAG:
    """No dependencies: the maximal thundering herd."""
    return TaskDAG(Task(f"{prefix}{i}", (), exec_time) for i in range(count))


def chain(length: int, exec_time: float = 30.0, prefix: str = "t") -> TaskDAG:
    """A strict pipeline: one ready task at a time."""
    tasks = []
    for i in range(length):
        deps = (f"{prefix}{i - 1}",) if i else ()
        tasks.append(Task(f"{prefix}{i}", deps, exec_time))
    return TaskDAG(tasks)


def layered_dag(
    layers: int,
    width: int,
    rng: Optional[random.Random] = None,
    fan_in: int = 2,
    exec_time_range: tuple[float, float] = (15.0, 45.0),
    prefix: str = "t",
) -> TaskDAG:
    """A layered random DAG: each task depends on up to ``fan_in`` tasks
    of the previous layer.  Finishing a layer releases the next one in a
    burst — the Chimera pattern."""
    rng = rng or random.Random(0)
    tasks: list[Task] = []
    previous: list[str] = []
    for layer in range(layers):
        current: list[str] = []
        for index in range(width):
            name = f"{prefix}L{layer}.{index}"
            if previous:
                k = min(len(previous), rng.randint(1, fan_in))
                deps = tuple(sorted(rng.sample(previous, k)))
            else:
                deps = ()
            tasks.append(
                Task(name, deps, rng.uniform(*exec_time_range))
            )
            current.append(name)
        previous = current
    return TaskDAG(tasks)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class DagStats:
    """What one dispatcher run measured."""

    makespan: float = 0.0
    tasks_done: int = 0
    submissions_attempted: int = 0
    finished: bool = False


class DagDispatcher:
    """Submits ready tasks through the discipline's ftsh script.

    One dispatcher models one Chimera-style user agent: up to
    ``max_inflight`` submission shells at once, each retrying per the
    discipline until the schedd accepts the job; the job then executes on
    the (uncontended) pool for its ``exec_time`` and completes, releasing
    dependents.  It runs on ``population`` (a
    :class:`repro.experiments.population.Population`: its ``engine``,
    ``streams`` and ``shell``), which builds each task's shell.
    """

    def __init__(
        self,
        population: Any,
        world: CondorWorld,
        dag: TaskDAG,
        discipline: Discipline,
        rng: Optional[random.Random] = None,
        name: str = "dag",
        max_inflight: int = 50,
        submit_window: float = 300.0,
        carrier_threshold: int = 1000,
        poll_interval: float = 1.0,
        deadline: float = 1e9,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.population = population
        self.engine = population.engine
        self.world = world
        self.dag = dag
        self.discipline = discipline
        self.rng = (rng if rng is not None
                    else population.streams.stream("dag-dispatcher"))
        self.name = name
        self.max_inflight = max_inflight
        self.poll_interval = poll_interval
        self.deadline = deadline
        #: When given, accepted jobs execute on this shared pool (queueing
        #: for machines); otherwise each runs for its own exec_time.
        self.pool = pool
        self.stats = DagStats()
        self._inflight = 0
        # Every task submission re-enters one shared parsed script.
        self._script = parse_cached(
            submit_script(discipline, window=submit_window,
                          carrier_threshold=carrier_threshold)
        )

    # ------------------------------------------------------------------
    def start(self) -> Process:
        """Spawn the dispatcher as a sim process; its value is DagStats."""
        return self.engine.process(self._run(), name=f"{self.name}-dispatcher")

    def _run(self):
        start_time = self.engine.now
        while not self.dag.all_done() and self.engine.now < self.deadline:
            for task in self.dag.ready():
                if self._inflight >= self.max_inflight:
                    break
                self.dag.mark_dispatched(task.name)
                self._inflight += 1
                self.engine.process(
                    self._submit_and_execute(task),
                    name=f"{self.name}:{task.name}",
                )
            yield self.engine.timeout(self.poll_interval)
        self.stats.makespan = self.engine.now - start_time
        self.stats.tasks_done = self.dag.done_count
        self.stats.finished = self.dag.all_done()
        return self.stats

    def _submit_and_execute(self, task: Task):
        """One task's life: submit (with retries) then run on the pool."""
        shell = self.population.shell(
            f"{self.name}:{task.name}", self.world, self.discipline.policy,
            random.Random(self.rng.getrandbits(64)))
        try:
            while self.engine.now < self.deadline:
                self.stats.submissions_attempted += 1
                process = shell.spawn(
                    self._script, timeout=self.deadline - self.engine.now
                )
                result = yield process
                if result.success:
                    # Accepted: the job executes and completes.
                    if self.pool is not None:
                        job = self.pool.submit(task.exec_time)
                        yield job.done
                    else:
                        yield self.engine.timeout(task.exec_time)
                    self.dag.complete(task.name)
                    return
            self.dag.unmark_dispatched(task.name)
        finally:
            self._inflight -= 1
