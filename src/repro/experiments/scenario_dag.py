"""DAG-workflow scenario: Chimera-style dispatchers sharing one schedd.

Not a figure in the paper — it is the workload the paper's §5 *motivates*
scenario 1 with.  Several users each run a layered DAG; completing a
layer releases the next in a correlated burst.  The measure is makespan:
the discipline that crashes the schedd pays in time-to-finish.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..clients.base import Discipline
from ..faults.injectors import FaultSpec
from ..grid.chimera import DagDispatcher, DagStats, layered_dag
from ..grid.condor import CondorConfig, CondorWorld, register_condor_commands
from ..grid.pool import WorkerPool
from .population import Population


@dataclass(slots=True)
class DagParams:
    discipline: Discipline
    n_users: int = 8
    layers: int = 4
    width: int = 25
    fan_in: int = 2
    exec_time_range: tuple[float, float] = (15.0, 45.0)
    max_inflight: int = 50
    condor: CondorConfig = field(default_factory=CondorConfig)
    seed: int = 2003
    horizon: float = 7200.0
    carrier_threshold: int = 1000
    #: Size of the shared execution pool; None = unlimited machines
    #: (each job simply takes its exec_time).
    pool_workers: int | None = None
    pool_failure_rate: float = 0.0
    #: Injected faults (schedd-crash, fd-squeeze, worker-flaky).
    faults: tuple[FaultSpec, ...] = ()


@dataclass(slots=True)
class DagResult:
    params: DagParams
    makespan: float
    all_finished: bool
    tasks_done: int
    tasks_total: int
    submissions_attempted: int
    crashes: int
    jobs_requeued: int = 0


def run_dag_scenario(params: DagParams) -> DagResult:
    """Run the workflow race and report the aggregate makespan."""
    population = Population(params.seed)
    engine, streams = population.engine, population.streams
    world = CondorWorld(engine, params.condor)
    register_condor_commands(population.registry, world)

    pool = None
    if params.pool_workers is not None:
        pool = WorkerPool(
            engine,
            n_workers=params.pool_workers,
            failure_rate=params.pool_failure_rate,
            rng=streams.stream("pool"),
        )
    population.install_faults(params.faults, params.horizon,
                              schedd=world.schedd, fdtable=world.fdtable,
                              pool=pool)

    dispatchers = []
    processes = []
    total_tasks = 0
    for user in range(params.n_users):
        dag = layered_dag(
            params.layers,
            params.width,
            rng=streams.stream(f"dag-{user}"),
            fan_in=params.fan_in,
            exec_time_range=params.exec_time_range,
            prefix=f"u{user}.",
        )
        total_tasks += len(dag)
        dispatcher = DagDispatcher(
            engine,
            population.registry,
            world,
            dag,
            params.discipline,
            rng=streams.stream(f"dispatch-{user}"),
            name=f"user{user}",
            max_inflight=params.max_inflight,
            carrier_threshold=params.carrier_threshold,
            deadline=params.horizon,
            pool=pool,
        )
        dispatchers.append(dispatcher)
        processes.append(dispatcher.start())

    engine.run(until=engine.all_of(processes))
    stats: list[DagStats] = [p.value for p in processes]
    return DagResult(
        params=params,
        makespan=max(s.makespan for s in stats),
        all_finished=all(s.finished for s in stats),
        tasks_done=sum(s.tasks_done for s in stats),
        tasks_total=total_tasks,
        submissions_attempted=sum(s.submissions_attempted for s in stats),
        crashes=world.schedd.crashes.count,
        jobs_requeued=pool.jobs_requeued.count if pool is not None else 0,
    )
