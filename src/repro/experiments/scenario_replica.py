"""Scenario 3 harness: 3 clients, 3 single-threaded servers, one black
hole (Figures 6-7).

Each client loops fetch cycles; the host list is re-shuffled per cycle to
model the paper's "a server chosen at random".  The figures are the
cumulative event series the world's counters record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..clients.base import Discipline
from ..clients.scripts import reader_script
from ..faults.injectors import FaultSpec
from ..grid.httpserver import ReplicaConfig, ReplicaWorld, register_replica_commands
from ..sim.monitor import TimeSeries
from .population import Population


@dataclass(slots=True)
class ReplicaParams:
    """Configuration of one black-hole run."""

    discipline: Discipline
    n_clients: int = 3
    duration: float = 900.0
    probe_window: float = 5.0
    data_window: float = 60.0
    hosts: tuple[str, ...] = ("xxx", "yyy", "zzz")
    black_holes: tuple[str, ...] = ("zzz",)
    replica: ReplicaConfig = field(default_factory=ReplicaConfig)
    seed: int = 2003
    #: Injected faults (http-5xx bursts, accept-queue saturation).
    faults: tuple[FaultSpec, ...] = ()
    #: Optional :class:`repro.obs.Observability` (see SubmitParams.obs).
    obs: Any = None


@dataclass(slots=True)
class ReplicaResult:
    """Outcome of one black-hole run."""

    params: ReplicaParams
    transfers: int
    collisions: int
    deferrals: int
    backoffs: int
    transfers_series: TimeSeries
    collisions_series: TimeSeries
    deferrals_series: TimeSeries


def run_replica(params: ReplicaParams) -> ReplicaResult:
    """Run the scenario and collect Figure-6/7 measurements."""
    population = Population(params.seed, params.obs)
    world = ReplicaWorld(
        population.engine,
        params.replica,
        hosts=params.hosts,
        black_holes=params.black_holes,
        obs=population.obs,
    )
    register_replica_commands(population.registry, world)
    population.install_faults(params.faults, params.duration,
                              servers=list(world.servers.values()))

    # Each reader re-shuffles its own host order every cycle.
    orders = [list(params.hosts) for _ in range(params.n_clients)]

    def cycle(index: int):
        hosts = orders[index]
        population.streams.stream(f"shuffle-{index}").shuffle(hosts)
        return reader_script(
            params.discipline,
            hosts,
            window=min(900.0, params.duration),
            probe_window=params.probe_window,
            data_window=params.data_window,
        ), None

    backoffs = population.run(
        params.n_clients, "reader-{}", world, params.discipline.policy,
        cycle, params.duration)

    return ReplicaResult(
        params=params,
        transfers=world.transfers.count,
        collisions=world.collisions.count,
        deferrals=world.deferrals.count,
        backoffs=backoffs,
        transfers_series=world.transfers.series,
        collisions_series=world.collisions.series,
        deferrals_series=world.deferrals.series,
    )
