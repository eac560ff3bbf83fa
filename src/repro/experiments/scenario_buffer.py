"""Scenario 2 harness: P producers vs one consumer on a 120 MB buffer
(Figures 4-5).

Each producer is a loop: draw a file size uniformly from 0-1 MB, run the
producer ftsh script (produce, optionally carrier-sense, store with the
discipline's retry policy), repeat.  Throughput is files the consumer
drained in the window; collisions are ENOSPC-deleted partial writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..clients.base import Discipline
from ..clients.scripts import producer_script, producer_script_reserved
from ..faults.injectors import FaultSpec
from ..grid.storage import BufferConfig, BufferWorld, register_buffer_commands
from ..sim.monitor import TimeSeries, sample
from .population import Population


@dataclass(slots=True)
class BufferParams:
    """Configuration of one producer-consumer run."""

    discipline: Discipline
    n_producers: int
    duration: float = 60.0
    script_window: float = 300.0
    buffer: BufferConfig = field(default_factory=BufferConfig)
    seed: int = 2003
    sample_interval: float = 1.0
    #: Use NeST-style reservations instead of optimistic writes (ablation
    #: of the paper's §5 allocation discussion).  The discipline's policy
    #: still governs retry pacing when the reservation is denied.
    reserved: bool = False
    #: Injected faults (enospc seizures, slow disk) for this world.
    faults: tuple[FaultSpec, ...] = ()
    #: Optional :class:`repro.obs.Observability` (see SubmitParams.obs).
    obs: Any = None


@dataclass(slots=True)
class BufferResult:
    """Outcome of one producer-consumer run."""

    params: BufferParams
    files_consumed: int
    collisions: int
    mb_consumed: float
    mb_written: float
    mb_wasted: float
    backoffs: int
    free_series: TimeSeries
    reservations_denied: int = 0
    alloc_wait_total: float = 0.0
    #: Cumulative files-consumed series (recovery/starvation analysis).
    consumed_series: TimeSeries = None  # type: ignore[assignment]


def run_buffer(params: BufferParams) -> BufferResult:
    """Run the scenario and collect Figure-4/5 measurements."""
    population = Population(params.seed, params.obs)
    world = BufferWorld(population.engine, params.buffer, obs=population.obs)
    register_buffer_commands(population.registry, world)
    population.install_faults(params.faults, params.duration,
                              buffer=world.buffer)

    free_series = TimeSeries("free-mb")
    sample(
        population.engine,
        params.sample_interval,
        lambda: world.buffer.free_mb,
        free_series,
        until=params.duration,
    )

    world.start_consumer()
    window = min(params.script_window, params.duration)
    if params.reserved:
        script = producer_script_reserved(size_mb=None, window=window)
    else:
        script = producer_script(params.discipline, size_mb=None,
                                 window=window)
    backoffs = population.run(
        params.n_producers, "producer-{}", world, params.discipline.policy,
        population.sized(script, params.buffer), params.duration)

    buffer = world.buffer
    return BufferResult(
        params=params,
        files_consumed=buffer.files_consumed.count,
        collisions=buffer.collisions.count,
        mb_consumed=buffer.mb_consumed,
        mb_written=buffer.mb_written,
        mb_wasted=buffer.mb_wasted,
        backoffs=backoffs,
        free_series=free_series,
        reservations_denied=buffer.reservations_denied.count,
        alloc_wait_total=world.alloc_wait_total,
        consumed_series=buffer.files_consumed.series,
    )
