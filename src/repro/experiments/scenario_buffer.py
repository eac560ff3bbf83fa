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
from ..core.shell_log import LOG_RESULTS, ShellLog
from ..faults.injectors import FaultSpec, install_faults
from ..grid.storage import BufferConfig, BufferWorld, register_buffer_commands
from ..obs.api import NULL_OBS
from ..obs.clock import engine_clock
from ..sim.engine import Engine
from ..sim.monitor import TimeSeries, sample
from ..sim.rng import RandomStreams
from ..simruntime.registry import CommandRegistry
from ..simruntime.shell import SimFtsh


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


def _producer_loop(
    engine: Engine,
    shell: SimFtsh,
    discipline: Discipline,
    params: BufferParams,
    rng,
    stagger: float,
):
    """One producer: endless produce/store cycles with fresh random sizes.

    The script is one text for every cycle (parsed and compiled once);
    the size reaches it as the ``size_mb`` variable.
    """
    config = params.buffer
    window = min(params.script_window, params.duration)
    if params.reserved:
        script = producer_script_reserved(size_mb=None, window=window)
    else:
        script = producer_script(discipline, size_mb=None, window=window)
    if stagger > 0:
        yield engine.timeout(stagger)
    while engine.now < params.duration:
        size = rng.uniform(config.file_min_mb, config.file_max_mb)
        process = shell.spawn(script, {"size_mb": f"{size:.6f}"},
                              timeout=params.duration - engine.now)
        yield process


def run_buffer(params: BufferParams) -> BufferResult:
    """Run the scenario and collect Figure-4/5 measurements."""
    streams = RandomStreams(params.seed)
    engine = Engine(streams=streams)
    obs = params.obs if params.obs is not None else NULL_OBS
    obs.set_clock(engine_clock(engine))
    world = BufferWorld(engine, params.buffer, obs=obs)
    registry = CommandRegistry()
    register_buffer_commands(registry, world)
    install_faults(engine, params.faults, streams=streams,
                   horizon=params.duration, buffer=world.buffer)

    free_series = TimeSeries("free-mb")
    sample(
        engine,
        params.sample_interval,
        lambda: world.buffer.free_mb,
        free_series,
        until=params.duration,
    )

    world.start_consumer()
    # A counter, not a transcript: the run reads back one tally (the
    # overload alarm) and keeps no per-command event.
    shared_log = ShellLog(level=LOG_RESULTS, max_events=0)
    for index in range(params.n_producers):
        name = f"producer-{index}"
        shell = SimFtsh(
            engine,
            registry,
            world=world,
            rng=streams.stream(name),
            policy=params.discipline.policy,
            name=name,
            log=shared_log,
            obs=obs,
        )
        stagger = streams.stream(f"stagger-{index}").uniform(0.0, 1.0)
        engine.process(
            _producer_loop(
                engine,
                shell,
                params.discipline,
                params,
                streams.stream(f"sizes-{index}"),
                stagger,
            ),
            name=name,
        )

    engine.run(until=params.duration)
    buffer = world.buffer
    return BufferResult(
        params=params,
        files_consumed=buffer.files_consumed.count,
        collisions=buffer.collisions.count,
        mb_consumed=buffer.mb_consumed,
        mb_written=buffer.mb_written,
        mb_wasted=buffer.mb_wasted,
        backoffs=shared_log.backoff_initiations(),
        free_series=free_series,
        reservations_denied=buffer.reservations_denied.count,
        alloc_wait_total=world.alloc_wait_total,
        consumed_series=buffer.files_consumed.series,
    )
