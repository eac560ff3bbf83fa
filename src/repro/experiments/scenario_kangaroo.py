"""End-to-end Kangaroo pipeline scenario: producers -> buffer -> WAN -> archive.

Extends scenario 2 with the second hop the paper mentions ("transmits
them off to a remote archive in a manner similar to that of Kangaroo"):
a wide-area link that suffers outages, and an uploader that applies its
own backoff.  The honest end-to-end metric is megabytes *delivered to
the archive* — thrash that only shows up as local disk traffic is
exposed here as lost delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..clients.base import Discipline
from ..clients.scripts import producer_script
from ..core.shell_log import LOG_RESULTS, ShellLog
from ..faults.injectors import FaultSpec, install_faults
from ..grid.archive import ArchiveUploader, WanConfig, WanLink
from ..grid.storage import BufferConfig, BufferWorld, register_buffer_commands
from ..obs.api import NULL_OBS
from ..obs.clock import engine_clock
from ..sim.engine import Engine
from ..sim.monitor import TimeSeries
from ..sim.rng import RandomStreams
from ..simruntime.registry import CommandRegistry
from ..simruntime.shell import SimFtsh


@dataclass(slots=True)
class KangarooParams:
    discipline: Discipline
    n_producers: int = 25
    duration: float = 300.0
    buffer: BufferConfig = field(default_factory=BufferConfig)
    wan: WanConfig = field(default_factory=WanConfig)
    seed: int = 2003
    #: Injected faults (wan-partition, enospc, slow-disk) for this world.
    faults: tuple[FaultSpec, ...] = ()
    #: Optional :class:`repro.obs.Observability` (see SubmitParams.obs).
    obs: Any = None


@dataclass(slots=True)
class KangarooResult:
    params: KangarooParams
    mb_delivered: float
    files_delivered: int
    collisions: int
    wan_outages: int
    broken_transfers: int
    upload_failures: int
    backlog_mb: float
    backoffs: int
    #: Cumulative files-delivered series (recovery/starvation analysis).
    delivered_series: TimeSeries = None  # type: ignore[assignment]


def run_kangaroo(params: KangarooParams) -> KangarooResult:
    """Run the two-hop pipeline and report end-to-end delivery."""
    streams = RandomStreams(params.seed)
    engine = Engine(streams=streams)
    obs = params.obs if params.obs is not None else NULL_OBS
    obs.set_clock(engine_clock(engine))
    world = BufferWorld(engine, params.buffer, obs=obs)
    registry = CommandRegistry()
    register_buffer_commands(registry, world)

    link = WanLink(engine, params.wan, rng=streams.stream("wan"))
    uploader = ArchiveUploader(world.buffer, link,
                               rng=streams.stream("uploader"))
    uploader.start()
    install_faults(engine, params.faults, streams=streams,
                   horizon=params.duration,
                   buffer=world.buffer, link=link)

    # A counter, not a transcript: the run reads back one tally (the
    # overload alarm) and keeps no per-command event.
    shared_log = ShellLog(level=LOG_RESULTS, max_events=0)
    # One text for every cycle of every producer (parsed and compiled
    # once); each cycle's size reaches it as the ``size_mb`` variable.
    script = producer_script(params.discipline, size_mb=None,
                             window=params.duration)

    def producer_loop(index: int):
        shell = SimFtsh(engine, registry, world=world,
                        rng=streams.stream(f"p{index}"),
                        policy=params.discipline.policy,
                        name=f"p{index}", log=shared_log, obs=obs)
        sizes = streams.stream(f"sizes-{index}")
        yield engine.timeout(streams.stream(f"stagger-{index}").uniform(0, 1))
        while engine.now < params.duration:
            size = sizes.uniform(params.buffer.file_min_mb,
                                 params.buffer.file_max_mb)
            process = shell.spawn(script, {"size_mb": f"{size:.6f}"},
                                  timeout=params.duration - engine.now)
            yield process

    for index in range(params.n_producers):
        engine.process(producer_loop(index), name=f"p{index}")
    engine.run(until=params.duration)

    return KangarooResult(
        params=params,
        mb_delivered=uploader.mb_delivered,
        files_delivered=uploader.files_delivered.count,
        collisions=world.buffer.collisions.count,
        wan_outages=link.outages.count,
        broken_transfers=link.broken_transfers.count,
        upload_failures=uploader.upload_failures.count,
        backlog_mb=world.buffer.used_mb,
        backoffs=shared_log.backoff_initiations(),
        delivered_series=uploader.files_delivered.series,
    )
