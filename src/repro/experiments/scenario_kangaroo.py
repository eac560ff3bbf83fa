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
from ..faults.injectors import FaultSpec
from ..grid.archive import ArchiveUploader, WanConfig, WanLink
from ..grid.storage import BufferConfig, BufferWorld, register_buffer_commands
from ..sim.monitor import TimeSeries
from .population import Population


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
    population = Population(params.seed, params.obs)
    world = BufferWorld(population.engine, params.buffer, obs=population.obs)
    register_buffer_commands(population.registry, world)

    streams = population.streams
    link = WanLink(population.engine, params.wan, rng=streams.stream("wan"))
    uploader = ArchiveUploader(world.buffer, link,
                               rng=streams.stream("uploader"))
    uploader.start()
    population.install_faults(params.faults, params.duration,
                              buffer=world.buffer, link=link)

    script = producer_script(params.discipline, size_mb=None,
                             window=params.duration)
    backoffs = population.run(
        params.n_producers, "p{}", world, params.discipline.policy,
        population.sized(script, params.buffer), params.duration)

    return KangarooResult(
        params=params,
        mb_delivered=uploader.mb_delivered,
        files_delivered=uploader.files_delivered.count,
        collisions=world.buffer.collisions.count,
        wan_outages=link.outages.count,
        broken_transfers=link.broken_transfers.count,
        upload_failures=uploader.upload_failures.count,
        backlog_mb=world.buffer.used_mb,
        backoffs=backoffs,
        delivered_series=uploader.files_delivered.series,
    )
