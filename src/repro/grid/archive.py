"""The Kangaroo stage: moving buffered output to a remote archive.

Scenario 2's consumer "collects the outputs and transmits them off to a
remote archive in a manner similar to that of Kangaroo" (paper §5,
citing Thain et al., HPDC 2001).  This module models that second hop:

* a :class:`WanLink` with limited bandwidth and scheduled/random
  **outages** — the wide-area failures Kangaroo exists to absorb;
* an :class:`ArchiveUploader` that drains completed files from the
  shared buffer and pushes them over the link, applying its *own*
  Ethernet-style backoff when the WAN fails mid-transfer.

The buffer becomes what Kangaroo calls a hop: during an outage it fills
and producers feel ENOSPC backpressure; when the link returns, the
uploader works the backlog off.  End-to-end delivered megabytes — not
local buffer throughput — is the honest metric of the whole pipeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..core.backoff import BackoffPolicy, BackoffState, PAPER_POLICY
from ..faults.config import validate_positive
from ..faults.schedule import FaultSchedule, PoissonOutage, drive_schedule
from ..sim.engine import Engine
from ..sim.events import Interrupt
from ..sim.monitor import Counter
from .storage import SharedBuffer


@dataclass(frozen=True, slots=True)
class WanConfig:
    """Wide-area link parameters."""

    bandwidth_mb_s: float = 2.0
    #: Mean seconds between outages (exponential); 0 disables outages.
    mean_time_between_outages: float = 120.0
    #: Mean outage duration (exponential).
    mean_outage_duration: float = 30.0


class WanLink:
    """A lossy wide-area link: up/down state driven by a failure process.

    A transfer in progress when the link drops **fails** (the uploader
    sees it and must retry); the partial upload is wasted WAN time, like
    a TCP connection reset mid-stream.
    """

    def __init__(
        self,
        engine: Engine,
        config: WanConfig | None = None,
        rng: Optional[random.Random] = None,
        outages_schedule: Optional[FaultSchedule] = None,
    ) -> None:
        self.engine = engine
        self.config = config or WanConfig()
        validate_positive("wan bandwidth_mb_s", self.config.bandwidth_mb_s)
        self.rng = rng if rng is not None else engine.streams.stream("wan")
        self.up = True
        self.outages = Counter(engine, "wan-outages", keep_series=False)
        #: Transfers the link killed mid-stream.
        self.broken_transfers = Counter(engine, "wan-broken", keep_series=False)
        self._active: list = []  # processes currently transferring
        #: The weather: by default the memoryless outage process the
        #: config describes, now expressed as a standard fault schedule.
        #: Pass ``outages_schedule`` to pin outages deterministically, or
        #: set ``mean_time_between_outages=0`` and drive the link from a
        #: :class:`repro.faults.injectors.WanPartitionInjector` instead.
        if outages_schedule is None and self.config.mean_time_between_outages > 0:
            outages_schedule = PoissonOutage(
                self.config.mean_time_between_outages,
                self.config.mean_outage_duration,
            )
        if outages_schedule is not None:
            engine.process(
                drive_schedule(
                    engine, outages_schedule, self.rng,
                    lambda window: self.fail("wan outage"),
                    lambda window: self.restore(),
                ),
                name="wan-weather",
            )

    # -- failure hooks (also the injector surface) ----------------------
    def fail(self, cause: str = "wan outage") -> None:
        """Take the link down, killing transfers in flight; idempotent."""
        if not self.up:
            return
        self.up = False
        self.outages.increment()
        for process in list(self._active):
            if process.is_alive:
                process.interrupt(cause)

    def restore(self) -> None:
        """Bring the link back up; idempotent."""
        self.up = True

    def transfer(self, mb: float):
        """Move ``mb`` across the link; raises Interrupt on outage
        (caller catches), returns False immediately if the link is down."""
        if not self.up:
            return False
        process = self.engine.active_process
        self._active.append(process)
        try:
            yield self.engine.timeout(mb / self.config.bandwidth_mb_s)
            return True
        except Interrupt:
            self.broken_transfers.increment()
            raise
        finally:
            self._active.remove(process)


class ArchiveUploader:
    """Drains the buffer's completed files over the WAN with backoff.

    This is the consumer of scenario 2 grown up: reading the local file
    still costs disk bandwidth (shared with the producers), and the
    remote push can fail — in which case the file *stays in the buffer*
    (Kangaroo's reliability guarantee) and the uploader backs off.
    """

    def __init__(
        self,
        buffer: SharedBuffer,
        link: WanLink,
        policy: BackoffPolicy = PAPER_POLICY,
        rng: Optional[random.Random] = None,
        poll: float = 0.25,
    ) -> None:
        self.buffer = buffer
        self.link = link
        self.policy = policy
        self.engine = buffer.engine
        self.rng = (rng if rng is not None
                    else self.engine.streams.stream("archive-uploader"))
        self.poll = poll
        self.mb_delivered = 0.0
        self.files_delivered = Counter(self.engine, "files-delivered")
        self.upload_failures = Counter(self.engine, "upload-failures",
                                       keep_series=False)

    def start(self):
        return self.engine.process(self._run(), name="archive-uploader")

    def _run(self):
        backoff = BackoffState(self.policy)
        while True:
            entry = self.buffer.oldest_done()
            if entry is None:
                yield self.engine.timeout(self.poll)
                continue
            # Read the file locally (shares the disk with producers).
            remaining = entry.size_mb
            while remaining > 1e-12:
                chunk = min(self.buffer.config.write_chunk_mb, remaining)
                yield from self.buffer.disk.io(chunk)
                remaining -= chunk
            # Push it over the WAN.
            try:
                sent = yield from self.link.transfer(entry.size_mb)
            except Interrupt:
                sent = False
            if sent:
                backoff.reset()
                self.mb_delivered += entry.size_mb
                self.buffer.mb_consumed += entry.size_mb
                self.buffer.delete(entry)
                self.buffer.files_consumed.increment()
                self.files_delivered.increment()
            else:
                # The file stays buffered; wait out the weather politely.
                self.upload_failures.increment()
                yield self.engine.timeout(backoff.next_delay(self.rng.random))
