"""A shared filesystem output buffer (paper scenario 2, Figures 4-5).

Producers running in a remote cluster drop output files of unknown size
into a 120 MB shared buffer; a consumer drains completed files at
1 MB/s and deletes them (a Kangaroo-style staging spool).  A write that
hits ENOSPC mid-file deletes its partial output — a **collision** — and
the client applies its retry discipline.

The Ethernet client's carrier sense is the paper's estimator:

    "the Ethernet client assumes the incomplete items in the buffer will
    be the same size as the average of the complete files, and subtracts
    that from the free disk space reported by the file system."

Files are written in chunks, so two producers can interleave and race
the remaining space — collisions are a real concurrency outcome here,
not a coin flip.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from ..core.errors import SimulationError
from ..faults.config import validate_non_negative, validate_positive
from ..obs.api import NULL_OBS
from ..sim.engine import Engine
from ..sim.events import Interrupt
from ..sim.monitor import Counter, TimeSeries
from ..sim.resources import Resource
from ..simruntime.registry import CommandContext, CommandRegistry, Quick, at_once


@dataclass(frozen=True, slots=True)
class BufferConfig:
    """Scenario tunables (paper values where the paper gives them)."""

    capacity_mb: float = 120.0
    consumer_rate_mb_s: float = 1.0       # paper: reads at 1 MB/s
    disk_rate_mb_s: float = 5.0           # the file server's total IO bandwidth
    file_min_mb: float = 0.0              # paper: size random in 0-1 MB
    file_max_mb: float = 1.0
    production_time: float = 1.0          # paper: one file every second
    write_chunk_mb: float = 0.125         # IO granularity (space claims + disk ops)
    consumer_poll: float = 0.25           # idle consumer re-check period
    open_overhead: float = 0.05           # per-attempt create/delete cost
    #: Service time of one reservation RPC at the allocation server
    #: (NeST/SRB/SRM-style space allocation, paper §5 discussion).
    alloc_rpc_time: float = 0.5


@dataclass(slots=True)
class BufferFile:
    """One file in the buffer."""

    name: str
    size_mb: float = 0.0
    goal_mb: float = 0.0
    complete: bool = False


class DiskIO:
    """The file server's IO path: chunk-granular round-robin sharing.

    Every read or write moves through one queue at
    :attr:`BufferConfig.disk_rate_mb_s` total; with N active streams each
    gets roughly a 1/N share.  This is the resource that write-thrash
    actually burns: bandwidth spent on partial files that will be deleted
    is bandwidth the consumer never gets (the mechanism behind Figure 4's
    collapse of the fixed and Aloha lines).
    """

    def __init__(self, engine: Engine, rate_mb_s: float) -> None:
        validate_positive("disk rate_mb_s", rate_mb_s)
        self.engine = engine
        self.rate_mb_s = rate_mb_s
        #: Degradation hook: IO takes ``slowdown`` times longer while a
        #: :class:`repro.faults.injectors.SlowDiskInjector` window is open.
        self.slowdown = 1.0
        self._queue = Resource(engine, capacity=1)

    def io(self, mb: float):
        """Transfer ``mb`` through the disk (one queued chunk op)."""
        request = self._queue.request()
        try:
            yield request
            yield self.engine.timeout(mb / self.rate_mb_s * self.slowdown)
        finally:
            self._queue.release(request)


class SharedBuffer:
    """The 120 MB spool directory, with atomic-rename completion."""

    def __init__(
        self,
        engine: Engine,
        config: BufferConfig | None = None,
        obs: Any = None,
    ) -> None:
        self.engine = engine
        self.config = config or BufferConfig()
        self.disk = DiskIO(engine, self.config.disk_rate_mb_s)
        self.files: dict[str, BufferFile] = {}
        self._used = 0.0
        #: Space taken by a fault injector (a noisy neighbour filling the
        #: spool); counts against capacity exactly like written bytes.
        self.seized_mb = 0.0
        self._done_order: list[str] = []
        self.collisions = Counter(engine, "collisions", keep_series=False)
        self.files_consumed = Counter(engine, "files-consumed")
        self.mb_consumed = 0.0
        self.mb_written = 0.0
        self.mb_wasted = 0.0  # partial bytes deleted on collision
        self.free_series: Optional[TimeSeries] = None
        self._names = itertools.count(1)
        #: client -> reserved-but-unwritten megabytes (counted in _used).
        self.reservations: dict[str, float] = {}
        self.reservations_made = Counter(engine, "reservations",
                                         keep_series=False)
        self.reservations_denied = Counter(engine, "reservations-denied",
                                           keep_series=False)
        #: Telemetry: the counters above, read at export, and live gauges.
        self.obs = obs if obs is not None else NULL_OBS
        metrics = self.obs.metrics
        metrics.counter(
            "grid_buffer_collisions_total", "partial files deleted on ENOSPC"
        ).set_function(lambda: self.collisions.count)
        metrics.counter(
            "grid_buffer_files_consumed_total", "files drained by the consumer"
        ).set_function(lambda: self.files_consumed.count)
        metrics.counter(
            "grid_buffer_reservations_total", "space reservations granted"
        ).set_function(lambda: self.reservations_made.count)
        metrics.counter(
            "grid_buffer_reservations_denied_total", "space reservations denied"
        ).set_function(lambda: self.reservations_denied.count)
        metrics.gauge(
            "grid_buffer_free_mb", "raw free space in the shared buffer"
        ).set_function(lambda: self.free_mb)
        metrics.gauge(
            "grid_buffer_files", "files (complete + partial) in the buffer"
        ).set_function(lambda: float(len(self.files)))

    # -- filesystem-visible state ---------------------------------------
    @property
    def used_mb(self) -> float:
        return self._used

    @property
    def free_mb(self) -> float:
        """What ``df`` reports: raw free space, partial files included."""
        return self.config.capacity_mb - self._used - self.seized_mb

    def incomplete_count(self) -> int:
        return sum(1 for f in self.files.values() if not f.complete)

    def complete_sizes(self) -> list[float]:
        return [f.goal_mb for f in self.files.values() if f.complete]

    def estimate_free_mb(self) -> float:
        """The Ethernet client's carrier sense, exactly as the paper states:

            "the Ethernet client assumes the incomplete items in the
            buffer will be the same size as the average of the complete
            files, and subtracts that from the free disk space reported
            by the file system."

        One full average is subtracted per incomplete item (deliberately
        conservative: the partially-written bytes are also still counted
        in ``used``).  With no completed files to average, fall back to
        the expected file size (uniform 0-1 MB -> 0.5 MB).
        """
        done = self.complete_sizes()
        average = sum(done) / len(done) if done else (
            (self.config.file_min_mb + self.config.file_max_mb) / 2.0
        )
        return self.free_mb - self.incomplete_count() * average

    # -- writer API -------------------------------------------------------
    def create(self, goal_mb: float) -> BufferFile:
        name = f"out.{next(self._names)}"
        entry = BufferFile(name=name, goal_mb=goal_mb)
        self.files[name] = entry
        return entry

    def grow(self, entry: BufferFile, chunk_mb: float) -> bool:
        """Append ``chunk_mb``; False = ENOSPC (caller must delete)."""
        if entry.name not in self.files:
            raise SimulationError(f"grow() on deleted file {entry.name}")
        if self._used + self.seized_mb + chunk_mb > self.config.capacity_mb:
            return False
        self._used += chunk_mb
        entry.size_mb += chunk_mb
        self.mb_written += chunk_mb
        self._note()
        return True

    def finish(self, entry: BufferFile) -> None:
        """Atomic rename to ``x.done`` — the consumer may now take it."""
        entry.complete = True
        self._done_order.append(entry.name)

    def delete(self, entry: BufferFile, collided: bool = False) -> None:
        """Remove a (possibly partial) file, freeing its bytes."""
        if self.files.pop(entry.name, None) is None:
            return
        # Clamp: repeated float adds/subtracts can drift a hair below zero.
        self._used = max(self._used - entry.size_mb, 0.0)
        if collided:
            self.collisions.increment()
            self.mb_wasted += entry.size_mb
        if entry.complete and entry.name in self._done_order:
            self._done_order.remove(entry.name)
        self._note()

    # -- reservation API (NeST/SRB/SRM-style allocation, paper §5) ----------
    def reserve_space(self, client: str, mb: float) -> bool:
        """Atomically set aside ``mb`` for ``client``; False if it won't fit.

        Reserved space counts as used immediately — that is the whole
        point of a reservation: nobody else can take it.
        """
        validate_non_negative("reservation mb", mb)
        if self._used + self.seized_mb + mb > self.config.capacity_mb:
            self.reservations_denied.increment()
            return False
        self._used += mb
        self.reservations[client] = self.reservations.get(client, 0.0) + mb
        self.reservations_made.increment()
        self._note()
        return True

    def write_reserved(self, client: str, entry: BufferFile, chunk_mb: float) -> bool:
        """Move ``chunk_mb`` from the client's reservation into ``entry``.

        Cannot hit ENOSPC — the space was committed at reservation time.
        Returns False only if the reservation is too small (caller bug or
        under-reservation)."""
        held = self.reservations.get(client, 0.0)
        if held + 1e-9 < chunk_mb:
            return False
        self.reservations[client] = held - chunk_mb
        entry.size_mb += chunk_mb
        self.mb_written += chunk_mb
        return True

    def release_reservation(self, client: str) -> None:
        """Return a client's unwritten reservation to the free pool."""
        held = self.reservations.pop(client, 0.0)
        if held > 0:
            self._used = max(self._used - held, 0.0)
            self._note()

    # -- fault hooks (ENOSPC pressure from outside the scenario) ------------
    def seize(self, mb: float) -> float:
        """Take up to ``mb`` off the free pool; returns what was taken.

        The hook behind :class:`repro.faults.injectors.EnospcInjector`:
        clamped to the currently free space so seizing never corrupts
        accounting, and visible to ``df`` and the Ethernet estimator
        exactly like any other resident bytes.
        """
        taken = min(max(self.free_mb, 0.0), max(mb, 0.0))
        self.seized_mb += taken
        self._note()
        return taken

    def release_seized(self, mb: float) -> None:
        """Return previously seized space to the free pool."""
        self.seized_mb = max(self.seized_mb - mb, 0.0)
        self._note()

    # -- consumer API -------------------------------------------------------
    def oldest_done(self) -> Optional[BufferFile]:
        while self._done_order:
            name = self._done_order[0]
            entry = self.files.get(name)
            if entry is not None:
                return entry
            self._done_order.pop(0)  # pragma: no cover - defensive
        return None

    def _note(self) -> None:
        if self.free_series is not None:
            self.free_series.record(self.engine.now, self.free_mb)


def consumer_process(buffer: SharedBuffer):
    """The draining process: oldest ``.done`` file, 1 MB/s, then delete."""
    config = buffer.config
    engine = buffer.engine
    while True:
        entry = buffer.oldest_done()
        if entry is None:
            yield engine.timeout(config.consumer_poll)
            continue
        remaining = entry.size_mb
        while remaining > 1e-12:
            chunk = min(config.write_chunk_mb, remaining)
            started = engine.now
            yield from buffer.disk.io(chunk)
            # Pace to the consumer's own 1 MB/s ceiling: the disk may be
            # faster than the paper's drain rate when uncontended.
            pace = chunk / config.consumer_rate_mb_s - (engine.now - started)
            if pace > 0:
                yield engine.timeout(pace)
            remaining -= chunk
        buffer.mb_consumed += entry.size_mb
        buffer.delete(entry)
        buffer.files_consumed.increment()


class BufferWorld:
    """Scenario 2's shared state, plus per-client pending file sizes."""

    def __init__(
        self,
        engine: Engine,
        config: BufferConfig | None = None,
        obs: Any = None,
    ) -> None:
        self.engine = engine
        self.config = config or BufferConfig()
        self.obs = obs if obs is not None else NULL_OBS
        self.buffer = SharedBuffer(engine, self.config, obs=self.obs)
        #: The allocation server: one reservation RPC at a time — "the
        #: actual process of allocation itself may be subject to
        #: contention" (paper §5).
        self.alloc_server = Resource(engine, capacity=1)
        #: Cumulative time producers spent queued for the allocator.
        self.alloc_wait_total = 0.0
        #: client name -> size of the output it produced and wants stored.
        self.pending_outputs: dict[str, float] = {}

    def start_consumer(self) -> None:
        self.engine.process(consumer_process(self.buffer), name="consumer")


def register_buffer_commands(registry: CommandRegistry, world: BufferWorld) -> None:
    """ftsh-visible commands for the producer scripts.

    * ``produce_output <size_mb>`` — spend production time creating the
      job's output (the size is decided by the harness per cycle).
    * ``store_output`` — write the pending output into the buffer in
      chunks; ENOSPC deletes the partial file and exits 1 (a collision).
    * ``df_estimate`` — Ethernet carrier sense; prints the estimated
      usable space (may be negative).
    * ``df_free`` — raw free space, for comparison/ablation.
    """

    engine = world.engine
    buffer = world.buffer
    config = world.config

    @registry.register("produce_output")
    def produce_output(ctx: CommandContext):
        size = float(ctx.args[0])
        if size < 0:
            return at_once(1)
        client = ctx.client

        def produced():
            world.pending_outputs[client] = size
            return 0

        return Quick(config.production_time, produced)

    @registry.register("store_output")
    def store_output(ctx: CommandContext):
        """The open, then the first chunk's space claim, are a timer and
        what follows it; only a store that gets past them writes as a
        process."""
        size = world.pending_outputs.get(ctx.client)
        if size is None:
            return at_once(1)  # nothing produced yet: script bug, fail fast
        client = ctx.client

        def opened():
            entry = buffer.create(goal_mb=size)
            if size <= 1e-12:
                return stored(client, entry)
            chunk = claim(entry, size)
            if chunk is None:
                return 1
            return write(client, entry, chunk, size - chunk)

        return Quick(config.open_overhead, opened)

    def claim(entry, remaining: float) -> Optional[float]:
        """Grow ``entry`` by its next chunk and return the chunk; on
        ENOSPC delete the partial file (a collision) and return None."""
        chunk = min(config.write_chunk_mb, remaining)
        if buffer.grow(entry, chunk):
            return chunk
        buffer.delete(entry, collided=True)
        return None

    def stored(client: str, entry) -> int:
        buffer.finish(entry)
        world.pending_outputs.pop(client, None)
        return 0

    def write(client: str, entry, chunk: float, remaining: float):
        """Move each claimed chunk through the disk, claiming the next
        after it, until ``remaining`` is written."""
        try:
            while True:
                yield from buffer.disk.io(chunk)
                if remaining <= 1e-12:
                    return stored(client, entry)
                chunk = claim(entry, remaining)
                if chunk is None:
                    return 1
                remaining -= chunk
        except Interrupt:
            # Deadline kill mid-write: the partial file is deleted by the
            # retry logic in the paper's setup ("If the output cannot be
            # written, it is deleted").
            buffer.delete(entry, collided=True)
            return 1

    @registry.register("reserve_output")
    def reserve_output(ctx: CommandContext):
        """NeST-style space allocation: queue for the allocator, reserve."""
        size = world.pending_outputs.get(ctx.client)
        if size is None:
            return 1
        request = world.alloc_server.request()
        queued_at = engine.now
        try:
            yield request
            world.alloc_wait_total += engine.now - queued_at
            yield engine.timeout(config.alloc_rpc_time)
            return 0 if buffer.reserve_space(ctx.client, size) else 1
        except Interrupt:
            return 1
        finally:
            world.alloc_server.release(request)

    @registry.register("store_reserved")
    def store_reserved(ctx: CommandContext):
        """Write the pending output into space reserved beforehand."""
        size = world.pending_outputs.get(ctx.client)
        if size is None:
            return 1
        if buffer.reservations.get(ctx.client, 0.0) + 1e-9 < size:
            return 1  # no (or insufficient) reservation
        yield engine.timeout(config.open_overhead)
        entry = buffer.create(goal_mb=0.0)
        entry.goal_mb = size
        try:
            remaining = size
            while remaining > 1e-12:
                chunk = min(config.write_chunk_mb, remaining)
                if not buffer.write_reserved(ctx.client, entry, chunk):
                    buffer.delete(entry, collided=True)
                    buffer.release_reservation(ctx.client)
                    return 1  # pragma: no cover - guarded above
                remaining -= chunk
                yield from buffer.disk.io(chunk)
            buffer.finish(entry)
            world.pending_outputs.pop(ctx.client, None)
            buffer.release_reservation(ctx.client)  # rounding leftovers
            return 0
        except Interrupt:
            buffer.delete(entry, collided=True)
            buffer.release_reservation(ctx.client)
            return 1

    @registry.register("df_estimate")
    def df_estimate(ctx: CommandContext):
        return 0, f"{buffer.estimate_free_mb():.6f}\n"
        yield  # pragma: no cover - generator marker

    @registry.register("df_free")
    def df_free(ctx: CommandContext):
        return 0, f"{buffer.free_mb:.6f}\n"
        yield  # pragma: no cover - generator marker
