"""Injectors: attach fault schedules to substrates through narrow hooks.

Each injector knows one way a substrate can fail and drives it from a
:class:`~repro.faults.schedule.FaultSchedule`: ``apply`` at window start,
``restore`` at window end, running as an ordinary simulation process.
The substrates expose deliberately small hooks (``Schedd.crash``,
``FDTable.allocate``, ``SharedBuffer.seize``, ``DiskIO.slowdown``,
``FileServer.failing``, ``WanLink.fail``) so this module never reaches
into private state.

Injectors are resolved from :class:`FaultSpec` descriptions by
:func:`install_faults` through :data:`TARGETS`, one row per target:
the keyword naming the substrate it needs and the injector class.
Scenario harnesses pass whatever substrate objects their world actually
has — a spec naming a target the world cannot satisfy fails fast.
Severity is dimensionless in the schedule and concrete at the hook
(each class says what it means; docs/FAULTS.md §2 tabulates them).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from ..core.errors import SimulationError
from ..sim.monitor import Counter
from .config import validate_fraction, validate_probability
from .schedule import UNBOUNDED, FaultSchedule, FaultWindow, drive_schedule

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Engine


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One fault to install: a target name, a schedule, a severity.

    ``severity`` overrides the schedule's window severity when given
    (most campaign sweeps vary severity while keeping timing fixed).
    """

    target: str
    schedule: FaultSchedule
    severity: Optional[float] = None


class Injector:
    """Base: compiles a schedule into apply/restore against one target.

    ``name`` is the :data:`TARGETS` key (process and counter naming);
    ``target`` is the substrate the hook acts on, as
    :func:`install_faults` was given it.
    """

    #: Severity used when the spec gives none; ``None`` leaves the
    #: schedule's window severity in force.
    default_severity: Optional[float] = None

    def __init__(
        self,
        engine: Engine,
        name: str,
        target,
        schedule: FaultSchedule,
        rng: random.Random,
        severity: Optional[float] = None,
        horizon: float = UNBOUNDED,
    ) -> None:
        self.engine = engine
        self.name = name
        self.target = target
        self.schedule = schedule
        self.rng = rng
        self.severity = (severity if severity is not None
                         else self.default_severity)
        self.horizon = horizon
        #: Windows applied so far (scorecards read this after the run).
        self.windows_applied = Counter(engine, f"fault-{name}",
                                       keep_series=False)

    def start(self):
        """Spawn the driving process; idempotent use is the caller's job."""
        return self.engine.process(self._run(), name=f"fault:{self.name}")

    def _run(self):
        yield from drive_schedule(
            self.engine, self.schedule, self.rng,
            self._apply, self.restore, self.horizon,
        )

    def _apply(self, window: FaultWindow) -> None:
        if self.severity is not None:
            window = FaultWindow(window.start, window.duration, self.severity)
        self.windows_applied.increment()
        self.apply(window)

    # -- subclass surface ------------------------------------------------
    def apply(self, window: FaultWindow) -> None:
        raise NotImplementedError

    def restore(self, window: FaultWindow) -> None:
        """Default: nothing to undo (impulse faults like a forced crash)."""


class ScheddCrashInjector(Injector):
    """Force the schedd down at each window start (it restarts itself);
    severity is ignored.

    Models operational failures the FD feedback loop does not produce on
    its own: OOM kills, power loss, administrative restarts.
    """

    def apply(self, window: FaultWindow) -> None:
        if self.target.up:
            self.target.crash()


class FDSqueezeInjector(Injector):
    """Pin descriptors for the window — an external process gone wild.

    Takes ``min(severity, free)`` so the squeeze itself never raises; the
    *schedd's* next allocation is what fails, exactly the paper's "prosaic
    unmanaged resource" failure mode.
    """

    _held = 0

    def apply(self, window: FaultWindow) -> None:
        want = int(window.severity)
        got = min(want, self.target.free)
        if got > 0 and self.target.allocate(got):
            self._held = got

    def restore(self, window: FaultWindow) -> None:
        if self._held:
            self.target.release(self._held)
            self._held = 0


class EnospcInjector(Injector):
    """Seize ``severity`` buffer megabytes for the window — a neighbour
    filling the spool.  Producers see the shrunken free space through
    ``df`` and the Ethernet estimator alike."""

    _seized = 0.0

    def apply(self, window: FaultWindow) -> None:
        self._seized = self.target.seize(window.severity)

    def restore(self, window: FaultWindow) -> None:
        if self._seized > 0:
            self.target.release_seized(self._seized)
            self._seized = 0.0


class SlowDiskInjector(Injector):
    """Scale the buffer's disk IO time by the window severity."""

    def apply(self, window: FaultWindow) -> None:
        self.target.disk.slowdown = max(window.severity, 1.0)

    def restore(self, window: FaultWindow) -> None:
        self.target.disk.slowdown = 1.0


class HttpErrorInjector(Injector):
    """5xx bursts: servers reset transfers partway through the window.

    Severity is the fraction of the transfer served before the reset
    (default 0.5) — wasted time on the single service slot for data
    fetches, a near-instant failure for one-byte probes.  Black holes are
    left alone; they are already a worse failure.
    """

    default_severity = 0.5

    def apply(self, window: FaultWindow) -> None:
        fraction = validate_fraction(
            "http-5xx severity (reset fraction)", window.severity
        )
        for server in self.target:
            if not server.black_hole:
                server.failing = True
                server.reset_fraction = fraction

    def restore(self, window: FaultWindow) -> None:
        for server in self.target:
            if not server.black_hole:
                server.failing = False


class AcceptQueueInjector(Injector):
    """Park ``severity`` bogus connections on every server's accept queue.

    While the window is open the parked requests hold/queue on the
    single-threaded accept loop, so real clients wait behind phantoms —
    the saturation that makes carrier-sense probes pay off.
    """

    _held = ()

    def apply(self, window: FaultWindow) -> None:
        per_server = max(int(window.severity), 1)
        self._held = [(server, server.slot.request())
                      for server in self.target for _ in range(per_server)]

    def restore(self, window: FaultWindow) -> None:
        for server, request in self._held:
            server.slot.release(request)
        self._held = ()


class WanPartitionInjector(Injector):
    """Hard partitions of the wide-area link on a deterministic schedule.

    Replaces the link's own random weather (configure the link with
    outages disabled) so a campaign can place partitions exactly where it
    wants them.  Severity is ignored: the link is down for the window.
    """

    def apply(self, window: FaultWindow) -> None:
        self.target.fail("injected partition")

    def restore(self, window: FaultWindow) -> None:
        self.target.restore()


class WorkerFlakyInjector(Injector):
    """Set every worker's mid-job failure probability to the severity
    for the window."""

    _saved = ()

    def apply(self, window: FaultWindow) -> None:
        rate = validate_probability("worker-flaky severity", window.severity)
        workers = self.target.workers
        self._saved = [worker.failure_rate for worker in workers]
        for worker in workers:
            worker.failure_rate = rate

    def restore(self, window: FaultWindow) -> None:
        for worker, rate in zip(self.target.workers, self._saved):
            worker.failure_rate = rate
        self._saved = ()


#: Every fault target: the :func:`install_faults` keyword whose
#: substrate it acts on, and the injector that drives it.
TARGETS = {
    "schedd-crash": ("schedd", ScheddCrashInjector),
    "fd-squeeze": ("fdtable", FDSqueezeInjector),
    "enospc": ("buffer", EnospcInjector),
    "slow-disk": ("buffer", SlowDiskInjector),
    "http-5xx": ("servers", HttpErrorInjector),
    "accept-queue": ("servers", AcceptQueueInjector),
    "wan-partition": ("link", WanPartitionInjector),
    "worker-flaky": ("pool", WorkerFlakyInjector),
}


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

def install_faults(
    engine: Engine,
    specs: Sequence[FaultSpec],
    *,
    streams,
    horizon: float = UNBOUNDED,
    schedd=None,
    fdtable=None,
    buffer=None,
    servers: Optional[Iterable] = None,
    link=None,
    pool=None,
) -> list[Injector]:
    """Build and start one injector per spec against the given substrates.

    Scenario harnesses pass the substrate objects their world actually
    contains; a spec targeting something absent is a configuration error
    and raises immediately.  Each injector draws from its own named
    stream (``fault-<target>-<index>``) so fault timing never perturbs
    client behaviour.  Returns the started injectors (their
    ``windows_applied`` counters are useful post-run).
    """
    substrates = {
        "schedd": schedd, "fdtable": fdtable, "buffer": buffer,
        "servers": None if servers is None else tuple(servers),
        "link": link, "pool": pool,
    }
    injectors: list[Injector] = []
    for index, spec in enumerate(specs):
        if spec.target not in TARGETS:
            raise SimulationError(
                f"fault target must be one of {sorted(TARGETS)}, "
                f"got {spec.target!r}"
            )
        keyword, injector_class = TARGETS[spec.target]
        substrate = substrates[keyword]
        if substrate is None:
            raise SimulationError(
                f"fault target {spec.target!r} is not available in this "
                "scenario (no matching substrate)"
            )
        rng = streams.stream(f"fault-{spec.target}-{index}")
        injector = injector_class(engine, spec.target, substrate,
                                  spec.schedule, rng, spec.severity, horizon)
        injector.start()
        injectors.append(injector)
    return injectors
