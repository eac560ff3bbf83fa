"""A Condor-like job submission substrate (paper scenario 1, Figures 1-3).

The paper submitted jobs from hundreds of clients to one Condor *schedd*
and discovered the binding resource was the kernel file-descriptor table:
clients' connections each pin descriptors; when the schedd itself cannot
allocate descriptors it crashes, dropping every connection at once (the
"broadcast jam"), then restarts.

We model exactly that feedback loop:

* a **connection** pins :attr:`CondorConfig.fds_per_connection` FDs from
  connect until completion/abort;
* the schedd serves at most :attr:`CondorConfig.service_concurrency`
  submissions at once (FIFO), each taking
  ``base_service_time * (1 + open_connections / degradation_connections)``
  — CPU contention from many open connections slows everyone, which is
  why even polite clients only reach ~50% of peak under heavy load
  (paper §5, Figure 1 commentary);
* committing a job makes the schedd transiently allocate
  :attr:`CondorConfig.commit_fds` descriptors; if that allocation fails
  the schedd **crashes**: every live connection dies, the FD table
  springs back to near-empty (the upward spikes in Figure 2), and the
  schedd is down for :attr:`CondorConfig.restart_delay` seconds.

The ftsh-visible commands (``condor_submit``, the carrier-sense ``cut
-f2 /proc/sys/fs/file-nr``) are registered by
:func:`register_condor_commands`, so the scripts in
:mod:`repro.clients.scripts` read exactly like the paper's listings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from ..obs.api import NULL_OBS
from ..sim.engine import Engine
from ..sim.events import Interrupt
from ..sim.monitor import Counter
from ..sim.process import Process
from ..sim.resources import Request, Resource
from ..simruntime.registry import CommandContext, CommandRegistry, Quick
from .fdtable import FDTable


@dataclass(frozen=True, slots=True)
class CondorConfig:
    """Tunables for the submission scenario (defaults give the paper's shapes)."""

    fd_capacity: int = 8192
    fds_per_connection: int = 20
    commit_fds: int = 64
    connect_setup_time: float = 0.5
    service_concurrency: int = 10
    base_service_time: float = 3.0
    degradation_connections: int = 300
    refusal_latency: float = 1.0
    emfile_latency: float = 0.5
    restart_delay: float = 60.0
    #: The schedd's own periodic descriptor demand (matchmaking sockets,
    #: log rotation, queue checkpoints).  When the table is pinned by
    #: client connections this allocation fails and the schedd crashes —
    #: the paper's "schedd itself failing when it cannot allocate enough
    #: FDs".
    maintenance_fds: int = 256
    maintenance_interval: float = 5.0
    maintenance_duration: float = 1.0


class Connection:
    """One client's open submission connection."""

    __slots__ = ("id", "process", "fds", "request")

    def __init__(self, conn_id: int, process: Process, fds: int) -> None:
        self.id = conn_id
        self.process = process
        self.fds = fds
        self.request: Optional[Request] = None


class Schedd:
    """The submission agent: persistent queue manager for a grid user."""

    def __init__(
        self,
        engine: Engine,
        fdtable: FDTable,
        config: CondorConfig,
        obs: Any = None,
    ) -> None:
        self.engine = engine
        self.fdtable = fdtable
        self.config = config
        self.up = True
        self.service = Resource(engine, capacity=config.service_concurrency)
        self.connections: dict[int, Connection] = {}
        self._conn_ids = itertools.count(1)
        self.jobs_submitted = Counter(engine, "jobs-submitted")
        self.crashes = Counter(engine, "schedd-crashes", keep_series=False)
        self.refused = Counter(engine, "connections-refused", keep_series=False)
        self.emfile = Counter(engine, "emfile-failures", keep_series=False)
        #: Telemetry: the counters above, read at export, and live gauges.
        self.obs = obs if obs is not None else NULL_OBS
        metrics = self.obs.metrics
        metrics.counter(
            "grid_jobs_submitted_total", "jobs committed by the schedd"
        ).set_function(lambda: self.jobs_submitted.count)
        metrics.counter(
            "grid_schedd_crashes_total", "schedd crashes from FD starvation"
        ).set_function(lambda: self.crashes.count)
        metrics.counter(
            "grid_connections_refused_total", "submissions refused while down"
        ).set_function(lambda: self.refused.count)
        metrics.counter(
            "grid_emfile_failures_total", "connections denied by a full FD table"
        ).set_function(lambda: self.emfile.count)
        metrics.gauge(
            "grid_fds_free", "free descriptors in the kernel table"
        ).set_function(lambda: float(self.fdtable.free))
        metrics.gauge(
            "grid_connections_open", "open submission connections"
        ).set_function(lambda: float(len(self.connections)))
        metrics.gauge(
            "grid_schedd_up", "1 while the schedd is serving, 0 while down"
        ).set_function(lambda: 1.0 if self.up else 0.0)
        engine.process(self._maintenance(), name="schedd-maintenance")

    def _maintenance(self):
        """Periodic housekeeping needing descriptors; starvation crashes us."""
        config = self.config
        while True:
            yield self.engine.timeout(config.maintenance_interval)
            if not self.up:
                continue
            if not self.fdtable.allocate(config.maintenance_fds):
                self.crash()
                continue
            yield self.engine.timeout(config.maintenance_duration)
            self.fdtable.release(config.maintenance_fds)

    # ------------------------------------------------------------------
    def open_connection(self, process: Process) -> Optional[Connection]:
        """Try to establish a connection for ``process``.

        Returns None if the FD table cannot supply the connection's
        descriptors (EMFILE).  Caller must eventually
        :meth:`close_connection`.
        """
        if not self.fdtable.allocate(self.config.fds_per_connection):
            self._count_emfile()
            return None
        connection = Connection(next(self._conn_ids), process, self.config.fds_per_connection)
        self.connections[connection.id] = connection
        return connection

    def refuses_connection(self) -> bool:
        """EMFILE without claiming anything: True, counted as a failed
        :meth:`open_connection`, if a connection would not fit now."""
        if not self.fdtable.refuses(self.config.fds_per_connection):
            return False
        self._count_emfile()
        return True

    def _count_emfile(self) -> None:
        self.emfile.increment()

    def count_refusal(self) -> None:
        """A submission turned away while the schedd is down."""
        self.refused.increment()

    def close_connection(self, connection: Connection) -> None:
        """Release everything the connection holds; idempotent."""
        if self.connections.pop(connection.id, None) is None:
            return
        if connection.request is not None:
            self.service.release(connection.request)
            connection.request = None
        self.fdtable.release(connection.fds)

    def service_time(self) -> float:
        """Per-job service time at the current connection load."""
        load = len(self.connections) / self.config.degradation_connections
        return self.config.base_service_time * (1.0 + load)

    # ------------------------------------------------------------------
    def crash(self, culprit: Optional[Connection] = None) -> None:
        """FD starvation: drop every connection and go down for a while.

        ``culprit`` (the connection whose commit failed) is cleaned up by
        its own caller, not interrupted — a process cannot interrupt
        itself.
        """
        self.up = False
        self.crashes.increment()
        victims = [
            connection
            for connection in list(self.connections.values())
            if culprit is None or connection.id != culprit.id
        ]
        for connection in victims:
            # The client's handler catches Interrupt, closes its own
            # connection, and reports failure — "causing all of its
            # connected clients to fail and backoff" (paper §5).
            if connection.process.is_alive:
                connection.process.interrupt("schedd crashed")
            else:  # pragma: no cover - defensive: stale entry
                self.close_connection(connection)
        self.engine.process(self._restart(), name="schedd-restart")

    def _restart(self):
        yield self.engine.timeout(self.config.restart_delay)
        self.up = True


class CondorWorld:
    """Everything scenario 1 shares: engine, FD table, schedd."""

    def __init__(
        self,
        engine: Engine,
        config: CondorConfig | None = None,
        obs: Any = None,
    ) -> None:
        self.engine = engine
        self.config = config or CondorConfig()
        self.obs = obs if obs is not None else NULL_OBS
        self.fdtable = FDTable(engine, self.config.fd_capacity)
        self.schedd = Schedd(engine, self.fdtable, self.config, obs=self.obs)


def register_condor_commands(registry: CommandRegistry, world: CondorWorld) -> None:
    """Register ``condor_submit`` and the FD carrier-sense probe."""

    config = world.config
    engine = world.engine
    schedd = world.schedd

    @registry.register("condor_submit")
    def condor_submit(ctx: CommandContext):
        """Submit one job.  Refused while the schedd is down, EMFILE when
        a connection would not fit: each is a timer, then 1."""
        if not schedd.up:
            schedd.count_refusal()
            return Quick(config.refusal_latency, 1)
        if schedd.refuses_connection():
            return Quick(config.emfile_latency, 1)
        return submit()

    def submit():
        """Connect, queue for the schedd, transfer, commit — after the
        same two checks again, for state that changed in the bootstrap
        hop between them and this process' start."""
        if not schedd.up:
            schedd.count_refusal()
            yield engine.timeout(config.refusal_latency)
            return 1

        process = engine.active_process
        connection = schedd.open_connection(process)
        if connection is None:
            yield engine.timeout(config.emfile_latency)
            return 1

        commit_held = 0
        try:
            yield engine.timeout(config.connect_setup_time)
            if not schedd.up:  # crashed while we were in TCP setup
                return 1
            connection.request = schedd.service.request()
            yield connection.request
            # In service: the schedd commits the job, which needs its own
            # descriptors.  Failure here is *schedd* failure, not ours.
            if not world.fdtable.allocate(config.commit_fds):
                schedd.crash(culprit=connection)
                return 1
            commit_held = config.commit_fds
            yield engine.timeout(schedd.service_time())
            schedd.jobs_submitted.increment()
            return 0
        except Interrupt:
            # Schedd crash, client deadline kill, or scenario teardown.
            return 1
        finally:
            if commit_held:
                world.fdtable.release(commit_held)
            schedd.close_connection(connection)

    @registry.register("cut")
    def cut(ctx: CommandContext):
        """The paper's carrier probe: ``cut -f2 /proc/sys/fs/file-nr``.

        file-nr's second field is the number of *free* descriptors.
        Other argument patterns are not simulated.
        """
        if ctx.args == ["-f2", "/proc/sys/fs/file-nr"]:
            return 0, f"{world.fdtable.free}\n"
        return 1, ""
        yield  # pragma: no cover - generator marker
