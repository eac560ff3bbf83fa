"""Replicated single-threaded file servers, one of them a black hole
(paper scenario 3, Figures 6-7).

"Black holes are services that endlessly block or terminate any
interacting client process."  The paper's setup: three web servers
replicate a read-only file service; each is single-threaded (one client
transfers at a time); one *accepts connections but never sends data*.
Clients read a 100 MB file (~10 s at full rate), choosing a server at
random per attempt.

The Aloha client bounds each fetch with a 60 s ``try``; a black-hole
visit costs the full 60 s (a **collision**).  The Ethernet client first
fetches a well-known one-byte flag file under a 5 s ``try`` — a cheap
carrier sense: if the probe stalls, the ``forany`` moves on (a
**deferral**) without ever committing 60 s.

Accounting lives in the server handlers so it is discipline-agnostic:
an interrupted data transfer is a collision, an interrupted/failed
probe is a deferral, a finished data transfer is a transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..obs.api import NULL_OBS
from ..sim.engine import Engine
from ..sim.events import Interrupt
from ..sim.monitor import Counter
from ..sim.resources import Resource
from ..simruntime.registry import CommandContext, CommandRegistry

#: Practically-infinite stall used by black holes; interruptible.
_FOREVER = 1e12


@dataclass(frozen=True, slots=True)
class ReplicaConfig:
    """Scenario tunables (paper values where given)."""

    data_size_mb: float = 100.0
    flag_size_mb: float = 1e-6            # the well-known one-byte file
    bandwidth_mb_s: float = 10.0          # 100 MB "takes about 10 seconds"
    connect_latency: float = 0.1
    #: Opt-in load-dependent service degradation: when > 0, a transfer
    #: slows by ``1 + waiting/degradation_connections`` — every queued
    #: connection costs real server capacity (thread churn, memory
    #: pressure), so hammering a degraded service hurts *everyone*.
    #: 0 (the default) keeps the paper's load-independent servers.
    degradation_connections: int = 0
    #: Opt-in accept cost: server time burnt per accepted request before
    #: any bytes move (fork/accept/TLS work).  Makes reconnect churn
    #: consume real service capacity — the "every retry costs the shared
    #: resource" mechanism of scenario 1, here for the file servers.
    accept_overhead: float = 0.0


class FileServer:
    """A single-threaded HTTP-ish file server; optionally a black hole."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        config: ReplicaConfig,
        black_hole: bool = False,
    ) -> None:
        self.engine = engine
        self.name = name
        self.config = config
        self.black_hole = black_hole
        #: The accept loop: one transfer at a time, FIFO backlog.
        self.slot = Resource(engine, capacity=1)
        self.transfers = Counter(engine, f"{name}-transfers")
        #: Fault hooks: while ``failing`` the server serves
        #: ``reset_fraction`` of each request and then resets it (a 5xx
        #: partway through the body).  Driven by
        #: :class:`repro.faults.injectors.HttpErrorInjector`.
        self.failing = False
        self.reset_fraction = 0.5
        self.resets = Counter(engine, f"{name}-resets", keep_series=False)

    def size_of(self, path: str) -> float:
        return self.config.flag_size_mb if path == "flag" else self.config.data_size_mb

    def service_time(self, path: str) -> float:
        """Time to serve ``path`` now, including load degradation."""
        base = self.size_of(path) / self.config.bandwidth_mb_s
        threshold = self.config.degradation_connections
        if threshold > 0:
            base *= 1.0 + len(self.slot.queue) / threshold
        return base


class ReplicaWorld:
    """Scenario 3's shared state and global accounting."""

    def __init__(
        self,
        engine: Engine,
        config: ReplicaConfig | None = None,
        hosts: tuple[str, ...] = ("xxx", "yyy", "zzz"),
        black_holes: tuple[str, ...] = ("zzz",),
        obs: Any = None,
    ) -> None:
        self.engine = engine
        self.config = config or ReplicaConfig()
        self.servers: dict[str, FileServer] = {
            host: FileServer(engine, host, self.config, black_hole=host in black_holes)
            for host in hosts
        }
        #: Completed 100 MB transfers (the Figures' "Transfers" series).
        self.transfers = Counter(engine, "transfers")
        #: Data fetches aborted by the 60 s timeout ("Collisions").
        self.collisions = Counter(engine, "collisions")
        #: Probe fetches that failed/stalled ("Deferrals").
        self.deferrals = Counter(engine, "deferrals")
        #: Telemetry: the counters above, read at export, and transfers
        #: per server, counted here (``FileServer.transfers`` also counts
        #: probes).
        self.obs = obs if obs is not None else NULL_OBS
        metrics = self.obs.metrics
        self._m_transfers = metrics.counter(
            "grid_replica_transfers_total", "completed data transfers",
            labels=("server",))
        metrics.counter(
            "grid_replica_collisions_total", "data fetches aborted by timeout"
        ).set_function(lambda: self.collisions.count)
        metrics.counter(
            "grid_replica_deferrals_total", "probe fetches that failed/stalled"
        ).set_function(lambda: self.deferrals.count)

    def parse_url(self, url: str) -> Optional[tuple[FileServer, str]]:
        """``http://host/path`` -> (server, path); None if unknown."""
        prefix = "http://"
        if not url.startswith(prefix):
            return None
        rest = url[len(prefix):]
        host, _, path = rest.partition("/")
        server = self.servers.get(host)
        if server is None:
            return None
        return server, path


def register_replica_commands(registry: CommandRegistry, world: ReplicaWorld) -> None:
    """Register ``wget`` so the paper's scripts run verbatim."""

    engine = world.engine
    config = world.config

    @registry.register("wget")
    def wget(ctx: CommandContext):
        if not ctx.args:
            return 1
        parsed = world.parse_url(ctx.args[-1])
        if parsed is None:
            yield engine.timeout(config.connect_latency)
            return 1
        server, path = parsed
        is_probe = path == "flag"

        request = server.slot.request()
        try:
            yield engine.timeout(config.connect_latency)
            yield request  # waiting in the accept queue of a busy server
            if server.black_hole:
                # Connected, but no bytes will ever come.
                yield engine.timeout(_FOREVER)
                return 1  # pragma: no cover - only reachable by interrupt
            if config.accept_overhead > 0:
                yield engine.timeout(config.accept_overhead)
            if server.failing:
                # 5xx partway through the body: the service time spent is
                # wasted on the single slot, and the fetch fails.
                yield engine.timeout(
                    server.service_time(path) * server.reset_fraction)
                server.resets.increment()
                if is_probe:
                    world.deferrals.increment()
                else:
                    world.collisions.increment()
                return 1
            yield engine.timeout(server.service_time(path))
            server.transfers.increment()
            if is_probe:
                return 0
            world.transfers.increment()
            world._m_transfers.labels(server=server.name).inc()
            return 0
        except Interrupt:
            # The client's try-limit expired while we were queued, stalled
            # on the black hole, or mid-transfer.
            if is_probe:
                world.deferrals.increment()
            else:
                world.collisions.increment()
            return 1
        finally:
            server.slot.release(request)
