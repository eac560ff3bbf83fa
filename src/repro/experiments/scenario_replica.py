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
from ..core.shell_log import LOG_RESULTS, ShellLog
from ..faults.injectors import FaultSpec, install_faults
from ..grid.httpserver import ReplicaConfig, ReplicaWorld, register_replica_commands
from ..obs.api import NULL_OBS
from ..obs.clock import engine_clock
from ..sim.engine import Engine
from ..sim.monitor import TimeSeries
from ..sim.rng import RandomStreams
from ..simruntime.registry import CommandRegistry
from ..simruntime.shell import SimFtsh


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


def _reader_loop(
    engine: Engine,
    shell: SimFtsh,
    discipline: Discipline,
    params: ReplicaParams,
    rng,
    stagger: float,
):
    """One reader: fetch cycles with per-cycle random server order."""
    hosts = list(params.hosts)
    if stagger > 0:
        yield engine.timeout(stagger)
    while engine.now < params.duration:
        rng.shuffle(hosts)
        script = reader_script(
            discipline,
            hosts,
            window=min(900.0, params.duration),
            probe_window=params.probe_window,
            data_window=params.data_window,
        )
        process = shell.spawn(script, timeout=params.duration - engine.now)
        yield process


def run_replica(params: ReplicaParams) -> ReplicaResult:
    """Run the scenario and collect Figure-6/7 measurements."""
    streams = RandomStreams(params.seed)
    engine = Engine(streams=streams)
    obs = params.obs if params.obs is not None else NULL_OBS
    obs.set_clock(engine_clock(engine))
    world = ReplicaWorld(
        engine,
        params.replica,
        hosts=params.hosts,
        black_holes=params.black_holes,
        obs=obs,
    )
    registry = CommandRegistry()
    register_replica_commands(registry, world)
    install_faults(engine, params.faults, streams=streams,
                   horizon=params.duration,
                   servers=list(world.servers.values()))

    # A counter, not a transcript: the run reads back one tally (the
    # overload alarm) and keeps no per-command event.
    shared_log = ShellLog(level=LOG_RESULTS, max_events=0)
    for index in range(params.n_clients):
        name = f"reader-{index}"
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
            _reader_loop(
                engine,
                shell,
                params.discipline,
                params,
                streams.stream(f"shuffle-{index}"),
                stagger,
            ),
            name=name,
        )

    engine.run(until=params.duration)
    return ReplicaResult(
        params=params,
        transfers=world.transfers.count,
        collisions=world.collisions.count,
        deferrals=world.deferrals.count,
        backoffs=shared_log.backoff_initiations(),
        transfers_series=world.transfers.series,
        collisions_series=world.collisions.series,
        deferrals_series=world.deferrals.series,
    )
