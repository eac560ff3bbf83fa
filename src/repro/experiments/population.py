"""One client population: the shape every scenario harness shares.

The paper's scenarios (§5) are one experiment: N clients, each looping
an ftsh script against one shared resource.  :class:`Population` owns
what that takes — the seeded engine, the telemetry clock, the command
registry, the fault install — and runs the clients.  A harness builds
its world on ``engine``/``registry``/``obs``, starts whatever else the
world needs (samplers, a consumer, an uploader), says what one cycle of
a client runs, and folds the world's counters into its result.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

from ..core.backoff import BackoffPolicy
from ..core.shell_log import ShellLog
from ..faults.injectors import install_faults
from ..obs.api import NULL_OBS
from ..obs.clock import engine_clock
from ..sim.engine import Engine
from ..sim.rng import RandomStreams
from ..simruntime.registry import CommandRegistry
from ..simruntime.shell import SimFtsh

#: What client ``index`` runs next: a script (text or compiled plan)
#: and its variables.
Cycle = Callable[[int], tuple[Any, Optional[Mapping[str, str]]]]


class Population:
    """A seeded engine, its command registry, and N looping clients."""

    def __init__(self, seed: int, obs: Any = None) -> None:
        self.streams = RandomStreams(seed)
        self.engine = Engine(streams=self.streams)
        #: Optional :class:`repro.obs.Observability`, on the engine clock.
        self.obs = obs if obs is not None else NULL_OBS
        self.obs.set_clock(engine_clock(self.engine))
        self.registry = CommandRegistry()

    def install_faults(self, faults, horizon: float, **substrates) -> None:
        """Start one injector per spec against the world's ``substrates``."""
        install_faults(self.engine, faults, streams=self.streams,
                       horizon=horizon, **substrates)

    def sized(self, script: str, config) -> Cycle:
        """Producer cycles: each draws a size from ``sizes-<index>``
        (uniform over the buffer config's file range) and passes it to
        ``script`` as ``size_mb``, so one text — parsed and compiled
        once — serves every cycle of every producer."""
        def cycle(index: int):
            size = self.streams.stream(f"sizes-{index}").uniform(
                config.file_min_mb, config.file_max_mb)
            return script, {"size_mb": f"{size:.6f}"}
        return cycle

    def run(self, n: int, name: str, world: Any, policy: BackoffPolicy,
            cycle: Cycle, duration: float) -> int:
        """Run ``n`` clients until ``duration``; return the backoffs.

        Client ``index`` is ``name.format(index)`` (its shell, rng stream
        and process), starts after a stagger of up to 1 s drawn from
        ``stagger-<index>``, then runs ``cycle(index)`` back to back.
        All clients log into one shared :class:`ShellLog` — the default
        log, a counter that keeps no event — whose backoff initiations,
        the paper's overload alarm, are returned.
        """
        engine = self.engine
        log = ShellLog()
        for index in range(n):
            client = name.format(index)
            shell = SimFtsh(engine, self.registry, world=world,
                            rng=self.streams.stream(client), policy=policy,
                            name=client, log=log, obs=self.obs)
            stagger = self.streams.stream(f"stagger-{index}").uniform(0.0, 1.0)
            engine.process(_client(engine, shell, cycle, index, stagger,
                                   duration), name=client)
        engine.run(until=duration)
        return log.backoff_initiations()


def _client(engine: Engine, shell: SimFtsh, cycle: Cycle, index: int,
            stagger: float, duration: float):
    """One client: staggered start, then cycles back to back; a run's
    success or failure both loop."""
    if stagger > 0:
        yield engine.timeout(stagger)
    while engine.now < duration:
        script, variables = cycle(index)
        yield shell.spawn(script, variables, timeout=duration - engine.now)
