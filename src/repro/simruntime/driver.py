"""SimDriver: runs the sans-IO ftsh interpreter in simulated time.

The same effect generator that :class:`~repro.core.realruntime.RealDriver`
executes against POSIX is executed here as a simulation process:

* ``Sleep``       -> virtual :class:`~repro.sim.events.Timeout`
* ``RunCommand``  -> a registered simulated command (its own sim process),
  raced against the effect's deadline
* ``RunParallel`` -> one sim process per branch, first failure interrupts
  the rest
* ``GetTime``     -> ``engine.now``;  ``GetRandom`` -> a named RNG stream

Cancellation flows through :class:`~repro.sim.events.Interrupt`: when the
driving process is interrupted (a losing ``forall`` branch, a scenario
tear-down), the driver throws :class:`FtshCancelled` into the interpreter
at its current yield point, which unwinds like an uncatchable failure.
"""

from __future__ import annotations

import random
from typing import Any, Generator, Optional

from ..core.effects import (
    CommandResult,
    EffectGenerator,
    GetRandom,
    GetTime,
    ParallelResult,
    RunCommand,
    RunParallel,
    Sleep,
    SleepResult,
)
from ..core.errors import FtshCancelled, FtshControl, FtshRuntimeError
from ..core.timeline import UNBOUNDED
from ..obs.api import NULL_OBS
from ..sim.engine import Engine
from ..sim.events import Interrupt, _FirstOf
from ..sim.process import Process
from .registry import CommandContext, CommandRegistry, normalize_result


class SimDriver:
    """Bridges the effect protocol onto a :class:`~repro.sim.Engine`."""

    def __init__(
        self,
        engine: Engine,
        registry: CommandRegistry,
        world: Any = None,
        rng: Optional[random.Random] = None,
        client: str = "",
        max_parallel: Optional[int] = None,
        obs: Any = None,
    ) -> None:
        self.engine = engine
        self.registry = registry
        self.world = world
        # Default to a named stream off the engine's master seed so a
        # driver constructed without an explicit rng is still part of the
        # one-seed-determines-everything contract.
        self.rng = (rng if rng is not None
                    else engine.streams.stream(f"sim-driver-{client or 'anon'}"))
        self.client = client
        #: Cap on simultaneously running ``forall`` branches (paper §4's
        #: process-creation governor).  None = unlimited.
        self.max_parallel = max_parallel
        if max_parallel is not None and max_parallel < 1:
            raise FtshRuntimeError(f"max_parallel must be >= 1, got {max_parallel}")
        #: Telemetry for the simulated runtime layer, mirroring
        #: RealDriver's process-lifecycle counters.
        self.obs = obs if obs is not None else NULL_OBS
        metrics = self.obs.metrics
        self._m_spawned = metrics.counter(
            "ftsh_sim_processes_spawned_total", "simulated command processes started")
        self._m_unknown = metrics.counter(
            "ftsh_sim_unknown_commands_total", "commands with no registered handler")
        self._m_branches = metrics.counter(
            "ftsh_sim_branch_processes_total", "forall branch processes started")

    # The interpreter's clock.
    def now(self) -> float:
        return self.engine.now

    # ------------------------------------------------------------------
    def spawn(self, generator: EffectGenerator, name: str = "ftsh") -> Process:
        """Run the interpreter as a background simulation process.

        The process' value is ``None`` on script success or the control
        exception on failure — the same contract as ``RealDriver.run``.
        """
        return self.engine.process(self._drive(generator), name=name)

    def run(self, generator: EffectGenerator) -> Optional[BaseException]:
        """Drive to completion, advancing the simulation as needed."""
        process = self.spawn(generator)
        return self.engine.run(until=process)

    # ------------------------------------------------------------------
    def _drive(self, generator: EffectGenerator) -> Generator[Any, Any, Optional[BaseException]]:
        try:
            effect = generator.send(None)
            while True:
                try:
                    result = yield from self._execute(effect)
                except Interrupt as interrupt:
                    effect = generator.throw(FtshCancelled(str(interrupt.cause)))
                    continue
                effect = generator.send(result)
        except StopIteration:
            return None
        except FtshControl as control:
            return control

    def _execute(self, effect: Any) -> Generator[Any, Any, Any]:
        if isinstance(effect, GetTime):
            return self.engine.now
        if isinstance(effect, GetRandom):
            return self.rng.random()
        if isinstance(effect, Sleep):
            return (yield from self._sleep(effect))
        if isinstance(effect, RunCommand):
            return (yield from self._run_command(effect))
        if isinstance(effect, RunParallel):
            return (yield from self._run_parallel(effect))
        raise FtshRuntimeError(f"unknown effect: {effect!r}")
        yield  # pragma: no cover - generator marker

    # ------------------------------------------------------------------
    def _sleep(self, effect: Sleep) -> Generator[Any, Any, SleepResult]:
        start = self.engine.now
        deadline_binds = effect.deadline - start < effect.duration
        limit = min(effect.duration, max(effect.deadline - start, 0.0))
        if limit > 0:
            yield self.engine.timeout(limit)
        return SleepResult(slept=self.engine.now - start, timed_out=deadline_binds)

    # ------------------------------------------------------------------
    def _run_command(self, effect: RunCommand) -> Generator[Any, Any, CommandResult]:
        handler = self.registry.get(effect.argv[0])
        if handler is None:
            self._m_unknown.inc()
            return CommandResult(
                exit_code=127, detail=f"unknown simulated command {effect.argv[0]!r}"
            )
        if effect.stdin_file is not None:
            # The simulated world has no shared filesystem namespace; a
            # script that redirects from a file is a scenario bug, and it
            # fails the way a missing file would.
            return CommandResult(
                exit_code=1,
                detail=f"stdin file {effect.stdin_file!r} not available in simulation",
            )
        remaining = effect.deadline - self.engine.now
        if remaining <= 0:
            return CommandResult(exit_code=-1, timed_out=True, detail="deadline already passed")

        context = CommandContext(
            argv=list(effect.argv),
            engine=self.engine,
            world=self.world,
            stdin_data=effect.stdin_data,
            client=self.client,
        )
        process = self.engine.process(
            self._shield(handler(context), effect.argv[0]),
            name=f"cmd:{effect.argv[0]}",
        )
        self._m_spawned.inc()

        if effect.deadline == UNBOUNDED:
            try:
                value = yield process
            except Interrupt:
                if process.is_alive:
                    process.interrupt("client cancelled")
                raise
            return normalize_result(value, effect.argv[0])
        # The expiry is this method's own timer: on every exit where it
        # has not fired it is withdrawn, so a finished command leaves no
        # waiter chain pinned until the enclosing try's deadline.
        expiry = self.engine.timeout(remaining)
        try:
            yield _FirstOf(self.engine, process, expiry)
        except Interrupt:
            expiry.cancel()
            if process.is_alive:
                process.interrupt("client cancelled")
            raise
        if process.triggered:
            expiry.cancel()
            return normalize_result(process.value, effect.argv[0])
        # Deadline won the race: kill the command, wait for its cleanup.
        process.interrupt("deadline expired")
        value = yield process
        result = normalize_result(value, effect.argv[0])
        result.timed_out = True
        if result.exit_code == 0:
            result.exit_code = -1
        return result

    @staticmethod
    def _shield(handler_generator: Generator[Any, Any, Any], name: str) -> Generator[Any, Any, Any]:
        """Backstop: convert an uncaught Interrupt into command death.

        Handlers that hold resources should catch Interrupt themselves to
        release them; this shim only guarantees the *driver* sees a clean
        CommandResult either way.
        """
        try:
            value = yield from handler_generator
            return value
        except Interrupt:
            return CommandResult(exit_code=-1, detail=f"{name}: killed")

    # ------------------------------------------------------------------
    def _run_parallel(self, effect: RunParallel) -> Generator[Any, Any, ParallelResult]:
        total = len(effect.branches)
        limit = self.max_parallel or total
        outcomes: list[Optional[BaseException]] = [None] * total
        index_of: dict[Process, int] = {}
        pending: set[Process] = set()
        next_branch = 0
        cancelling = False

        def start_more() -> None:
            nonlocal next_branch
            while next_branch < total and len(pending) < limit:
                branch = effect.branches[next_branch]
                if cancelling:
                    # Governor + cancellation: unstarted branches are skipped.
                    outcomes[next_branch] = FtshCancelled("forall branch skipped")
                else:
                    process = self.engine.process(
                        self._drive(branch.generator), name=branch.name
                    )
                    self._m_branches.inc()
                    index_of[process] = next_branch
                    pending.add(process)
                next_branch += 1

        start_more()
        while pending:
            try:
                yield self.engine.any_of(list(pending))
            except Interrupt:
                for process in pending:
                    if process.is_alive:
                        process.interrupt("forall cancelled from above")
                raise
            for process in list(pending):
                if not process.triggered:
                    continue
                pending.discard(process)
                outcomes[index_of[process]] = process.value
                if process.value is not None and not cancelling:
                    cancelling = True
                    for other in pending:
                        if other.is_alive:
                            other.interrupt("sibling branch failed")
            start_more()
        return ParallelResult(outcomes=outcomes)
