"""SimDriver: runs the sans-IO ftsh interpreter in simulated time.

The same effect generator that :class:`~repro.core.realruntime.RealDriver`
executes against POSIX is executed here as a simulation process:

* ``Sleep``       -> virtual :class:`~repro.sim.events.Timeout`
* ``RunCommand``  -> a registered simulated command, raced against the
  effect's deadline: its own sim process, or — for a handler that
  answers :class:`~repro.simruntime.registry.Quick` — one timer
* ``RunParallel`` -> one sim process per branch, first failure interrupts
  the rest
* ``GetTime``     -> ``engine.now``;  ``GetRandom`` -> a named RNG stream

Each is answered in ``SimDriver._drive``'s own loop: one generator frame
between the engine and the interpreter, whatever the script waits on.

Cancellation flows through :class:`~repro.sim.events.Interrupt`: when the
driving process is interrupted (a losing ``forall`` branch, a scenario
tear-down), the driver throws :class:`FtshCancelled` into the interpreter
at its current yield point, which unwinds like an uncatchable failure.
"""

from __future__ import annotations

import random
from types import GeneratorType
from typing import Any, Callable, Generator, Optional

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
from ..sim.engine import PRIORITY_URGENT, Engine
from ..sim.events import _PENDING, Event, Interrupt, _FirstOf
from ..sim.process import Process
from .registry import CommandContext, CommandRegistry, Quick, normalize_result

#: What a script process returns, made of its outcome (``None`` or the control exception).
Finish = Callable[[Optional[BaseException]], Any]


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
            "ftsh_sim_processes_spawned_total", "simulated commands started")
        self._m_processes = metrics.counter(
            "ftsh_sim_command_processes_total",
            "simulated commands run as processes, not timer-served")
        self._m_unknown = metrics.counter(
            "ftsh_sim_unknown_commands_total", "commands with no registered handler")
        self._m_branches = metrics.counter(
            "ftsh_sim_branch_processes_total", "forall branch processes started")

    # The interpreter's clock.
    def now(self) -> float:
        return self.engine.now

    # ------------------------------------------------------------------
    def spawn(self, generator: EffectGenerator, name: str = "ftsh", finish: Optional[Finish] = None) -> Process:
        """Run the interpreter as a background simulation process.

        The process' value is ``None`` on script success or the control
        exception on failure — the same contract as ``RealDriver.run`` —
        or, given ``finish``, what ``finish`` makes of that outcome.
        """
        return self.engine.process(self._drive(generator, finish), name=name)

    def run(self, generator: EffectGenerator) -> Optional[BaseException]:
        """Drive to completion, advancing the simulation as needed."""
        process = self.spawn(generator)
        return self.engine.run(until=process)

    # ------------------------------------------------------------------
    def _drive(self, generator: EffectGenerator, finish: Optional[Finish] = None) -> Generator[Any, Any, Any]:
        """The one frame between the process and the interpreter: every
        effect is answered in this loop, and a command or a sleep is
        waited on by its own ``yield`` (only ``RunParallel`` delegates)."""
        engine = self.engine
        try:
            effect = generator.send(None)
            while True:
                kind = type(effect)
                try:
                    if kind is RunCommand:
                        name = effect.argv[0]
                        handler = self.registry.get(name)
                        remaining = effect.deadline - engine.now
                        if handler is None:
                            self._m_unknown.inc()
                            result = CommandResult(exit_code=127, detail=f"unknown simulated command {name!r}")
                        elif effect.stdin_file is not None:
                            # No shared filesystem namespace: a script that redirects from
                            # a file is a scenario bug, and fails as a missing file would.
                            result = CommandResult(
                                exit_code=1, detail=f"stdin file {effect.stdin_file!r} not available in simulation")
                        elif remaining <= 0:
                            result = CommandResult(exit_code=-1, timed_out=True, detail="deadline already passed")
                        else:
                            context = CommandContext(argv=list(effect.argv), engine=engine, world=self.world,
                                                     stdin_data=effect.stdin_data, client=self.client)
                            # The deadline's queue key is drawn before the handler is called,
                            # so order cannot depend on what a handler does when it is called.
                            key = None if effect.deadline == UNBOUNDED else engine.reserve(remaining)
                            answer = handler(context)
                            self._m_spawned.inc()
                            expiry = None  # no deadline, or one a Quick command races itself
                            if type(answer) is Quick:
                                command = wait = _QuickCommand(engine, answer, name, key)
                            else:
                                command = wait = engine.process(self._shield(answer, name), name=f"cmd:{name}")
                                self._m_processes.inc()
                                if key is not None:
                                    expiry = engine.timeout_at(key)
                                    wait = _FirstOf(engine, command, expiry)
                            # The expiry is withdrawn on every exit where it has not fired,
                            # so a finished command pins nothing until the try's deadline.
                            try:
                                yield wait
                            except Interrupt:
                                if expiry is not None:
                                    expiry.cancel()
                                if command.is_alive:
                                    command.interrupt("client cancelled")
                                raise
                            if expiry is not None:
                                expiry.cancel()
                            if not command.is_alive:
                                result = normalize_result(command.value, name)
                            else:  # the deadline won: kill the command, wait for its cleanup
                                command.interrupt("deadline expired")
                                result = normalize_result((yield command), name)
                                result.timed_out = True
                                if result.exit_code == 0:
                                    result.exit_code = -1
                    elif kind is GetTime:
                        result = engine.now
                    elif kind is Sleep:
                        start = engine.now
                        limit = min(effect.duration, max(effect.deadline - start, 0.0))
                        if limit > 0:
                            yield engine.timeout(limit)
                        result = SleepResult(
                            slept=engine.now - start, timed_out=effect.deadline - start < effect.duration)
                    elif kind is GetRandom:
                        result = self.rng.random()
                    elif kind is RunParallel:
                        result = yield from self._run_parallel(effect)
                    else:
                        raise FtshRuntimeError(f"unknown effect: {effect!r}")
                except Interrupt as interrupt:
                    effect = generator.throw(FtshCancelled(str(interrupt.cause)))
                    continue
                effect = generator.send(result)
        except StopIteration:
            outcome = None
        except FtshControl as control:
            # Only the reason is ever read; the traceback would hold this
            # frame, which holds ``outcome``: a cycle per failed script.
            outcome = control.with_traceback(None)
        return outcome if finish is None else finish(outcome)

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


class _QuickCommand(_FirstOf):
    """A command whose handler answered :class:`Quick`: one event the
    driving process waits on, with the hops of the generator form
    (``registry.generator_form``) less its bootstrap.  The timer (a pooled
    carrier) runs ``then``; a result takes the exit hop (a carrier), and
    this event's ``succeed`` is the race hop (with no deadline: the exit
    hop).  A generator continues as a process from that dispatch
    (``bootstrap=False``), raced against the expiry as by :class:`_FirstOf`.
    A kill before the timer takes an interrupt's urgent hop and exits
    ``"<name>: killed"``; the timer still fires, into nothing.  The expiry
    is queued under the reserved key only if it can win, tie or race a
    continuation.
    """

    __slots__ = ("_answer", "_name", "_key", "_expiry", "_result", "_process")

    def __init__(self, engine: Engine, answer: Quick, name: str, key: Optional[tuple[float, int]]) -> None:
        Event.__init__(self, engine)
        self._answer, self._name, self._key = answer, name, key  # key None: no race
        self._expiry = self._process = None
        self._result: Any = _PENDING
        if key is not None and key[0] <= engine.now + answer.delay:
            self._queue_expiry()
        engine.later(answer.delay, self._fire)

    def _queue_expiry(self) -> None:
        self._expiry = expiry = self.engine.timeout_at(self._key)
        expiry.callbacks.append(self._observe)

    def _withdraw(self) -> None:
        expiry, self._expiry = self._expiry, None
        if expiry is not None:
            expiry.cancel()

    # A continuation has finished when its process has, a hop before its
    # exit is dispatched: a race settled in between sees it done.
    @property
    def is_alive(self) -> bool:
        process = self._process
        return process.is_alive if process is not None else self._result is _PENDING

    @property
    def value(self) -> Any:
        process = self._process
        return process.value if process is not None else self._result

    def interrupt(self, cause: Any = None) -> None:
        """Kill the command; after a won deadline, re-armed for its exit."""
        self._withdraw()
        if self.callbacks is None:
            self._key, self.callbacks, self._value = None, [], _PENDING
        if self._process is not None:
            self._process.interrupt(cause)
        else:
            self._answer = Quick(0.0, CommandResult(exit_code=-1, detail=f"{self._name}: killed"))
            self.engine.immediate(True, None, self._fire, priority=PRIORITY_URGENT)

    def _fire(self, carrier: Event) -> None:
        self.engine._recycle(carrier)
        if self._result is not _PENDING:
            return  # killed first
        value = self._answer.outcome()
        if isinstance(value, GeneratorType):
            self._process = process = Process(
                self.engine, SimDriver._shield(value, self._name), name=f"cmd:{self._name}", bootstrap=False)
            process.callbacks.append(self._exited)
            if self._key is not None and self._expiry is None:
                self._queue_expiry()
        else:
            self._result = value
            self.succeed(value) if self._key is None else self.engine.immediate(True, None, self._exit)

    def _exit(self, carrier: Event) -> None:
        self.engine._recycle(carrier)
        if self._value is _PENDING:
            self.succeed()

    def _exited(self, process: Event) -> None:
        """A continuation's exit ends its race, or else runs our waiters."""
        if self._key is not None:
            self._withdraw()
            self._observe(process)
            return
        self._ok, self._value = process._ok, process._value
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            if callback is not None:
                callback(self)
        if self._defused:  # a waiter took the failure
            process.defuse()
