"""Simulated commands: the things ftsh scripts invoke inside the simulator.

A *simulated command* is a handler registered under a command name.
When an ftsh script run by the :class:`~repro.simruntime.driver.SimDriver`
executes ``condor_submit job``, the driver looks up ``condor_submit``
here and runs the handler in virtual time.

Handler contract — a handler answers in one of two forms::

    @registry.register("mycmd")
    def mycmd(ctx: CommandContext):          # a generator: a process body
        yield ctx.engine.timeout(1.5)        # take simulated time
        return 0                              # exit code
        # or: return (0, "output text")
        # or: return CommandResult(...)

    @registry.register("refuse")
    def refuse(ctx: CommandContext):         # a plain function
        return Quick(1.0, 1)                 # "this latency, this result"

* A **generator** (or a plain function returning one) runs as its own
  simulation process, started one urgent hop after the command is
  issued.  This is the form for anything that can block: queue for a
  resource, hold it, be interrupted while holding it.
* A :class:`Quick` answer is for a command that cannot block.  After
  ``delay`` simulated seconds, ``then`` is the result — or, if callable,
  ``then()`` is called in the timer's own dispatch and returns a result
  or a generator that continues as a process from that dispatch.  The
  driver serves it as one event on pooled timers, and queues its
  deadline's expiry only if that can win, tie or race a continuation.
  A plain function's own code runs when the command is issued, after
  the deadline's queue key is drawn, so it must only read state (or
  claim what a refusal claims) there.

:func:`generator_form` spells a ``Quick`` answer as the equivalent
process body; both forms give the same result and ``ShellLog``.

* Handlers hold simulated resources; if they can be interrupted while
  holding them (deadline expiry, forall cancellation), they must catch
  :class:`~repro.sim.Interrupt`, release, and return.  An uncaught
  Interrupt is converted by the driver into command death (nonzero,
  timed out) — resources held through it leak, exactly like a real
  process killed with SIGKILL would leak disk files.  A ``Quick``
  command killed before its timer fires dies the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Callable, Generator, NamedTuple, Optional

from ..core.effects import CommandResult
from ..core.errors import FtshRuntimeError
from ..sim.engine import Engine

#: What a handler may return.
HandlerReturn = CommandResult | int | tuple[int, str] | None


class Quick(NamedTuple):
    """A handler's answer for a command that cannot block: after
    ``delay`` simulated seconds the result is ``then``, or what calling
    it returns (a result, or a generator to continue as a process)."""

    delay: float
    then: Any = None

    def outcome(self) -> Any:
        """``then``, called if it is callable."""
        then = self.then
        return then() if callable(then) else then


CommandHandler = Callable[
    ["CommandContext"], Generator[Any, Any, HandlerReturn] | Quick]


def generator_form(answer: Any, engine: Engine) -> Generator[Any, Any, Any]:
    """``answer`` as a process body: a generator is itself; a
    :class:`Quick` is its timer followed by its outcome."""
    if type(answer) is not Quick:
        return answer
    return _served_by_a_process(answer, engine)


def _served_by_a_process(answer: Quick, engine: Engine) -> Generator[Any, Any, Any]:
    yield engine.timeout(answer.delay)
    value = answer.outcome()
    if isinstance(value, GeneratorType):
        value = yield from value
    return value


def at_once(value: HandlerReturn) -> Generator[Any, Any, HandlerReturn]:
    """A process body that returns ``value`` without taking simulated
    time — the answer of a plain-function handler that fails fast."""
    return value
    yield  # pragma: no cover - generator marker


@dataclass(slots=True)
class CommandContext:
    """Everything a simulated command can see."""

    argv: list[str]
    engine: Engine
    world: Any
    stdin_data: Optional[str] = None
    #: The shell (client) name that invoked the command, for per-client
    #: random streams and metrics.
    client: str = ""

    @property
    def name(self) -> str:
        return self.argv[0]

    @property
    def args(self) -> list[str]:
        return self.argv[1:]


def normalize_result(value: HandlerReturn, command: str) -> CommandResult:
    """Coerce a handler's return value into a :class:`CommandResult`."""
    if isinstance(value, CommandResult):  # the common case first
        return value
    if value is None:
        return CommandResult(exit_code=0)
    if isinstance(value, int):
        return CommandResult(exit_code=value)
    if isinstance(value, tuple) and len(value) == 2:
        code, output = value
        return CommandResult(exit_code=int(code), output=str(output))
    raise FtshRuntimeError(
        f"simulated command {command!r} returned {value!r}; expected "
        "None, int, (int, str) or CommandResult"
    )


class CommandRegistry:
    """Name -> handler mapping, with a few built-in shell-like commands."""

    def __init__(self, include_builtins: bool = True) -> None:
        self._handlers: dict[str, CommandHandler] = {}
        if include_builtins:
            register_builtins(self)

    def register(self, name: str) -> Callable[[CommandHandler], CommandHandler]:
        """Decorator: ``@registry.register("wget")``."""

        def decorate(handler: CommandHandler) -> CommandHandler:
            self._handlers[name] = handler
            return handler

        return decorate

    def add(self, name: str, handler: CommandHandler) -> None:
        self._handlers[name] = handler

    def get(self, name: str) -> Optional[CommandHandler]:
        return self._handlers.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._handlers

    def names(self) -> list[str]:
        return sorted(self._handlers)


def register_builtins(registry: CommandRegistry) -> None:
    """Tiny POSIX-ish builtins so scripts read naturally in simulation."""

    @registry.register("echo")
    def echo(ctx: CommandContext):
        return 0, " ".join(ctx.args) + "\n"
        yield  # pragma: no cover - generator marker

    @registry.register("true")
    def true(ctx: CommandContext):
        return 0
        yield  # pragma: no cover

    @registry.register("false")
    def false(ctx: CommandContext):
        return 1
        yield  # pragma: no cover

    @registry.register("cat")
    def cat(ctx: CommandContext):
        return 0, ctx.stdin_data or ""
        yield  # pragma: no cover

    @registry.register("sleep")
    def sleep(ctx: CommandContext):
        duration = float(ctx.args[0]) if ctx.args else 0.0
        yield ctx.engine.timeout(duration)
        return 0
