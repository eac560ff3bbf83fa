"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic event-list design (as popularized by
SimPy): an :class:`Event` moves through three states —

* *pending*: created, not yet scheduled;
* *triggered*: given a value (or an exception) and placed on the engine's
  event list;
* *processed*: its callbacks have run.

Processes (see :mod:`repro.sim.process`) suspend by yielding events and
are resumed by the event's callbacks.  All methods are single-threaded by
construction: the engine runs one callback at a time in virtual time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from ..core.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import Engine

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()

Callback = Callable[["Event"], None]


class Event:
    """A happening at a point in simulated time.

    Attributes:
        engine: the owning :class:`~repro.sim.engine.Engine`.
        callbacks: functions invoked (with the event) when processed.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: list[Callback] | None = []
        self._value: Any = _PENDING
        self._ok: bool | None = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception). Only valid once triggered."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.engine._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        If nothing waits on a failed event by the time it is processed the
        engine re-raises the exception (crashing the simulation loudly
        rather than silently dropping an error).  Call :meth:`defuse` to
        opt out.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.engine._schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the engine won't re-raise it."""
        self._defused = True

    @property
    def defused(self) -> bool:
        return self._defused

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    Negative delays are rejected by the one authoritative check in
    :meth:`Engine._schedule` (every scheduling path funnels through it).
    """

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        super().__init__(engine)
        self.delay = delay
        self._ok = True
        self._value = value
        engine._schedule(self, delay=delay)

    def cancel(self) -> None:
        """Withdraw a timer that lost its race: it will run no callback.

        Only for the timer's creator, and only for a timer nobody else
        was handed — whoever still waits on it would wait forever.  The
        timer reads ``processed`` afterwards; cancelling one that
        already fired (or was already cancelled) does nothing.  Dropping
        the callback list is what lets everything that waited on the
        timer be freed now rather than at the deadline; the queue entry
        itself is reclaimed by the engine's periodic rebuild (see
        :meth:`Engine._withdrawn_timer`).
        """
        if self.callbacks is not None:
            self.callbacks = None
            self.engine._withdrawn_timer()


class Carrier(Event):
    """A reusable one-shot event used by :meth:`Engine.immediate`.

    Carriers exist so the hot resume paths (process bootstrap,
    interrupts, already-resolved yields) do not allocate a fresh
    :class:`Event` plus callback list per resumption: the engine keeps a
    free list of consumed carriers and :class:`~repro.sim.process.Process`
    returns them after extracting the payload.  ``_cbs`` is the carrier's
    permanent single-slot callback list, re-armed on every reuse (the
    dispatch loop nulls ``callbacks`` but never mutates the list itself
    for carriers — nothing external ever appends to or tombstones one).
    """

    __slots__ = ("_cbs",)

    def __init__(self, engine: "Engine") -> None:
        super().__init__(engine)
        self._cbs: list[Callback | None] = [None]


class ConditionValue:
    """Ordered mapping of event -> value for the events a condition observed."""

    __slots__ = ("_events",)

    def __init__(self) -> None:
        self._events: dict[Event, Any] = {}

    def __getitem__(self, event: Event) -> Any:
        return self._events[event]

    def __contains__(self, event: Event) -> bool:
        return event in self._events

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ConditionValue {self._events!r}>"


class Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf`.

    Fails as soon as any observed event fails; otherwise succeeds when
    :meth:`_satisfied` says so, with a :class:`ConditionValue` of every
    event that had triggered by then.
    """

    __slots__ = ("events", "_count")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self.events = tuple(events)
        self._count = 0
        for event in self.events:
            if event.engine is not engine:
                raise SimulationError("condition mixes events from different engines")
        if not self.events:
            self.succeed(ConditionValue())
            return
        for event in self.events:
            if event.processed:
                self._observe(event)
            else:
                event.callbacks.append(self._observe)

    def _satisfied(self, count: int) -> bool:
        raise NotImplementedError

    def _observe(self, event: Event) -> None:
        if self.triggered:
            if not event.ok:
                # The condition already resolved; swallow late failures so
                # they don't crash the engine (the waiter has moved on).
                event.defuse()
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self._count += 1
        if self._satisfied(self._count):
            value = ConditionValue()
            for ev in self.events:
                # Only events that have actually been *processed* count:
                # a Timeout is triggered from birth but hasn't happened yet.
                if ev.processed and ev.ok:
                    value._events[ev] = ev.value
            self.succeed(value)


class AllOf(Condition):
    """Succeeds when every observed event has succeeded."""

    __slots__ = ()

    def _satisfied(self, count: int) -> bool:
        return count == len(self.events)


class AnyOf(Condition):
    """Succeeds when at least one observed event has succeeded."""

    __slots__ = ()

    def _satisfied(self, count: int) -> bool:
        return count >= 1


class _FirstOf(Event):
    """Succeeds when the first of two pending events does — a command
    racing its deadline (see ``SimDriver._run_command``).

    Scheduling-wise this is :class:`AnyOf` over two events: one entry
    queued from the winner's dispatch, a failing winner fails the race,
    the loser's failure is defused.  It differs in what it does not
    build — no events tuple, no :class:`ConditionValue` — because the
    driver reads the contestants directly; holding no reference to them
    also means a finished race is freed by reference count.  Private to
    the kernel's own callers: both events must be unprocessed, and the
    value is always ``None``.
    """

    __slots__ = ()

    def __init__(self, engine: "Engine", first: Event, second: Event) -> None:
        super().__init__(engine)
        observe = self._observe
        first.callbacks.append(observe)
        second.callbacks.append(observe)

    def _observe(self, event: Event) -> None:
        if self._value is not _PENDING:
            if not event._ok:
                event._defused = True
        elif event._ok:
            self.succeed()
        else:
            event._defused = True
            self.fail(event._value)


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` is whatever the interrupter supplied; the interrupted
    process decides what it means.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]
