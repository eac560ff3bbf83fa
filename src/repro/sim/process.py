"""Generator-based simulation processes.

A process is a Python generator that yields :class:`~repro.sim.events.Event`
objects; the engine resumes it with the event's value when the event is
processed (or throws the event's exception into it if the event failed).
A :class:`Process` is itself an event, triggered when the generator
returns — so processes can wait on each other, be combined with
``AllOf``/``AnyOf``, and be interrupted.

Hot-path notes: every resume that is not "the target fired normally"
(bootstrap, interrupts, already-resolved yields, bad-yield nudges) goes
through :meth:`Engine.immediate`, which recycles carrier events instead
of allocating; and detaching from a stale wait target (after an
interrupt) tombstones the process' callback slot in O(1) instead of an
O(n) ``list.remove`` — the stale event keeps its place in the event
list and the dispatch loop discards the dead slot when it pops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ..core.errors import SimulationError
from .events import Carrier, Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine

ProcessGenerator = Generator[Event, Any, Any]


class _Start:
    """What a process started in the current dispatch is first resumed
    with: a successful ``None``, read by :meth:`Process._resume` the way
    it reads a triggered event."""

    __slots__ = ()
    _ok = True
    _value = None


_START = _Start()


class Process(Event):
    """A running generator inside the simulation.

    The process event succeeds with the generator's return value, or fails
    with its uncaught exception.  It starts one urgent hop after it is
    created, unless ``bootstrap=False`` starts it in the current dispatch.
    """

    __slots__ = ("generator", "_target", "_target_slot", "_resume_cb", "name")

    def __init__(
        self,
        engine: "Engine",
        generator: ProcessGenerator,
        name: str = "",
        bootstrap: bool = True,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process body must be a generator, got {generator!r}")
        super().__init__(engine)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None if running
        #: or terminated), and the index of our callback in its list —
        #: callback lists only ever append, so the slot stays valid until
        #: the event is processed.
        self._target: Event | None = None
        self._target_slot = 0
        #: The one bound method used for every callback registration, so
        #: tombstoning can compare by identity (and each attach skips a
        #: bound-method allocation).  It makes the process a reference
        #: cycle, so it is dropped where the process stops: by
        #: :meth:`_resume` when the generator ends, and by
        #: :meth:`Engine.close` for a process still waiting when its world
        #: ends.  Either way the process is freed by reference count as
        #: soon as its last waiter lets go, not by a later collector pass.
        self._resume_cb = self._resume
        engine._live[self] = None
        if not bootstrap:
            # Run to the first yield now, inside the caller's dispatch:
            # the generator's first request is made before anything else
            # at this instant.  Only from a callback, not from inside a
            # running process (whose ``active_process`` this restores).
            active = engine.active_process
            self._resume(_START)
            engine.active_process = active
            return
        # Kick off at the current simulation time.  Urgent priority (0) so
        # a process interrupted in its creation instant still *starts*
        # before the interrupt lands (throwing into a never-started
        # generator would bypass its try/except entirely).
        engine.immediate(True, None, self._resume_cb, priority=0)

    @property
    def is_alive(self) -> bool:
        """True until the generator has returned or raised."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next resumption.

        Interrupting a terminated process is an error; interrupting a
        process twice before it runs queues both interrupts.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt terminated process {self.name!r}")
        if self is self.engine.active_process:
            raise SimulationError("a process cannot interrupt itself")
        self.engine.immediate(False, Interrupt(cause), self._resume_cb, priority=0)

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        if self.triggered:
            return  # a queued interrupt arrived after termination; drop it
        # Detach from the event we were waiting on (relevant for interrupts:
        # the original target may still fire later and must not resume us).
        # O(1): null our slot instead of searching the callback list; the
        # dispatch loop skips tombstones.
        target = self._target
        if target is not None and target is not event:
            stale = target.callbacks
            if stale is not None and stale[self._target_slot] is self._resume_cb:
                stale[self._target_slot] = None
        self._target = None

        ok = event._ok
        value = event._value
        if not ok:
            event.defuse()
        if type(event) is Carrier:
            self.engine._recycle(event)

        self.engine.active_process = self
        try:
            if ok:
                target = self.generator.send(value)
            else:
                target = self.generator.throw(value)
        except StopIteration as stop:
            self.engine.active_process = None
            self._resume_cb = None
            del self.engine._live[self]
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.engine.active_process = None
            self._resume_cb = None
            del self.engine._live[self]
            self.fail(exc)
            return
        self.engine.active_process = None

        if not isinstance(target, Event):
            # Nudge the generator with a clear error at its own yield point.
            error = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield events"
            )
            self.engine.immediate(False, error, self._resume_cb)
            return
        if target.engine is not self.engine:
            raise SimulationError("process yielded an event from a different engine")
        callbacks = target.callbacks
        if callbacks is None:
            # Already resolved: resume immediately (next engine step).
            if not target._ok:
                target.defuse()
            self.engine.immediate(target._ok, target._value, self._resume_cb)
        else:
            self._target_slot = len(callbacks)
            callbacks.append(self._resume_cb)
            self._target = target
