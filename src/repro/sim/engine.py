"""The discrete-event engine: one binary heap and a virtual clock.

Design notes (per the hpc-parallel guide: simple and legible first, then
measured — the perf ledger, ``benchmarks/ledger``, tracks the numbers):

* Entries are ``(time, pseq, event)`` tuples where ``pseq`` packs the
  dispatch priority above a monotonically increasing sequence counter
  (``priority << 62 | seq``).  Ordering is therefore exactly the classic
  ``(time, priority, sequence)`` key — stable and FIFO for same-time
  events, which the resource queues rely on for fairness — but entries
  compare in a single int comparison after the time, and the unique
  ``seq`` guarantees comparisons never reach the event object.
* Priority 0 is reserved for urgent deliveries (interrupts) so that an
  interrupt scheduled "now" beats ordinary events scheduled "now".
* The event list is ``_heap``, a :mod:`heapq` heap: every scheduling
  path pushes onto it and ``heappop`` is the only way an entry leaves
  (docs/PERFORMANCE.md "Inside the event kernel" prices it against the
  traffic campaigns produce).
* Cancellation is O(1) and comes in three forms.  A *waiter* that stops
  waiting (see :meth:`Process._resume`) nulls its slot in the event's
  callback list; dispatch skips ``None`` tombstones.  The *owner* of a
  private timer that lost its race withdraws it (:meth:`Timeout.cancel`):
  ``callbacks`` becomes ``None``, freeing its waiters at once, and the
  entry stays queued until withdrawn entries exceed :data:`_COMPACT_MIN`
  and half the queue, when the heap is filtered and rebuilt in place.
  A timer that may never matter is a *reserved key* (:meth:`reserve`),
  drawn where the timer would be made and queued only if it is needed
  (:meth:`timeout_at`).  Neither dropping nor deferring entries reorders
  the rest: every key is unique, so pop order is a function of the set.
* A failed event that nobody defused re-raises at the engine loop:
  errors crash loudly instead of vanishing.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Optional

from ..core.errors import BudgetExceeded, SimulationError
from .events import _CARRIER_POOL_MAX, _NORMAL, _SEQ_BITS, PRIORITY_NORMAL, AllOf, AnyOf, Carrier, Event, Timeout
from .events import PRIORITY_URGENT  # noqa: F401 - re-exported beside PRIORITY_NORMAL
from .process import Process, ProcessGenerator
from .rng import RandomStreams

#: Value returned by :meth:`Engine.peek` when no events remain.
INFINITY = float("inf")

#: Withdrawn timers are left queued until there are more than this many
#: (below it a rebuild costs more than carrying them) and they outnumber
#: the live entries.
_COMPACT_MIN = 64


class Engine:
    """Owns the virtual clock and runs events in time order."""

    def __init__(
        self,
        start_time: float = 0.0,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self._now = start_time
        #: The event list: a binary heap of ``(time, pseq, event)``.
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = count(1).__next__
        #: Free list of consumed :class:`Carrier` events for
        #: :meth:`immediate` (zero-alloc resume path).
        self._carriers: list[Carrier] = []
        #: Upper bound on the withdrawn timers still queued (those popped
        #: since the last rebuild are not subtracted).
        self._withdrawn = 0
        #: False while :meth:`run_budgeted` counts queue entries.
        self._may_compact = True
        #: The process currently executing (for self-interrupt detection).
        self.active_process: Optional[Process] = None
        #: Every process whose generator has not ended, in start order:
        #: :class:`Process` adds itself and removes itself when its
        #: generator returns or raises; :meth:`close` detaches the rest.
        self._live: dict[Process, None] = {}
        self._closed = False
        #: Named random streams shared by everything attached to this
        #: engine.  Substrates that need stochastic behaviour default to
        #: a stream named after themselves, so one master seed fully
        #: determines a run even when callers pass no explicit rng.
        self.streams = streams if streams is not None else RandomStreams(0)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def reserve(self, delay: float) -> tuple[float, int]:
        """The queue key of a timer ``delay`` seconds from now, drawn now
        and queued by :meth:`timeout_at` if ever: unused, it is no event."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._now + delay, _NORMAL | self._seq()

    def timeout_at(self, key: tuple[float, int]) -> Timeout:
        """A timer queued under a key from :meth:`reserve`, before its time."""
        return Timeout(self, key[0] - self._now, key=key)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start ``generator`` as a simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events: list[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: list[Event]) -> AnyOf:
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and stepping
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = PRIORITY_NORMAL) -> None:
        """Queue ``event`` ``delay`` seconds from now at any priority: a
        :class:`Timeout`'s push (``Event.succeed``/``fail`` make theirs
        inline)."""
        if not delay >= 0:  # written this way round so NaN is refused too
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(
            self._heap,
            (self._now + delay, priority << _SEQ_BITS | self._seq(), event),
        )

    def immediate(
        self,
        ok: bool,
        value: Any,
        callback: Callable[[Event], None],
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback`` for the current instant without a fresh event.

        The carrier delivered to the callback reports ``ok``/``value``
        exactly like a triggered event; failed carriers arrive pre-defused
        (the callback owns the outcome, the engine must not re-raise).
        Carriers come from a free list — the common resume paths
        (bootstrap, interrupts, already-resolved yields) allocate nothing
        once the pool is warm.  Ordering obeys the normal
        ``(time, priority, sequence)`` key, so an immediate still queues
        FIFO behind same-instant events scheduled before it.
        """
        carriers = self._carriers
        carrier = carriers.pop() if carriers else Carrier(self)
        cbs = carrier._cbs
        cbs[0] = callback
        carrier.callbacks = cbs
        carrier._ok = ok
        carrier._value = value
        carrier._defused = not ok
        heapq.heappush(self._heap, (self._now, priority << _SEQ_BITS | self._seq(), carrier))
        return carrier

    def later(self, delay: float, callback: Callable[[Event], None]) -> Event:
        """A successful :meth:`immediate`, ``delay`` seconds from now: a
        pooled timer that cannot be withdrawn, recycled by its callback.
        Armed here rather than through :meth:`immediate`: every
        timer-served command's timer is queued here."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        carriers = self._carriers
        carrier = carriers.pop() if carriers else Carrier(self)
        cbs = carrier._cbs
        cbs[0] = callback
        carrier.callbacks = cbs
        carrier._ok = True
        carrier._value = None
        carrier._defused = False
        heapq.heappush(self._heap, (self._now + delay, _NORMAL | self._seq(), carrier))
        return carrier

    def _recycle(self, carrier: Carrier) -> None:
        """Return a consumed carrier to the free list (bounded);
        ``Process._resume`` does the same inline."""
        if len(self._carriers) < _CARRIER_POOL_MAX:
            carrier._cbs[0] = None  # a pooled carrier pins nothing
            self._carriers.append(carrier)

    def _withdrawn_timer(self) -> None:
        """Account for one :meth:`Timeout.cancel`; rebuild the queue when
        withdrawn entries dominate it."""
        self._withdrawn = withdrawn = self._withdrawn + 1
        if (withdrawn > _COMPACT_MIN
                and 2 * withdrawn > len(self._heap)
                and self._may_compact):
            self._compact()

    def _compact(self) -> None:
        """Drop every withdrawn entry — in place: a running dispatch
        loop holds the list in a local."""
        heap = self._heap
        heap[:] = [e for e in heap if e[2].callbacks is not None]
        heapq.heapify(heap)
        self._withdrawn = 0

    def peek(self) -> float:
        """Time of the next scheduled event, or ``INFINITY`` if none."""
        return self._heap[0][0] if self._heap else INFINITY

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("step() on an empty event queue")
        when, _key, event = heapq.heappop(self._heap)
        if when < self._now:
            raise SimulationError("event queue corrupted: time went backwards")
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:  # None: a withdrawn timer
            for callback in callbacks:
                if callback is not None:
                    callback(event)
        if not event._ok and not event.defused:
            exc = event._value
            raise exc

    def close(self) -> None:
        """End this world: let go of everything a run left pending.

        A process still waiting at the horizon and the event it waits on
        reference each other, and its generator frame pins the rest of
        the world; left alone, only a later full collection frees them.
        Closing detaches every live process — its resume callback, its
        target, its waiters and its generator, which Python then
        finalizes here (``finally`` blocks run now, once) — and empties
        the event list and the carrier pool, so a finished world is
        freed by reference count.  Read the results first: a ``finally``
        block may still touch the world.  Closing twice does nothing;
        :meth:`run` after :meth:`close` raises :class:`SimulationError`.
        """
        if self._closed:
            return
        self._closed = True
        live = self._live
        while live:  # a finalizer may start another process
            process = next(iter(live))
            del live[process]
            process._resume_cb = None
            process._target = None
            process.callbacks = None
            process.generator = None  # finalized now, if nothing else holds it
        self._heap.clear()
        self._carriers.clear()

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, ``until`` time passes, or an event fires.

        * ``until`` is ``None``: run to queue exhaustion.
        * ``until`` is a number: run events with ``time <= until``; the
          clock finishes at exactly ``until``.
        * ``until`` is an :class:`Event`: run until it is processed and
          return its value (raising if it failed).

        The modes share one loop — :meth:`step` inlined, the hottest path
        in every experiment — and differ in set-up and epilogue only.  The
        heap invariant and the negative-delay check where a delay is taken
        (``_schedule``, ``later``, ``reserve``) guarantee time
        never runs backwards here.  ``self._now`` is only
        stored when an observer exists (callbacks about to run, or an
        error about to raise) — between empty-callback events nothing can
        read the clock.
        """
        if self._closed:
            raise SimulationError("run() on a closed engine")
        heap = self._heap
        pop = heapq.heappop
        horizon = INFINITY
        done: list[Event] = []
        stop = until if isinstance(until, Event) else None
        if stop is not None:
            if stop.processed:
                done.append(stop)
            else:
                stop.callbacks.append(done.append)
        elif until is not None:
            horizon = float(until)
            if not horizon >= self._now:  # this way round: NaN is refused too
                raise SimulationError(f"run(until={horizon}) is in the past (now={self._now})")
        last = self._now
        while heap and not done and heap[0][0] <= horizon:
            when, _key, event = pop(heap)
            callbacks = event.callbacks
            if callbacks is None:
                # A withdrawn timer: the final clock must not depend
                # on whether a rebuild dropped it first.
                continue
            last = when
            event.callbacks = None
            if callbacks:
                self._now = when
                for callback in callbacks:
                    if callback is not None:
                        callback(event)
            if not event._ok and not event._defused:
                self._now = when
                raise event._value
        if stop is None:
            self._now = last if until is None else horizon
            return None
        if not done:
            raise SimulationError("run(until=event): queue drained before event fired")
        if stop.ok:
            return stop.value
        stop.defuse()
        raise stop.value

    def run_budgeted(
        self,
        until: Event,
        max_events: Optional[int] = None,
        horizon: Optional[float] = None,
    ) -> tuple[Any, int]:
        """Run until ``until`` fires, under an event cap and a time cap.

        The service sandbox's enforcement point: unlike :meth:`run`, this
        loop is built from :meth:`step` (one bounds check per event, the
        hot inlined loop stays untouched) and refuses to dispatch more
        than ``max_events`` events or to advance the clock past
        ``horizon`` simulated seconds, raising
        :class:`~repro.core.errors.BudgetExceeded` instead.  Returns
        ``(value, events_dispatched)`` — the budget actually consumed is
        part of the result so callers can report it.

        A withdrawn timer is one event here if the run reaches it and
        none if it does not; a reserved key never queued is none.  Which
        of the first two is only known at the end, so no rebuild may drop
        entries meanwhile: the count (a result byte of the service) must
        not depend on when compaction would have happened.
        """
        if self._closed:
            raise SimulationError("run_budgeted() on a closed engine")
        events = 0
        self._may_compact = False
        try:
            while not until.processed:
                when = self.peek()
                if when == INFINITY:
                    raise SimulationError(
                        "run_budgeted: queue drained before event fired"
                    )
                if horizon is not None and when > horizon:
                    raise BudgetExceeded(
                        "sim-time", horizon,
                        f"simulated-time budget exceeded ({horizon:g}s)", events,
                    )
                if max_events is not None and events >= max_events:
                    raise BudgetExceeded(
                        "events", max_events,
                        f"event budget exceeded ({max_events} events)", events,
                    )
                self.step()
                events += 1
        finally:
            self._may_compact = True
        if until.ok:
            return until.value, events
        until.defuse()
        raise until.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Engine now={self._now:g} queued={len(self._heap)}>"
