"""The discrete-event engine: a two-tier event list and a virtual clock.

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
* The event list is two-tiered: ``_heap`` receives every ``_schedule``
  (a binary heap, as before), but whenever the dispatch loop finds the
  heap has grown past a small threshold with nothing else pending it
  sorts the backlog *once* into ``_run`` — a descending-sorted list
  drained from the tail.  Popping a Python list tail is several times
  faster than ``heappop`` (no sift-down, no per-level tuple compares),
  so bulk workloads (the figure sweeps pre-schedule thousands of
  timeouts) dispatch at array speed while incremental scheduling keeps
  heap semantics.  Correctness does not depend on which tier an entry
  sits in: the loop always dispatches the smaller of the run tail and
  the heap head under the full ``(time, pseq)`` key.
* Cancellation is O(1) and comes in two forms.  A *waiter* that stops
  waiting (see :meth:`Process._resume`) nulls its slot in the event's
  callback list instead of ``list.remove`` — callback lists may contain
  ``None`` tombstones and the dispatch loops skip them; the event itself
  stays live for its other waiters.  The *owner* of a private timer that
  lost its race withdraws the whole timer (:meth:`Timeout.cancel`):
  ``callbacks`` becomes ``None``, which every dispatch loop reads as
  "nothing to run", so whatever waited on it is freed at once.  The
  withdrawn entry stays queued — nothing is searched for — and the engine
  counts such entries; once they exceed :data:`_COMPACT_MIN` *and* half
  of the queue, both tiers are filtered in place and the heap rebuilt
  (lazy deletion with periodic rebuild: each pass costs at most twice the
  cancels that paid for it).  Dropping entries cannot reorder the rest:
  every key is unique, so pop order is a function of the set alone.
* A failed event that nobody defused re-raises at the engine loop:
  errors crash loudly instead of vanishing.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Optional

from ..core.errors import BudgetExceeded, SimulationError
from .events import AllOf, AnyOf, Carrier, Event, Timeout
from .process import Process, ProcessGenerator
from .rng import RandomStreams

#: Ordinary event priority; interrupts use :data:`PRIORITY_URGENT`.
PRIORITY_NORMAL = 1
PRIORITY_URGENT = 0

#: Bits reserved for the sequence counter below the packed priority.
_SEQ_BITS = 62

#: Value returned by :meth:`Engine.peek` when no events remain.
INFINITY = float("inf")

#: Heap backlogs larger than this are sorted into the fast run tier
#: when the run is empty (below it, plain heappop wins).
_MIGRATE_MIN = 16

#: Withdrawn timers are left queued until there are more than this many
#: (below it a rebuild costs more than carrying them) and they outnumber
#: the live entries.
_COMPACT_MIN = 64

#: Upper bound on the carrier free list (enough for any realistic
#: number of simultaneously in-flight resumes; excess is left to GC).
_CARRIER_POOL_MAX = 64


class Engine:
    """Owns the virtual clock and runs events in time order."""

    def __init__(
        self,
        start_time: float = 0.0,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self._now = start_time
        #: Descending-sorted fast tier, drained from the tail.
        self._run: list[tuple[float, int, Event]] = []
        #: Insertion tier: a binary heap fed by :meth:`_schedule`.
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
        if delay < 0:
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
        heapq.heappush(
            self._heap,
            (self._now, priority << _SEQ_BITS | self._seq(), carrier),
        )
        return carrier

    def _recycle(self, carrier: Carrier) -> None:
        """Return a consumed carrier to the free list (bounded)."""
        if len(self._carriers) < _CARRIER_POOL_MAX:
            self._carriers.append(carrier)

    def _withdrawn_timer(self) -> None:
        """Account for one :meth:`Timeout.cancel`; rebuild the queue when
        withdrawn entries dominate it."""
        self._withdrawn = withdrawn = self._withdrawn + 1
        if (withdrawn > _COMPACT_MIN
                and 2 * withdrawn > len(self._heap) + len(self._run)
                and self._may_compact):
            self._compact()

    def _compact(self) -> None:
        """Drop every withdrawn entry from both tiers — in place: a
        running dispatch loop holds the two lists in locals."""
        run_ = self._run
        heap = self._heap
        run_[:] = [e for e in run_ if e[2].callbacks is not None]
        heap[:] = [e for e in heap if e[2].callbacks is not None]
        heapq.heapify(heap)
        self._withdrawn = 0

    def peek(self) -> float:
        """Time of the next scheduled event, or ``INFINITY`` if none."""
        if self._run:
            run_head = self._run[-1][0]
            return min(run_head, self._heap[0][0]) if self._heap else run_head
        return self._heap[0][0] if self._heap else INFINITY

    def _pop_entry(self) -> tuple[float, int, Event]:
        """Remove and return the globally smallest entry (callers guard
        against emptiness)."""
        run_ = self._run
        heap = self._heap
        if run_:
            if heap and heap[0] < run_[-1]:
                return heapq.heappop(heap)
            return run_.pop()
        return heapq.heappop(heap)

    def step(self) -> None:
        """Process exactly one event."""
        if not self._run and not self._heap:
            raise SimulationError("step() on an empty event queue")
        when, _key, event = self._pop_entry()
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

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, ``until`` time passes, or an event fires.

        * ``until`` is ``None``: run to queue exhaustion.
        * ``until`` is a number: run events with ``time <= until``; the
          clock finishes at exactly ``until``.
        * ``until`` is an :class:`Event`: run until it is processed and
          return its value (raising if it failed).

        The dispatch loops are :meth:`step` inlined with both queue tiers
        bound to locals: this is the hottest path in every experiment
        (see ``benchmarks/bench_micro.py``).  The heap invariant, the
        descending sort of the run tier, and the no-negative-delay check
        in :meth:`_schedule` together guarantee time never runs
        backwards here.  ``self._now`` is only stored when an observer
        exists (callbacks about to run, or an error about to raise) —
        between empty-callback events nothing can read the clock.
        """
        run_ = self._run
        heap = self._heap
        pop = heapq.heappop

        if until is None:
            when = self._now
            while True:
                if run_:
                    entry = run_[-1]
                    if heap and heap[0] < entry:
                        entry = pop(heap)
                    else:
                        del run_[-1]
                elif heap:
                    if len(heap) > _MIGRATE_MIN:
                        heap.sort(reverse=True)
                        run_.extend(heap)
                        del heap[:]
                        entry = run_.pop()
                    else:
                        entry = pop(heap)
                else:
                    break
                event = entry[2]
                callbacks = event.callbacks
                if callbacks is None:
                    # A withdrawn timer: the final clock must not depend
                    # on whether a rebuild dropped it first.
                    continue
                when = entry[0]
                event.callbacks = None
                if callbacks:
                    self._now = when
                    for callback in callbacks:
                        if callback is not None:
                            callback(event)
                if not event._ok and not event._defused:
                    self._now = when
                    raise event._value
            self._now = when
            return None

        if isinstance(until, Event):
            stop = until
            if stop.processed:
                if stop.ok:
                    return stop.value
                stop.defuse()
                raise stop.value
            done: list[Event] = []
            stop.callbacks.append(done.append)
            while not done:
                if run_:
                    entry = run_[-1]
                    if heap and heap[0] < entry:
                        entry = pop(heap)
                    else:
                        del run_[-1]
                elif heap:
                    if len(heap) > _MIGRATE_MIN:
                        heap.sort(reverse=True)
                        run_.extend(heap)
                        del heap[:]
                        entry = run_.pop()
                    else:
                        entry = pop(heap)
                else:
                    raise SimulationError(
                        "run(until=event): queue drained before event fired"
                    )
                when, _key, event = entry
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    self._now = when
                    for callback in callbacks:
                        if callback is not None:
                            callback(event)
                if not event._ok and not event._defused:
                    self._now = when
                    raise event._value
            if stop.ok:
                return stop.value
            stop.defuse()
            raise stop.value

        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"run(until={horizon}) is in the past (now={self._now})"
            )
        while True:
            if run_:
                entry = run_[-1]
                if heap and heap[0] < entry:
                    if heap[0][0] > horizon:
                        break
                    entry = pop(heap)
                else:
                    if entry[0] > horizon:
                        break
                    del run_[-1]
            elif heap:
                if heap[0][0] > horizon:
                    break
                if len(heap) > _MIGRATE_MIN:
                    # Only the entries due by the horizon need sorting into
                    # the run tier; the rest stay behind as a (re-heapified)
                    # backlog for a later run() call.  Sorting the due slice
                    # plus an O(n) heapify of the remainder measures faster
                    # than one n-log-n sort of the whole backlog.
                    due = [e for e in heap if e[0] <= horizon]
                    if len(due) < len(heap):
                        heap[:] = [e for e in heap if e[0] > horizon]
                        heapq.heapify(heap)
                    else:
                        del heap[:]
                    due.sort(reverse=True)
                    run_.extend(due)
                    entry = run_.pop()
                else:
                    entry = pop(heap)
            else:
                break
            when, _key, event = entry
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks:
                self._now = when
                for callback in callbacks:
                    if callback is not None:
                        callback(event)
            if not event._ok and not event._defused:
                self._now = when
                raise event._value
        self._now = horizon
        return None

    def run_budgeted(
        self,
        until: Event,
        max_events: Optional[int] = None,
        horizon: Optional[float] = None,
    ) -> tuple[Any, int]:
        """Run until ``until`` fires, under an event cap and a time cap.

        The service sandbox's enforcement point: unlike :meth:`run`, this
        loop is built from :meth:`step` (one bounds check per event, the
        hot inlined loops stay untouched) and refuses to dispatch more
        than ``max_events`` events or to advance the clock past
        ``horizon`` simulated seconds, raising
        :class:`~repro.core.errors.BudgetExceeded` instead.  Returns
        ``(value, events_dispatched)`` — the budget actually consumed is
        part of the result so callers can report it.

        A withdrawn timer is one event here, as it was while it still
        ran a no-op callback, if the run reaches it and none if it does
        not.  Which of the two is only known at the end, so no rebuild
        may drop entries meanwhile: the count (a result byte of the
        service) must not depend on when compaction would have happened.
        The cap itself bounds what is carried.
        """
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
                        f"simulated-time budget exceeded ({horizon:g}s)",
                    )
                if max_events is not None and events >= max_events:
                    raise BudgetExceeded(
                        "events", max_events,
                        f"event budget exceeded ({max_events} events)",
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
        queued = len(self._run) + len(self._heap)
        return f"<Engine now={self._now:g} queued={queued}>"
