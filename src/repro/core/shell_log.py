"""Structured execution log.

The paper (§4): "While executing a script, ftsh keeps a log of varying
detail about the program.  Online or post-mortem analysis may determine
more detailed reasons for process failure, the exact resources used …,
the frequency of each failure branch, and so forth."  And §5: backoff
initiations "should be logged and noted to administrators so that
persistent overloads may be accommodated."

:class:`ShellLog` records typed events with timestamps from whatever
clock the driver uses.  Every event it records is counted, kept or not.
The default log is a counter (``level=LOG_RESULTS, max_events=0``): it
stores no event while :meth:`ShellLog.backoff_initiations` stays exact,
so a campaign cell, the service sandbox or any shell nobody configured
runs in bounded memory.  A transcript is asked for by name, with
``max_events=TRANSCRIPT_EVENTS`` and the level to keep — ``ftsh --log``
and the tests that read ``events`` do.  The post-mortem report
(``ftsh --analyze``, :mod:`repro.obs.report`) reads the run's spans,
not this log.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional


#: Verbosity tiers for "a log of varying detail" (paper §4).  Each event
#: kind has a level; a ShellLog records only events at or below its own.
LOG_RESULTS = 0    # script results + the overload alarm (backoffs, §5)
LOG_COMMANDS = 1   # + command lifecycle and construct outcomes
LOG_TRACE = 2      # + per-attempt detail (attempts, picks, conditions)

#: The cap a transcript is kept under: past it events are counted, not kept.
TRANSCRIPT_EVENTS = 1_000_000


class EventKind(enum.Enum):
    COMMAND_START = "command-start"
    COMMAND_END = "command-end"
    COMMAND_FAILED = "command-failed"
    COMMAND_TIMEOUT = "command-timeout"
    TRY_ATTEMPT = "try-attempt"
    TRY_BACKOFF = "try-backoff"       # the administrator-visible signal
    TRY_EXHAUSTED = "try-exhausted"
    TRY_SUCCESS = "try-success"
    CATCH_ENTERED = "catch-entered"
    FORANY_PICK = "forany-pick"
    FORALL_SPAWN = "forall-spawn"
    BRANCH_CANCELLED = "branch-cancelled"
    FAILURE_ATOM = "failure-atom"
    ASSIGNMENT = "assignment"
    CONDITION = "condition"
    SCRIPT_RESULT = "script-result"


def _assign_levels() -> None:
    """Give every kind its verbosity tier (``kind.level``) and its slot
    in a log's tally (``kind.index``) as plain attributes, so
    :meth:`ShellLog.record` never hashes an enum member."""
    for index, kind in enumerate(EventKind):
        kind.index = index
    for kind in (
        EventKind.SCRIPT_RESULT,
        EventKind.TRY_BACKOFF,   # the administrator overload signal
    ):
        kind.level = LOG_RESULTS
    for kind in (
        EventKind.COMMAND_START,
        EventKind.COMMAND_END,
        EventKind.COMMAND_FAILED,
        EventKind.COMMAND_TIMEOUT,
        EventKind.TRY_SUCCESS,
        EventKind.TRY_EXHAUSTED,
        EventKind.CATCH_ENTERED,
        EventKind.FAILURE_ATOM,
    ):
        kind.level = LOG_COMMANDS
    for kind in (
        EventKind.TRY_ATTEMPT,
        EventKind.FORANY_PICK,
        EventKind.FORALL_SPAWN,
        EventKind.BRANCH_CANCELLED,
        EventKind.ASSIGNMENT,
        EventKind.CONDITION,
    ):
        kind.level = LOG_TRACE


_assign_levels()


@dataclass(frozen=True, slots=True)
class LogEvent:
    time: float
    kind: EventKind
    detail: str = ""
    line: int = 0
    #: Optional numeric payload (e.g. a backoff delay in seconds),
    #: machine-readable for post-mortem analysis.
    value: Optional[float] = None

    def __str__(self) -> str:
        return f"[{self.time:12.6f}] {self.kind.value:<17} {self.detail}"


class ShellLog:
    """Append-only event log with counting helpers; by default a counter."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_events: int = 0,
        level: int = LOG_RESULTS,
    ) -> None:
        #: Clock used to stamp kept events.
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self.events: list[LogEvent] = []
        #: Events kept at most; 0 (default) keeps none and only counts.
        self.max_events = max_events
        #: Verbosity: LOG_RESULTS (default), LOG_COMMANDS, or LOG_TRACE.
        self.level = level
        #: Events recorded per kind (by ``kind.index``), kept or dropped
        #: past the cap alike: the counts stay exact when ``events``
        #: stops growing.
        self._tally = [0] * len(EventKind)

    def record(self, kind: EventKind, detail: str = "", line: int = 0,
               value: Optional[float] = None) -> None:
        if kind.level > self.level:
            return
        self._tally[kind.index] += 1
        if len(self.events) < self.max_events:
            self.events.append(LogEvent(self.clock(), kind, detail, line, value))

    @property
    def dropped(self) -> int:
        """Events recorded but not kept (past ``max_events``)."""
        return sum(self._tally) - len(self.events)

    def count(self, kind: EventKind) -> int:
        """Events of ``kind`` recorded, including any dropped past the cap."""
        return self._tally[kind.index]

    def counts(self) -> dict[EventKind, int]:
        return {kind: n for kind, n in zip(EventKind, self._tally) if n}

    def backoff_initiations(self) -> int:
        """How often a client backed off — the paper's overload alarm."""
        return self.count(EventKind.TRY_BACKOFF)

    def summary(self) -> str:
        """A human-readable digest for post-mortem analysis."""
        lines = ["ftsh execution log summary:"]
        for kind, count in sorted(self.counts().items(), key=lambda kv: kv[0].value):
            lines.append(f"  {kind.value:<17} {count}")
        # A counter keeps nothing by design; only a transcript drops.
        dropped = self.dropped if self.max_events else 0
        if dropped:
            lines.append(f"  (dropped {dropped} events past cap)")
        return "\n".join(lines)

    def dump(self) -> str:
        """Every event, one per line."""
        return "\n".join(str(event) for event in self.events)

    def __len__(self) -> int:
        return len(self.events)
