"""Hierarchical spans: what happened, inside what, for how long.

A :class:`Span` is one timed region of a run — a script execution, one
``try`` construct, one attempt inside it, one command, one backoff
sleep.  Spans form a tree through ``parent_id``; the
:class:`~repro.core.interpreter.Interpreter` maintains the current
parent as it evaluates, so the tree mirrors the script's dynamic
structure identically under the real and simulated drivers.

The :class:`Tracer` is a sink: it stamps spans with its installed clock
(see :mod:`repro.obs.clock`), assigns ids, and keeps the finished list.
It is thread-safe because ``forall`` branches run as threads under the
real driver.  :data:`NULL_TRACER` is the zero-cost disabled variant.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from .clock import Clock, zero_clock

STATUS_OPEN = "open"
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_CANCELLED = "cancelled"


@dataclass(slots=True)
class Span:
    """One timed, named region; a node in the trace tree."""

    span_id: int
    parent_id: Optional[int]
    name: str
    kind: str
    start: float
    end: Optional[float] = None
    status: str = STATUS_OPEN
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Seconds from start to finish (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def finished(self) -> bool:
        return self.end is not None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (the JSONL exporter's row)."""
        row: dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "status": self.status,
        }
        if self.attrs:
            row["attrs"] = self.attrs
        return row

    @classmethod
    def from_dict(cls, row: dict[str, Any]) -> "Span":
        return cls(
            span_id=int(row["span_id"]),
            parent_id=row.get("parent_id"),
            name=str(row.get("name", "")),
            kind=str(row.get("kind", "")),
            start=float(row.get("start", 0.0)),
            end=row.get("end"),
            status=str(row.get("status", STATUS_OPEN)),
            attrs=dict(row.get("attrs") or {}),
        )


class Tracer:
    """Collects spans; thread-safe, capped, clock-pluggable."""

    enabled = True

    def __init__(self, clock: Optional[Clock] = None, max_spans: int = 250_000) -> None:
        self.clock: Clock = clock or zero_clock
        self.spans: list[Span] = []
        self.max_spans = max_spans
        #: Spans started, the ones dropped past ``max_spans`` included.
        self.started = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def set_clock(self, clock: Clock) -> None:
        """Install the run's clock (drivers call this before running)."""
        self.clock = clock

    # ------------------------------------------------------------------
    def start(self, name: str, kind: str, parent: Optional[Span] = None,
              **attrs: Any) -> Span:
        """Open a span now.  Returns it; callers must :meth:`finish` it."""
        span = Span(
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            kind=kind,
            start=self.clock(),
            attrs={k: v for k, v in attrs.items() if v is not None},
        )
        with self._lock:
            self.started += 1
            if len(self.spans) < self.max_spans:
                self.spans.append(span)
            self._opened(span)
        return span

    def finish(self, span: Span, status: str = STATUS_OK, **attrs: Any) -> None:
        """Close a span now; idempotent (the first finish wins)."""
        if span.end is not None:
            return
        span.end = self.clock()
        span.status = status
        for key, value in attrs.items():
            if value is not None:
                span.attrs[key] = value
        self._closed(span)

    def _opened(self, span: Span) -> None:
        """Hook: ``span`` just opened (called under the tracer's lock)."""

    def _closed(self, span: Span) -> None:
        """Hook: ``span`` just closed, once (called without the lock)."""

    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Spans discarded after hitting ``max_spans``."""
        return self.started - len(self.spans)

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def roots(self) -> list[Span]:
        """Spans with no recorded parent, in start order."""
        known = {span.span_id for span in self.spans}
        return [s for s in self.spans
                if s.parent_id is None or s.parent_id not in known]

    def children(self, span: Span) -> list[Span]:
        """Direct children of ``span``, in start order."""
        return [s for s in self.spans if s.parent_id == span.span_id]

    def structure(self) -> tuple:
        """The timing-free shape of the trace: nested (kind, name, status).

        Two runs of the same script under different drivers should
        produce *equal* structures — that is the cross-runtime guarantee
        the differential tests assert.
        """
        index: dict[Optional[int], list[Span]] = {}
        known = {span.span_id for span in self.spans}
        for span in self.spans:
            parent = span.parent_id if span.parent_id in known else None
            index.setdefault(parent, []).append(span)

        def node(span: Span) -> tuple:
            kids = tuple(node(c) for c in index.get(span.span_id, ()))
            return (span.kind, span.name, span.status, kids)

        return tuple(node(root) for root in index.get(None, ()))


class NullTracer:
    """Disabled tracer: every operation is a near-free no-op."""

    enabled = False
    spans: tuple = ()
    dropped = 0

    __slots__ = ()

    def set_clock(self, clock: Clock) -> None:
        pass

    def start(self, name: str, kind: str, parent: Optional[Span] = None,
              **attrs: Any) -> Span:
        return _NULL_SPAN

    def finish(self, span: Span, status: str = STATUS_OK, **attrs: Any) -> None:
        pass

    def roots(self) -> list[Span]:
        return []

    def children(self, span: Span) -> list[Span]:
        return []

    def structure(self) -> tuple:
        return ()

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[Span]:
        return iter(())


#: Shared placeholder returned by :class:`NullTracer.start`; never stored.
_NULL_SPAN = Span(span_id=0, parent_id=None, name="", kind="", start=0.0,
                  end=0.0, status=STATUS_OK)

NULL_TRACER = NullTracer()
