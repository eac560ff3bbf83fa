"""The bundle every instrumented layer accepts: tracer + metrics + clock.

``Observability`` is deliberately tiny — it exists so call sites take
one optional argument instead of three, and so the disabled default
(:data:`NULL_OBS`) can be passed around freely without ``if obs:``
checks at every instrumentation point.

The ``ftsh_*`` metrics are a view of the spans: the interpreter opens
and closes spans only, and the :class:`SpanFold`
tracer an ``Observability`` builds counts each span into the metric it
stands for.  This module is the one place that rule lives.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from .clock import Clock, wall_clock
from .metrics import MetricsRegistry, NULL_METRICS, NullMetrics
from .spans import NULL_TRACER, STATUS_OK, NullTracer, Span, Tracer

#: Span kinds whose *start* is counted (``script`` only registers the
#: families, so a run that starts a script exports all ten).
_COUNTED_AT_START = frozenset(
    ("script", "attempt", "backoff", "catch", "alt", "branch"))

#: ``ftsh_scripts_total``'s ``result`` label for each script span status.
_SCRIPT_RESULT = {"ok": "success", "failed": "failure",
                  "timeout": "timeout", "cancelled": "cancelled"}


class _FtshFamilies:
    """The ten ``ftsh_*`` families, registered on one registry."""

    __slots__ = (
        "scripts", "commands", "command_seconds", "attempts", "backoffs",
        "backoff_seconds", "exhausted", "catches", "forany_picks",
        "forall_branches",
    )

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.scripts = metrics.counter(
            "ftsh_scripts_total", "scripts finished", labels=("result",))
        self.commands = metrics.counter(
            "ftsh_commands_total", "commands run", labels=("command", "outcome"))
        self.command_seconds = metrics.histogram(
            "ftsh_command_seconds", "command wall/virtual time",
            labels=("command",))
        self.attempts = metrics.counter(
            "ftsh_try_attempts_total", "try-block attempts started")
        self.backoffs = metrics.counter(
            "ftsh_backoff_initiations_total",
            "backoff sleeps begun (the administrator overload signal)")
        self.backoff_seconds = metrics.histogram(
            "ftsh_backoff_seconds", "backoff delay chosen by the policy")
        self.exhausted = metrics.counter(
            "ftsh_try_exhausted_total", "try blocks that ran out of budget")
        self.catches = metrics.counter(
            "ftsh_catch_entered_total", "catch blocks entered")
        self.forany_picks = metrics.counter(
            "ftsh_forany_picks_total", "forany alternatives attempted")
        self.forall_branches = metrics.counter(
            "ftsh_forall_branches_total", "forall branches spawned")


class SpanFold(Tracer):
    """A tracer that folds every span into metrics as it opens and closes.

    On start, ``attempt``, ``backoff`` (its ``delay`` feeds
    ``ftsh_backoff_seconds``), ``catch``, ``alt`` and ``branch`` spans
    are counted; on finish, ``script`` by status, ``command`` by status
    (with its duration when ``ok``) and ``try`` spans that end other
    than a plain ``ok`` (``ftsh_try_exhausted_total``: budget run out,
    caught or not, or unwound by a timeout or a cancellation).

    It also keeps the running totals :func:`repro.obs.push.span_counters`
    ships: :attr:`started` (dropped spans included), :attr:`busy`
    (summed ``command`` durations) and the window from :attr:`first`
    to :attr:`last`.
    """

    def __init__(self, metrics: MetricsRegistry, clock: Optional[Clock] = None,
                 max_spans: int = 250_000) -> None:
        super().__init__(clock=clock, max_spans=max_spans)
        self.busy = 0.0
        self.first = math.inf
        self.last = -math.inf
        self._metrics = metrics
        self._ftsh: Optional[_FtshFamilies] = None

    def _families(self) -> _FtshFamilies:
        if self._ftsh is None:
            self._ftsh = _FtshFamilies(self._metrics)
        return self._ftsh

    def _opened(self, span: Span) -> None:
        at = span.start
        if at < self.first:
            self.first = at
        if at > self.last:
            self.last = at
        kind = span.kind
        if kind in _COUNTED_AT_START:
            ftsh = self._families()
            if kind == "attempt":
                ftsh.attempts.inc()
            elif kind == "backoff":
                ftsh.backoffs.inc()
                ftsh.backoff_seconds.observe(span.attrs.get("delay", 0.0))
            elif kind == "catch":
                ftsh.catches.inc()
            elif kind == "alt":
                ftsh.forany_picks.inc()
            elif kind == "branch":
                ftsh.forall_branches.inc()

    def _closed(self, span: Span) -> None:
        kind, status = span.kind, span.status
        with self._lock:
            if span.end > self.last:
                self.last = span.end
            if kind == "command":
                duration = span.end - span.start
                self.busy += duration
                ftsh = self._families()
                command = span.name.partition(":")[2]
                ftsh.commands.labels(command=command, outcome=status).inc()
                if status == STATUS_OK:
                    ftsh.command_seconds.labels(command=command).observe(
                        duration)
            elif kind == "script":
                self._families().scripts.labels(
                    result=_SCRIPT_RESULT.get(status, status)).inc()
            elif kind == "try" and (status != STATUS_OK
                                    or span.attrs.get("caught")):
                self._families().exhausted.inc()


class Observability:
    """One run's telemetry context: a tracer and a metrics registry.

    The tracer stamps spans with the clock installed by
    :meth:`set_clock` (drivers and shells install theirs exactly as they
    do for ``ShellLog``); the registry keeps current values only.
    """

    enabled = True

    def __init__(
        self,
        clock: Optional[Clock] = None,
        const_labels: Optional[Mapping[str, str]] = None,
        max_spans: int = 250_000,
    ) -> None:
        self.metrics = MetricsRegistry(const_labels=const_labels)
        self.tracer = SpanFold(self.metrics, clock=clock, max_spans=max_spans)

    def set_clock(self, clock: Clock) -> None:
        self.tracer.set_clock(clock)

    @classmethod
    def wall(cls, **kwargs) -> "Observability":
        """An Observability stamped with monotonic wall-clock seconds."""
        return cls(clock=wall_clock(), **kwargs)


class NullObservability:
    """The disabled context: every operation is a near-free no-op."""

    enabled = False
    tracer: NullTracer = NULL_TRACER
    metrics: NullMetrics = NULL_METRICS

    __slots__ = ()

    def set_clock(self, clock: Clock) -> None:
        pass


NULL_OBS = NullObservability()


def coalesce(obs: Optional[Observability]) -> "Observability | NullObservability":
    """``obs`` if given, else the shared null context."""
    return obs if obs is not None else NULL_OBS
