"""The post-mortem report: one digest of a run's spans.

The paper, §4: "Online or post-mortem analysis may determine more
detailed reasons for process failure, the exact resources used to
execute the program, the frequency of each failure branch, and so
forth."  :func:`render_report` digests a run's spans (live from a
:class:`~repro.obs.spans.Tracer` or reloaded from a JSONL file) plus,
optionally, its metrics registry into one administrator-facing text
block: per-kind span counts and durations, the paper's overload signal
(backoff initiations, total and largest delay), per-command outcomes,
``forany`` pick frequencies, the slowest commands and attempt depth.
Spans are recorded at every log level, so the report is whole whatever
the run's ``ShellLog`` kept.  ``ftsh --analyze`` and the REPL's
``:analyze`` print it; so does the offline reader::

    python -m repro.obs.report run/figure1_ethernet.spans.jsonl
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from .exporters import read_spans_jsonl
from .metrics import COUNTER, GAUGE, HISTOGRAM, MetricsRegistry
from .spans import Span, STATUS_FAILED, STATUS_OK, STATUS_TIMEOUT, Tracer

TracerLike = Union[Tracer, Iterable[Span]]


@dataclass(slots=True)
class SpanTally:
    """Aggregate over a group of spans: one kind, or one command name."""

    key: str
    count: int = 0
    ok: int = 0
    failed: int = 0
    timeout: int = 0
    total_duration: float = 0.0
    max_duration: float = 0.0

    @property
    def mean_duration(self) -> float:
        return self.total_duration / self.count if self.count else 0.0

    @property
    def failure_rate(self) -> float:
        return (self.failed + self.timeout) / self.count if self.count else 0.0


def _tally(spans: Iterable[Span], key: Callable[[Span], str]
           ) -> dict[str, SpanTally]:
    stats: dict[str, SpanTally] = {}
    for span in spans:
        name = key(span)
        entry = stats.get(name)
        if entry is None:
            entry = stats[name] = SpanTally(name)
        entry.count += 1
        if span.status == STATUS_OK:
            entry.ok += 1
        elif span.status == STATUS_FAILED:
            entry.failed += 1
        elif span.status == STATUS_TIMEOUT:
            entry.timeout += 1
        duration = span.duration
        entry.total_duration += duration
        entry.max_duration = max(entry.max_duration, duration)
    return stats


def span_stats(tracer: TracerLike) -> dict[str, SpanTally]:
    """Per-kind aggregates, keyed by span kind."""
    return _tally(tracer, lambda span: span.kind)


def _suffix(name: str) -> str:
    """``command:sh`` -> ``sh``: the part of a span name after its kind."""
    return name.partition(":")[2]


@dataclass(slots=True)
class TraceDigest:
    """Everything :func:`render_report` derives from the span tree."""

    kinds: dict[str, SpanTally] = field(default_factory=dict)
    #: Command name -> outcomes, as ``ftsh_commands_total`` labels them.
    commands: dict[str, SpanTally] = field(default_factory=dict)
    #: ``var=value`` -> times that ``forany`` alternative was tried.
    forany_picks: dict[str, int] = field(default_factory=dict)
    slowest_commands: list[Span] = field(default_factory=list)
    deepest_tries: list[tuple[Span, int]] = field(default_factory=list)
    backoff_initiations: int = 0
    #: Sum and largest of the delays the policy chose (``delay``).
    backoff_total_wait: float = 0.0
    backoff_max_wait: float = 0.0


def digest(tracer: TracerLike, limit: int = 5) -> TraceDigest:
    spans = list(tracer)
    out = TraceDigest(kinds=span_stats(spans))

    commands = [s for s in spans if s.kind == "command"]
    out.commands = _tally(commands, lambda span: _suffix(span.name))
    finished = [s for s in commands if s.finished]
    out.slowest_commands = sorted(finished, key=lambda s: -s.duration)[:limit]

    children_of: dict[Optional[int], int] = {}
    foranys: dict[int, str] = {}
    for span in spans:
        if span.kind == "attempt":
            children_of[span.parent_id] = children_of.get(span.parent_id, 0) + 1
        elif span.kind == "forany":
            foranys[span.span_id] = _suffix(span.name)
        elif span.kind == "alt":
            pick = f"{foranys.get(span.parent_id, '?')}={_suffix(span.name)}"
            out.forany_picks[pick] = out.forany_picks.get(pick, 0) + 1
        elif span.kind == "backoff":
            delay = span.attrs.get("delay", 0.0)
            out.backoff_initiations += 1
            out.backoff_total_wait += delay
            out.backoff_max_wait = max(out.backoff_max_wait, delay)
    tries = {s.span_id: s for s in spans if s.kind == "try"}
    ranked = sorted(
        ((tries[pid], n) for pid, n in children_of.items() if pid in tries),
        key=lambda item: -item[1],
    )
    out.deepest_tries = ranked[:limit]
    return out


def _metric_lines(registry: MetricsRegistry) -> list[str]:
    lines: list[str] = []
    for family in registry.families():
        for child in family.children():
            label = ",".join(f"{k}={v}" for k, v in sorted(child.labels_dict().items()))
            suffix = f"{{{label}}}" if label else ""
            if family.kind == COUNTER:
                lines.append(f"    {family.name}{suffix} = {child.value:g}")
            elif family.kind == GAUGE:
                lines.append(f"    {family.name}{suffix} = {child.value:g}")
            elif family.kind == HISTOGRAM:
                lines.append(
                    f"    {family.name}{suffix} count={child.count} "
                    f"mean={child.mean():.3f}s max_bucket_sum={child.total:.3f}s"
                )
    return lines


def render_report(
    tracer: Optional[TracerLike] = None,
    registry: Optional[MetricsRegistry] = None,
) -> str:
    """One text block: the span sections, then the metrics."""
    lines = ["ftsh telemetry report"]

    if tracer is not None:
        trace = digest(tracer)
        lines.append("  spans (kind count ok fail timeout mean-s max-s):")
        for kind in sorted(trace.kinds):
            stats = trace.kinds[kind]
            lines.append(
                f"    {kind:<10} {stats.count:>7} {stats.ok:>7} {stats.failed:>6} "
                f"{stats.timeout:>7} {stats.mean_duration:>8.3f} "
                f"{stats.max_duration:>8.3f}"
            )
        overload = " ** OVERLOAD SIGNAL **" if trace.backoff_initiations else ""
        lines.append(
            f"  backoff: initiations={trace.backoff_initiations} "
            f"total_wait={trace.backoff_total_wait:.3f}s "
            f"max_wait={trace.backoff_max_wait:.3f}s{overload}"
        )
        if trace.commands:
            lines.append("  commands (name runs ok fail timeout fail% mean-s):")
            for stats in sorted(trace.commands.values(),
                                key=lambda s: (-s.count, s.key)):
                lines.append(
                    f"    {stats.key:<24} {stats.count:>6} {stats.ok:>6} "
                    f"{stats.failed:>6} {stats.timeout:>7} "
                    f"{100 * stats.failure_rate:>5.1f} "
                    f"{stats.mean_duration:>7.3f}"
                )
        if trace.forany_picks:
            lines.append("  forany picks (var=value times):")
            for pick, count in sorted(trace.forany_picks.items(),
                                      key=lambda kv: (-kv[1], kv[0])):
                lines.append(f"    {pick:<30} {count}")
        if trace.slowest_commands:
            lines.append("  slowest commands:")
            for span in trace.slowest_commands:
                lines.append(
                    f"    {span.duration:>9.3f}s {span.name} [{span.status}]"
                )
        if trace.deepest_tries:
            lines.append("  deepest tries (attempts):")
            for span, attempts in trace.deepest_tries:
                lines.append(
                    f"    {attempts:>4} attempts: {span.name} "
                    f"(line {span.attrs.get('line', '?')}) [{span.status}]"
                )

    if registry is not None:
        metric_lines = _metric_lines(registry)
        if metric_lines:
            lines.append("  metrics:")
            lines.extend(metric_lines)

    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    """Summarize an archived span log: ``python -m repro.obs.report FILE``."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="repro.obs.report",
        description="Summarize a .spans.jsonl telemetry file.",
    )
    parser.add_argument("spans", help="path to a spans JSONL file")
    args = parser.parse_args(argv)
    try:
        spans = read_spans_jsonl(args.spans)
    except OSError as exc:
        print(f"repro.obs.report: cannot read {args.spans}: {exc}",
              file=sys.stderr)
        return 2
    print(render_report(tracer=spans))
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
