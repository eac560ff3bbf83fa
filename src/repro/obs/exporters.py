"""Exporters: JSONL spans, Chrome ``trace_event`` JSON, Prometheus text.

Three write-only views of one run's telemetry:

* :func:`spans_jsonl` — one JSON object per line, one line per span;
  the archival format :mod:`repro.obs.report` can read back.
* :func:`chrome_trace_json` — the Trace Event Format understood by
  chrome://tracing and https://ui.perfetto.dev: complete ("X") events
  with microsecond timestamps, one track (tid) per root span, so a
  500-client run shows each script's try/attempt/backoff/command
  nesting as a flame graph.
* :func:`prometheus_text` — the text exposition format, suitable for
  ``promtool check metrics``-style tooling or a textfile collector.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Iterable, Union

from .metrics import COUNTER, GAUGE, HISTOGRAM, MetricsRegistry
from .spans import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from .api import Observability

TracerLike = Union[Tracer, Iterable[Span]]


def _spans_of(tracer: TracerLike) -> list[Span]:
    return list(tracer.spans) if isinstance(tracer, Tracer) else list(tracer)


# ---------------------------------------------------------------------------
# JSONL span log
# ---------------------------------------------------------------------------

def spans_jsonl(tracer: TracerLike) -> str:
    """One JSON object per line, in start order."""
    return "\n".join(json.dumps(span.to_dict(), sort_keys=True)
                     for span in _spans_of(tracer))


def write_spans_jsonl(tracer: TracerLike, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        text = spans_jsonl(tracer)
        handle.write(text + ("\n" if text else ""))


def read_spans_jsonl(path: str) -> list[Span]:
    """Load a span log written by :func:`write_spans_jsonl`."""
    spans: list[Span] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


# ---------------------------------------------------------------------------
# Chrome trace_event JSON
# ---------------------------------------------------------------------------

def chrome_trace_events(tracer: TracerLike, pid: int = 1) -> list[dict[str, Any]]:
    """Trace Event Format rows (the JSON-array flavour).

    Each finished span becomes a complete ("X") event; still-open spans
    become instant ("i") marks.  Timestamps are microseconds on the
    run's clock.  Every root span gets its own thread id so concurrent
    scripts/branches land on separate tracks.
    """
    spans = _spans_of(tracer)
    known = {span.span_id: span for span in spans}

    def track_of(span: Span) -> int:
        seen = set()
        current = span
        while (current.parent_id in known) and (current.span_id not in seen):
            seen.add(current.span_id)
            current = known[current.parent_id]
        return current.span_id

    events: list[dict[str, Any]] = []
    for span in spans:
        args = dict(span.attrs)
        args["status"] = span.status
        row: dict[str, Any] = {
            "name": span.name,
            "cat": span.kind,
            "pid": pid,
            "tid": track_of(span),
            "ts": round(span.start * 1e6, 3),
            "args": args,
        }
        if span.finished:
            row["ph"] = "X"
            row["dur"] = round(span.duration * 1e6, 3)
        else:
            row["ph"] = "i"
            row["s"] = "t"
        events.append(row)
    return events


def chrome_trace_json(tracer: TracerLike, pid: int = 1) -> str:
    return json.dumps(chrome_trace_events(tracer, pid=pid), indent=None)


def write_chrome_trace(tracer: TracerLike, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(chrome_trace_json(tracer) + "\n")


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _label_text(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{name}="{_escape_label(str(value))}"'
                     for name, value in sorted(labels.items()))
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: list[str] = []
    const = registry.const_labels
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for child in family.children():
            labels = dict(const)
            labels.update(child.labels_dict())
            if family.kind == COUNTER:
                lines.append(
                    f"{family.name}{_label_text(labels)} {_format_value(child.value)}"
                )
            elif family.kind == GAUGE:
                lines.append(
                    f"{family.name}{_label_text(labels)} "
                    f"{_format_value(child.value)}"
                )
            elif family.kind == HISTOGRAM:
                for bound, cumulative in child.cumulative():
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_value(bound)
                    lines.append(
                        f"{family.name}_bucket{_label_text(bucket_labels)} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{family.name}_sum{_label_text(labels)} "
                    f"{_format_value(child.total)}"
                )
                lines.append(
                    f"{family.name}_count{_label_text(labels)} {child.count}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: MetricsRegistry, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(registry))


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------

def obs_bundle(obs: "Observability", stem: str) -> dict[str, str]:
    """Every export of one run as ``{filename: contents}``.

    Trace JSON, spans JSONL and Prometheus text, rendered where the run
    happened.  A campaign cell returns this instead of writing files, so
    the bundle travels back to the parent like any other cell result —
    a socket worker need not share a filesystem with ``--obs-dir`` —
    and the parent writes it with :func:`write_obs_files`.
    """
    spans = spans_jsonl(obs.tracer)
    return {
        f"{stem}.trace.json": chrome_trace_json(obs.tracer) + "\n",
        f"{stem}.spans.jsonl": spans + ("\n" if spans else ""),
        f"{stem}.prom": prometheus_text(obs.metrics),
    }


def _write_bundle(bundle: dict[str, str], directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths: list[str] = []
    for filename, contents in sorted(bundle.items()):
        path = os.path.join(directory, filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(contents)
        paths.append(path)
    return paths


def write_obs_bundle(obs: "Observability", directory: str, stem: str) -> list[str]:
    """Write one run's :func:`obs_bundle` into ``directory``.

    Returns the paths written, for logging.  Handy from notebooks and
    scripts; campaigns use :func:`write_obs_files`.
    """
    return _write_bundle(obs_bundle(obs, stem), directory)


def write_obs_files(directory: str,
                    bundles: Iterable[dict[str, str]]) -> list[str]:
    """Write a campaign's cell bundles, then merge them into ``combined.*``.

    Returns every path written: each bundle's files in name order, then
    the merged ones (see :func:`merge_obs_bundles`).
    """
    os.makedirs(directory, exist_ok=True)
    paths: list[str] = []
    for bundle in bundles:
        paths.extend(_write_bundle(bundle, directory))
    return paths + merge_obs_bundles(directory)


def merge_obs_bundles(directory: str, stem: str = "combined") -> list[str]:
    """Merge every per-cell bundle in ``directory`` into one.

    Parallel campaigns produce telemetry in worker processes, one
    bundle per cell; this folds the written bundles back into a
    parent-level view instead of leaving worker telemetry scattered.
    Produces:

    * ``<stem>.spans.jsonl`` — all spans, in bundle order;
    * ``<stem>.trace.json`` — one Chrome trace with one ``pid`` per
      source bundle, so cells stay visually separate;
    * ``<stem>.prom`` — all samples concatenated, HELP/TYPE headers
      deduplicated (per-cell const labels keep samples distinct).

    Returns the paths written; empty list if there is nothing to merge.
    """
    def sources(suffix: str) -> list[str]:
        return sorted(
            os.path.join(directory, name)
            for name in os.listdir(directory)
            if name.endswith(suffix) and not name.startswith(f"{stem}.")
        )

    span_files = sources(".spans.jsonl")
    prom_files = sources(".prom")
    if not span_files and not prom_files:
        return []
    written: list[str] = []

    if span_files:
        all_spans: list[Span] = []
        events: list[dict[str, Any]] = []
        for pid, path in enumerate(span_files, start=1):
            spans = read_spans_jsonl(path)
            all_spans.extend(spans)
            events.extend(chrome_trace_events(spans, pid=pid))
        spans_path = os.path.join(directory, f"{stem}.spans.jsonl")
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span in all_spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        trace_path = os.path.join(directory, f"{stem}.trace.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(events, indent=None) + "\n")
        written += [spans_path, trace_path]

    if prom_files:
        headers_seen: set[str] = set()
        lines: list[str] = []
        for path in prom_files:
            with open(path, encoding="utf-8") as handle:
                for line in handle.read().splitlines():
                    if line.startswith("#"):
                        if line in headers_seen:
                            continue
                        headers_seen.add(line)
                    lines.append(line)
        prom_path = os.path.join(directory, f"{stem}.prom")
        with open(prom_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
        written.append(prom_path)

    return written
