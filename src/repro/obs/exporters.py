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

A campaign instruments its cells through :func:`run_instrumented`, the
one path behind ``runall``'s and ``chaos``'s ``--obs-dir`` and
``--obs-push``.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Mapping,
                    Optional, Sequence, Union)

from .metrics import COUNTER, GAUGE, HISTOGRAM, MetricsRegistry
from .spans import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..parallel.executor import CellSpec
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
    happened; :func:`write_obs_bundle` writes them.
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
    scripts; campaigns use :func:`run_instrumented`.
    """
    return _write_bundle(obs_bundle(obs, stem), directory)


# ---------------------------------------------------------------------------
# Instrumented campaign cells
# ---------------------------------------------------------------------------

def instrumented_cell(fn: Callable[[Any], Any], params: Any,
                      labels: Mapping[str, str], key: str,
                      push_url: Optional[str] = None,
                      export: bool = True) -> tuple[Any, dict[str, str]]:
    """Run one campaign cell, ``fn(params)``, with its own telemetry.

    The cell runs on a copy of ``params`` whose ``obs`` is a fresh
    :class:`~repro.obs.api.Observability` const-labeled with ``labels``.
    With ``push_url`` that telemetry goes to a fleet aggregator
    (best-effort) under the cell ``key`` as its source.  Returns
    ``(value, bundle)``: the cell's own value, its live telemetry
    detached, and — with ``export`` — the cell's trace, spans,
    Prometheus text and :func:`~repro.obs.report.render_report` text as
    ``{filename: contents}``, the stem taken from the key.  Live
    telemetry never crosses a process boundary: the bundle travels back
    as the cell's result, so a socket worker need not share a
    filesystem with ``--obs-dir``.
    """
    from ..parallel.transport import strip_observability
    from .api import Observability

    obs = Observability(const_labels=dict(labels))
    value = strip_observability(fn(dataclasses.replace(params, obs=obs)))
    if push_url is not None:
        from .push import push_observability

        push_observability(push_url, obs, source=key)
    if not export:
        return value, {}
    from .report import render_report

    stem = key.replace("/", "_")
    bundle = obs_bundle(obs, stem)
    bundle[f"{stem}.report.txt"] = \
        render_report(tracer=obs.tracer, registry=obs.metrics) + "\n"
    return value, bundle


def run_instrumented(
    cells: Sequence["CellSpec"],
    instrument: Callable[["CellSpec"], Optional[Mapping[str, str]]],
    obs_dir: Optional[str] = None,
    push_url: Optional[str] = None,
    **run_options: Any,
) -> list[Any]:
    """Run a campaign's cells, the ones ``instrument`` picks with telemetry.

    ``instrument(cell)`` gives a picked cell's const labels, or ``None``
    to run it plain.  Each picked cell — its ``args`` one params object
    with an ``obs`` field — runs through :func:`instrumented_cell`,
    never cached: its point is the telemetry.  Every cell goes through
    one :func:`~repro.parallel.run_cells` call (``run_options`` are its
    ``jobs``/``cache``/``backend``/``progress``).  Each bundle is written
    under ``obs_dir`` and merged into ``combined.*``; returns the cells'
    plain values in cell order.
    """
    from ..parallel.executor import run_cells

    export = obs_dir is not None
    picked: list[int] = []
    specs = list(cells)
    for index, cell in enumerate(specs):
        labels = instrument(cell)
        if labels is not None:
            picked.append(index)
            specs[index] = dataclasses.replace(
                cell, fn=instrumented_cell, cacheable=False,
                args=(cell.fn, cell.args[0], labels, cell.key, push_url,
                      export))
    values = run_cells(specs, **run_options)
    bundles = []
    for index in picked:
        values[index], bundle = values[index]
        bundles.append(bundle)
    if export:
        os.makedirs(obs_dir, exist_ok=True)
        for bundle in bundles:
            _write_bundle(bundle, obs_dir)
        merge_obs_bundles(obs_dir)
    return values


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
