"""repro.obs — the unified telemetry subsystem.

One instrumentation layer shared by both runtimes: the same spans and
metrics are produced whether a script runs against POSIX
(:class:`~repro.core.realruntime.RealDriver`) or in virtual time
(:class:`~repro.simruntime.driver.SimDriver`).  The trick is the same
one the interpreter itself uses: time never comes from ``time.time()``
directly but from a pluggable clock callable (see :mod:`repro.obs.clock`),
which drivers install exactly as they already do for
:class:`~repro.core.shell_log.ShellLog`.

Pieces:

* :class:`Tracer` / :class:`Span` — hierarchical spans
  (script -> try -> attempt -> command / backoff).
* :class:`MetricsRegistry` — named counters, gauges and histograms with
  label streams; the ``ftsh_*`` ones are folded from the spans and the
  ``grid_*`` ones read the substrate's own counters.
* :mod:`repro.obs.exporters` — JSONL span log, Chrome ``trace_event``
  JSON (load in chrome://tracing / Perfetto), Prometheus-style text.
* :mod:`repro.obs.report` — post-run summarizer extending
  :mod:`repro.core.analysis`.
* :class:`Observability` — the bundle everything accepts; pass
  :data:`NULL_OBS` (the default everywhere) for zero-cost no-ops.
* :mod:`repro.obs.aggregator` / :mod:`repro.obs.push` /
  :mod:`repro.obs.dashboard` — live fleet observability: many
  concurrent runs push cumulative counters to the one
  :class:`FleetAggregator` the service plane hosts, which folds them
  into per-source utilisation, collision rates and backoff
  distributions served at ``/obs/fleet``.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "aggregator": ("FleetAggregator", "merge_histograms"),
    "api": ("NULL_OBS", "NullObservability", "Observability"),
    "clock": ("Clock", "engine_clock", "wall_clock"),
    "dashboard": ("fetch_snapshot",),
    "dashboard:render_text": ("render_fleet_text",),
    "exporters": (
        "chrome_trace_events", "chrome_trace_json", "prometheus_text",
        "read_spans_jsonl", "spans_jsonl", "write_chrome_trace",
        "write_obs_bundle", "write_prometheus", "write_spans_jsonl"),
    "metrics": ("DEFAULT_BUCKETS", "MetricsRegistry", "NULL_METRICS"),
    "push": (
        "encode_batch", "observability_records", "push_observability",
        "resolve_push_url"),
    "report": ("render_report", "span_stats"),
    "spans": (
        "NULL_TRACER", "NullTracer", "STATUS_CANCELLED",
        "STATUS_FAILED", "STATUS_OK", "STATUS_OPEN", "STATUS_TIMEOUT",
        "Span", "Tracer"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
