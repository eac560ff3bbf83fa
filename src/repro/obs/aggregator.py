"""Live fleet observability: the utilisation aggregator over repro.obs.

A campaign used to be observable only *after* the fact — per-cell
bundles merged into files once the run finished.  The
:class:`FleetAggregator` is the online complement (grid-resource
monitoring a la Lazarevic & Sacks): many concurrent sources — local
runs, dist workers, service-plane jobs — push batches of telemetry to
one long-running endpoint, and the aggregator folds every batch into
bounded per-source and fleet-level state *as it arrives*:

* per-resource **utilisation** (busy seconds over the observed window,
  from spans or from pushed busy/elapsed counters);
* per-discipline **collision rates** and **backoff-delay
  distributions** (merged fixed-bucket histograms — every repro
  registry shares :data:`~repro.obs.metrics.DEFAULT_BUCKETS`, so
  merging is bucket-wise addition, never sample buffering);
* **queue depth** and other live gauges;
* ingest **rate** as an EWMA.

Nothing is buffered unboundedly: spans are folded into per-kind
aggregates on ingest and discarded, cumulative metrics keep one value
per (source, family, labels), and the source table itself is capped
(least-recently-seen eviction).

Wire format — one JSON object per line (batched JSONL), the body of
``POST /obs/ingest``::

    {"type":"hello","source":"chaos/...","seq":1,"labels":{...},"clock":"sim"}
    {"type":"span","kind":"command","name":"condor_submit","start":0.1,
     "end":0.4,"status":"ok"}
    {"type":"counter","name":"ftsh_try_attempts_total","labels":{},"value":41}
    {"type":"gauge","name":"grid_fds_free","labels":{},"value":12}
    {"type":"hist","name":"ftsh_backoff_seconds","labels":{},
     "buckets":[[0.1,3],[1.0,9]],"sum":7.5,"count":14}

A batch opens with a ``hello`` naming the source, its batch sequence
number, and its constant labels; the records that follow belong to that
source.  Cumulative metrics (counter/gauge/hist values are *totals*,
not deltas) are applied only when ``seq`` is at least the last applied
sequence for that key, so out-of-order and replayed batches can never
regress a counter; span records are applied only for strictly newer
sequences, so an at-least-once replay never double-counts busy time.
Malformed lines are counted and skipped — one bad line never poisons
the rest of its batch.

:meth:`FleetAggregator.handle` is the aggregator's whole HTTP surface
(``POST /obs/ingest``, ``GET /obs/fleet``, ``GET /healthz``) as a pure
function.  The service plane forwards its ``/obs/*`` routes to it, and
it also runs standalone on the server kit of :mod:`repro.service.http`
(whose docstring is the wire contract)::

    python -m repro.obs.aggregator --port 8088

See :mod:`repro.obs.push` for the client half and
:mod:`repro.obs.dashboard` for the terminal/HTML view.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Iterable, Optional

from ..service.http import (
    JSON,
    Reply,
    ThreadingHTTPServer,
    bind_server,
    dumps,
    error_doc,
)

#: Snapshot schema version, bumped on breaking shape changes.
SNAPSHOT_VERSION = 1

#: Sources kept before the least-recently-seen one is evicted.
DEFAULT_MAX_SOURCES = 1024

#: EWMA smoothing factor for the ingest rate.
EWMA_ALPHA = 0.3

#: Span kinds whose durations count as resource-busy time.  "command"
#: is the leaf of the ftsh span tree (script > try > attempt > command),
#: so summing only commands never double-counts nested spans.
BUSY_KINDS = frozenset({"command"})

#: Counter families that measure contention collisions.  Anything
#: ending in ``_collisions_total`` qualifies automatically; the submit
#: scenario's refusals are its collision analogue (a submission bounced
#: off a contended resource), so they are enrolled by name.
COLLISION_COUNTERS = frozenset({
    "grid_connections_refused_total",
    "grid_emfile_failures_total",
})
COLLISION_SUFFIX = "_collisions_total"

#: Gauge families surfaced in the fleet ``queues`` section.
QUEUE_GAUGE_SUFFIXES = ("_depth", "_running", "_in_flight", "_queued")

#: Histogram quantiles reported per discipline.
QUANTILES = (0.5, 0.9, 0.99)

_METRIC_TYPES = ("counter", "gauge", "hist")


class _HistState:
    """One merged fixed-bucket histogram: bounded, mergeable, queryable."""

    __slots__ = ("buckets", "sum", "count", "seq")

    def __init__(self) -> None:
        self.buckets: dict[float, int] = {}
        self.sum = 0.0
        self.count = 0
        self.seq = -1

    def replace(self, seq: int, buckets: dict[float, int],
                total: float, count: int) -> None:
        self.seq = seq
        self.buckets = buckets
        self.sum = total
        self.count = count


def merge_histograms(states: Iterable[_HistState]) -> dict[str, Any]:
    """Fold histogram states into one summary with quantile estimates.

    Quantiles are conservative: the upper bound of the bucket holding
    the target rank (observations past the last bound report the last
    bound — the wire carries finite bounds only).
    """
    buckets: dict[float, int] = {}
    total = 0.0
    count = 0
    for state in states:
        for bound, n in state.buckets.items():
            buckets[bound] = buckets.get(bound, 0) + n
        total += state.sum
        count += state.count
    summary: dict[str, Any] = {
        "count": count,
        "sum": round(total, 9),
        "mean": round(total / count, 9) if count else 0.0,
    }
    bounded = sorted(buckets.items())
    for quantile in QUANTILES:
        key = f"p{int(quantile * 100)}"
        if not count or not bounded:
            summary[key] = 0.0
            continue
        rank = quantile * count
        running = 0
        value = bounded[-1][0]
        for bound, n in bounded:
            running += n
            if running >= rank:
                value = bound
                break
        summary[key] = value
    return summary


class _SourceState:
    """Everything retained about one telemetry source; all bounded."""

    __slots__ = (
        "source", "labels", "clock_kind", "first_seen", "last_seen",
        "batches", "stale_batches", "spans", "last_seq", "span_seq",
        "span_kinds", "window_start", "window_end",
        "counters", "gauges", "hists",
    )

    def __init__(self, source: str, now: float) -> None:
        self.source = source
        self.labels: dict[str, str] = {}
        self.clock_kind = "wall"
        self.first_seen = now
        self.last_seen = now
        self.batches = 0
        self.stale_batches = 0
        self.spans = 0
        self.last_seq = -1
        self.span_seq = -1
        #: kind -> [count, busy_seconds, failed]
        self.span_kinds: dict[str, list[float]] = {}
        self.window_start: Optional[float] = None
        self.window_end: Optional[float] = None
        #: (name, labels-items) -> [seq, value]
        self.counters: dict[tuple, list[float]] = {}
        self.gauges: dict[tuple, list[float]] = {}
        self.hists: dict[tuple, _HistState] = {}

    # -- folding -----------------------------------------------------------
    def fold_span(self, row: dict[str, Any]) -> None:
        kind = str(row["kind"])
        start = float(row["start"])
        end = row.get("end")
        duration = (float(end) - start) if end is not None else 0.0
        entry = self.span_kinds.get(kind)
        if entry is None:
            entry = self.span_kinds[kind] = [0, 0.0, 0]
        entry[0] += 1
        entry[1] += duration
        if row.get("status") in ("failed", "timeout"):
            entry[2] += 1
        self.spans += 1
        if self.window_start is None or start < self.window_start:
            self.window_start = start
        tip = float(end) if end is not None else start
        if self.window_end is None or tip > self.window_end:
            self.window_end = tip

    def fold_metric(self, seq: int, row: dict[str, Any]) -> None:
        name = str(row["name"])
        labels = row.get("labels") or {}
        key = (name, tuple(sorted(
            (str(k), str(v)) for k, v in labels.items())))
        kind = row["type"]
        if kind == "hist":
            state = self.hists.get(key)
            if state is None:
                state = self.hists[key] = _HistState()
            if seq >= state.seq:
                buckets = {float(b): int(n) for b, n in row["buckets"]}
                state.replace(seq, buckets, float(row["sum"]),
                              int(row["count"]))
            return
        table = self.counters if kind == "counter" else self.gauges
        value = float(row["value"])
        entry = table.get(key)
        if entry is None:
            table[key] = [seq, value]
        elif seq >= entry[0]:
            entry[0] = seq
            entry[1] = value

    # -- derived views -----------------------------------------------------
    def busy_seconds(self) -> float:
        from_counters = self._counter_total("_busy_seconds_total")
        if from_counters is not None:
            return from_counters
        return sum(entry[1] for kind, entry in self.span_kinds.items()
                   if kind in BUSY_KINDS)

    def window_seconds(self) -> float:
        from_counters = self._counter_total("_elapsed_seconds_total")
        if from_counters is not None:
            return from_counters
        if self.window_start is None or self.window_end is None:
            return 0.0
        return self.window_end - self.window_start

    def _counter_total(self, suffix: str) -> Optional[float]:
        values = [entry[1] for (name, _labels), entry in self.counters.items()
                  if name.endswith(suffix)]
        return sum(values) if values else None

    def utilisation(self) -> Optional[float]:
        window = self.window_seconds()
        if window <= 0:
            return None
        return round(self.busy_seconds() / window, 6)

    def counter_sum(self, match: Callable[[str], bool]) -> float:
        return sum(entry[1] for (name, _labels), entry in self.counters.items()
                   if match(name))

    def to_jsonable(self, now: float) -> dict[str, Any]:
        return {
            "labels": dict(self.labels),
            "clock": self.clock_kind,
            "batches": self.batches,
            "stale_batches": self.stale_batches,
            "spans": self.spans,
            "last_seq": self.last_seq,
            "age_seconds": round(now - self.last_seen, 3),
            "busy_seconds": round(self.busy_seconds(), 6),
            "window_seconds": round(self.window_seconds(), 6),
            "utilisation": self.utilisation(),
            "span_kinds": {
                kind: {"count": int(entry[0]),
                       "busy_seconds": round(entry[1], 6),
                       "failed": int(entry[2])}
                for kind, entry in sorted(self.span_kinds.items())
            },
        }


def _is_collision_counter(name: str) -> bool:
    return name.endswith(COLLISION_SUFFIX) or name in COLLISION_COUNTERS


class IngestSummary(dict):
    """The ``POST /obs/ingest`` response body: accepted/malformed/stale."""


class FleetAggregator:
    """Online aggregation of pushed telemetry batches; thread-safe."""

    def __init__(self, max_sources: int = DEFAULT_MAX_SOURCES,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.max_sources = max_sources
        self._clock = clock
        self._lock = threading.Lock()
        self._sources: dict[str, _SourceState] = {}
        self._started = clock()
        self._last_ingest: Optional[float] = None
        self._rate_ewma = 0.0
        self.batches = 0
        self.records = 0
        self.malformed = 0
        self.stale_batches = 0
        self.evicted = 0

    # ------------------------------------------------------------------
    def ingest(self, body: bytes | str) -> IngestSummary:
        """Fold one JSONL batch; never raises on bad payload lines."""
        if isinstance(body, bytes):
            try:
                text = body.decode("utf-8")
            except UnicodeDecodeError:
                text = body.decode("utf-8", errors="replace")
        else:
            text = body
        accepted = 0
        malformed = 0
        stale_spans = 0
        now = self._clock()
        with self._lock:
            state: Optional[_SourceState] = None
            seq = -1
            apply_spans = False
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                    if not isinstance(row, dict):
                        raise ValueError("not an object")
                    kind = row["type"]
                    if kind == "hello":
                        state = self._hello(row, now)
                        seq = int(row.get("seq", 0))
                        state.batches += 1
                        state.last_seen = now
                        if seq > state.last_seq:
                            state.last_seq = seq
                        apply_spans = seq > state.span_seq
                        if apply_spans:
                            state.span_seq = seq
                        else:
                            state.stale_batches += 1
                            self.stale_batches += 1
                        self.batches += 1
                    elif kind == "span":
                        if state is None:
                            raise ValueError("span before hello")
                        if apply_spans:
                            state.fold_span(row)
                        else:
                            stale_spans += 1
                    elif kind in _METRIC_TYPES:
                        if state is None:
                            raise ValueError("metric before hello")
                        state.fold_metric(seq, row)
                    else:
                        raise ValueError(f"unknown record type {kind!r}")
                except (KeyError, TypeError, ValueError):
                    malformed += 1
                    continue
                accepted += 1
            self.records += accepted
            self.malformed += malformed
            self._tick_rate(now, accepted)
        return IngestSummary(accepted=accepted, malformed=malformed,
                             stale_spans=stale_spans)

    def _hello(self, row: dict[str, Any], now: float) -> _SourceState:
        source = str(row["source"])
        state = self._sources.get(source)
        if state is None:
            if len(self._sources) >= self.max_sources:
                oldest = min(self._sources.values(),
                             key=lambda s: s.last_seen)
                del self._sources[oldest.source]
                self.evicted += 1
            state = self._sources[source] = _SourceState(source, now)
        labels = row.get("labels")
        if isinstance(labels, dict):
            state.labels = {str(k): str(v) for k, v in labels.items()}
        clock_kind = row.get("clock")
        if clock_kind in ("sim", "wall"):
            state.clock_kind = clock_kind
        return state

    def _tick_rate(self, now: float, accepted: int) -> None:
        if self._last_ingest is not None:
            dt = max(now - self._last_ingest, 1e-6)
            instant = accepted / dt
            self._rate_ewma = (EWMA_ALPHA * instant
                               + (1.0 - EWMA_ALPHA) * self._rate_ewma)
        self._last_ingest = now

    # ------------------------------------------------------------------
    def handle(self, method: str, target: str,
               body: bytes = b"") -> Reply:
        """The aggregator's HTTP routes, socket-free; never raises."""
        path = target.split("?")[0]
        parts = [part for part in path.split("/") if part]
        try:
            if method == "POST" and parts == ["obs", "ingest"]:
                return 202, JSON, dumps(self.ingest(body))
            if method == "GET" and parts == ["obs", "fleet"]:
                return 200, JSON, dumps(self.snapshot())
            if method == "GET" and parts == ["healthz"]:
                return 200, JSON, dumps(
                    {"status": "ok", "sources": len(self._sources)})
        except Exception as exc:  # noqa: BLE001 - the HTTP 500 boundary
            return 500, JSON, error_doc(
                "internal", f"{type(exc).__name__}: {exc}")
        return 404, JSON, error_doc(
            "unknown-route", f"no route {method} {path}")

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The fleet document ``GET /obs/fleet`` serves (JSON-safe)."""
        now = self._clock()
        with self._lock:
            sources = {sid: state.to_jsonable(now)
                       for sid, state in sorted(self._sources.items())}
            disciplines = self._disciplines()
            queues = self._queues()
            doc = {
                "version": SNAPSHOT_VERSION,
                "uptime_seconds": round(now - self._started, 3),
                "totals": {
                    "sources": len(self._sources),
                    "batches": self.batches,
                    "records": self.records,
                    "spans": sum(s.spans for s in self._sources.values()),
                    "malformed": self.malformed,
                    "stale_batches": self.stale_batches,
                    "evicted": self.evicted,
                    "collisions": sum(
                        s.counter_sum(_is_collision_counter)
                        for s in self._sources.values()),
                    "ingest_rate_ewma": round(self._rate_ewma, 3),
                },
                "sources": sources,
                "disciplines": disciplines,
                "queues": queues,
            }
        return doc

    def _disciplines(self) -> dict[str, Any]:
        """Collision/backoff rollups grouped by the discipline label."""
        groups: dict[str, list[_SourceState]] = {}
        for state in self._sources.values():
            discipline = state.labels.get("discipline")
            if discipline:
                groups.setdefault(discipline, []).append(state)
        out: dict[str, Any] = {}
        for discipline, states in sorted(groups.items()):
            collisions = sum(s.counter_sum(_is_collision_counter)
                             for s in states)
            attempts = sum(
                s.counter_sum(lambda n: n == "ftsh_try_attempts_total")
                for s in states)
            backoffs = sum(
                s.counter_sum(
                    lambda n: n == "ftsh_backoff_initiations_total")
                for s in states)
            exhausted = sum(
                s.counter_sum(lambda n: n == "ftsh_try_exhausted_total")
                for s in states)
            hists = [state for s in states
                     for (name, _labels), state in s.hists.items()
                     if name == "ftsh_backoff_seconds"]
            utilisations = [u for u in (s.utilisation() for s in states)
                            if u is not None]
            out[discipline] = {
                "sources": len(states),
                "collisions": collisions,
                "attempts": attempts,
                "collision_rate": (round(collisions / attempts, 6)
                                   if attempts else None),
                "backoffs": backoffs,
                "exhausted": exhausted,
                "backoff_seconds": merge_histograms(hists),
                "utilisation": (round(sum(utilisations)
                                      / len(utilisations), 6)
                                if utilisations else None),
            }
        return out

    def _queues(self) -> dict[str, float]:
        """Latest queue-ish gauge values summed across the fleet."""
        totals: dict[str, float] = {}
        for state in self._sources.values():
            for (name, _labels), entry in state.gauges.items():
                if name.endswith(QUEUE_GAUGE_SUFFIXES):
                    totals[name] = totals.get(name, 0.0) + entry[1]
        return {name: round(value, 6)
                for name, value in sorted(totals.items())}


def make_obs_server(aggregator: FleetAggregator, host: str = "127.0.0.1",
                    port: int = 0) -> ThreadingHTTPServer:
    """A standalone server answering with ``aggregator.handle``;
    ``port=0`` picks a free port, the caller owns the serve loop."""
    return bind_server(aggregator.handle, host, port)


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.aggregator",
        description="serve a standalone fleet-telemetry aggregator")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8088,
                        help="0 picks a free port (printed at startup)")
    parser.add_argument("--max-sources", type=int,
                        default=DEFAULT_MAX_SOURCES)
    args = parser.parse_args(argv)

    aggregator = FleetAggregator(max_sources=args.max_sources)
    server = make_obs_server(aggregator, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"repro-obs-aggregator: listening on http://{host}:{port} "
          f"(POST /obs/ingest, GET /obs/fleet)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro-obs-aggregator: shutting down", flush=True)
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    import sys

    sys.exit(main())
