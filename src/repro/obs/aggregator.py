"""Live fleet observability: the utilisation aggregator over repro.obs.

A campaign used to be observable only *after* the fact — per-cell
bundles merged into files once the run finished.  The
:class:`FleetAggregator` is the online complement (grid-resource
monitoring a la Lazarevic & Sacks: counters, at low overhead): many
concurrent sources — chaos and runall cells, dist workers — push
batches of cumulative counters to the service plane, which hosts the
one aggregator, and every batch is folded into bounded per-source
state *as it arrives*.  The snapshot derives from those totals:

* per-source **utilisation**: summed ``*_busy_seconds_total`` over
  summed ``*_elapsed_seconds_total`` (the dist worker counts its own;
  :func:`repro.obs.push.span_counters` folds a cell's spans into the
  same pair at the source);
* per-discipline **collision rates** and **backoff-delay
  distributions** (merged fixed-bucket histograms — every repro
  registry shares :data:`~repro.obs.metrics.DEFAULT_BUCKETS`, so
  merging is bucket-wise addition, never sample buffering).

Every number the snapshot derives — a sum over keys and sources, a
mean, a ratio — saturates at the largest finite float (:func:`_saturated`),
so no accepted batch can make it overflow: the document stays strict
JSON whatever the sources claim.

Nothing is buffered unboundedly: a source keeps one value per (type,
family, labels) key, at most :data:`MAX_KEYS_PER_SOURCE` of them, and
the source table itself is capped (least-recently-seen eviction).

The wire format (batched JSONL: a ``hello``, then metric records) is
declared in :mod:`repro.obs.push`, the client half, whose dataclasses
this module decodes each line into with :mod:`repro.service.codec`
after a strict JSON parse (no ``NaN``/``Infinity``).  Values are
*totals*, not deltas, applied only when ``seq`` is at least the last
applied sequence for that key (a hello's labels likewise), so
out-of-order and replayed batches can never regress a counter.  A line
that fails — or a record with no valid ``hello`` before it, or a new
key past the source's cap — is counted malformed and skipped, and
never poisons the rest of its batch.

:meth:`FleetAggregator.handle` is the aggregator's whole HTTP surface
(``POST /obs/ingest``, ``GET /obs/fleet``, ``GET /healthz``) as a pure
function; the service mounts its ``/obs/*`` rows in its own table.  See
:mod:`repro.obs.dashboard` for the terminal view.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Any, Callable, Iterable, Optional

from ..service.codec import decode
from ..service.http import Reply, Routes, _not_json, json_reply
from .push import RECORDS, SPANS_COUNTER, Hello, HistSample, Sample

#: Snapshot schema version, bumped on breaking shape changes.
SNAPSHOT_VERSION = 2

#: Sources kept before the least-recently-seen one is evicted.
DEFAULT_MAX_SOURCES = 1024

#: Metric keys one source may hold; a new key past it is malformed.
#: A chaos cell pushes ~16, a dist worker ~10.
MAX_KEYS_PER_SOURCE = 1024

#: The utilisation pair: every counter named ``*BUSY_SUFFIX`` over
#: every counter named ``*ELAPSED_SUFFIX``, per source.
BUSY_SUFFIX = "_busy_seconds_total"
ELAPSED_SUFFIX = "_elapsed_seconds_total"

#: Counter families that measure contention collisions.  Anything
#: ending in ``_collisions_total`` qualifies automatically; the submit
#: scenario's refusals are its collision analogue (a submission bounced
#: off a contended resource), so they are enrolled by name.
COLLISION_COUNTERS = frozenset({
    "grid_connections_refused_total",
    "grid_emfile_failures_total",
})
COLLISION_SUFFIX = "_collisions_total"

#: Histogram quantiles reported per discipline.
QUANTILES = (0.5, 0.9, 0.99)

#: A histogram value: (bound -> count, sum, count).
Hist = tuple[dict[float, int], float, int]

_FLOAT_MAX = sys.float_info.max


def _saturated(value: float) -> float:
    """``value`` (a float, or an integer of any size) clamped into the
    finite floats; a value inside them is returned as it is."""
    return max(-_FLOAT_MAX, min(value, _FLOAT_MAX))


def merge_histograms(hists: Iterable[Hist]) -> dict[str, Any]:
    """Fold histogram values into one summary with quantile estimates.

    Quantiles are conservative: the upper bound of the bucket holding
    the target rank (observations past the last bound report the last
    bound — the wire carries finite bounds only).
    """
    buckets: dict[float, int] = {}
    total = 0.0
    count = 0
    for hist_buckets, hist_sum, hist_count in hists:
        for bound, n in hist_buckets.items():
            buckets[bound] = buckets.get(bound, 0) + n
        total += hist_sum
        count += hist_count
    total = _saturated(total)
    summary: dict[str, Any] = {
        "count": count,
        "sum": round(total, 9),
        "mean": round(total / _saturated(count), 9) if count else 0.0,
    }
    bounded = sorted(buckets.items())
    for quantile in QUANTILES:
        key = f"p{int(quantile * 100)}"
        if not count or not bounded:
            summary[key] = 0.0
            continue
        rank = quantile * _saturated(count)
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

    __slots__ = ("labels", "last_seen", "batches", "last_seq", "metrics")

    def __init__(self, now: float) -> None:
        self.labels: dict[str, str] = {}
        self.last_seen = now
        self.batches = 0
        self.last_seq = -1
        #: (type, name, labels-items) -> [seq, value]; a hist's value
        #: is a :data:`Hist`.
        self.metrics: dict[tuple, list[Any]] = {}

    def fold(self, seq: int, kind: str,
             record: Sample | HistSample) -> None:
        """Apply one decoded metric record; raises ValueError past the
        source's key cap."""
        key = (kind, record.name, record.labels)
        if isinstance(record, HistSample):
            value: Any = (dict(record.buckets), record.sum, record.count)
        else:
            value = record.value
        entry = self.metrics.get(key)
        if entry is None:
            if len(self.metrics) >= MAX_KEYS_PER_SOURCE:
                raise ValueError("source holds its cap of metric keys")
            self.metrics[key] = [seq, value]
        elif seq >= entry[0]:
            entry[:] = [seq, value]

    def counter_sum(self, match: Callable[[str], bool]) -> float:
        return _saturated(sum(entry[1] for (kind, name, _labels), entry
                              in self.metrics.items()
                              if kind == "counter" and match(name)))

    def hists(self, name: str) -> list[Hist]:
        return [entry[1] for (kind, hist_name, _labels), entry
                in self.metrics.items()
                if kind == "hist" and hist_name == name]

    def utilisation(self) -> Optional[float]:
        window = self.counter_sum(lambda n: n.endswith(ELAPSED_SUFFIX))
        if window <= 0:
            return None
        busy = self.counter_sum(lambda n: n.endswith(BUSY_SUFFIX))
        return round(_saturated(busy / window), 6)

    def to_jsonable(self, now: float) -> dict[str, Any]:
        return {
            "labels": dict(self.labels),
            "batches": self.batches,
            "last_seq": self.last_seq,
            "age_seconds": round(now - self.last_seen, 3),
            "spans": int(self.counter_sum(lambda n: n == SPANS_COUNTER)),
            "busy_seconds": round(self.counter_sum(
                lambda n: n.endswith(BUSY_SUFFIX)), 6),
            "window_seconds": round(self.counter_sum(
                lambda n: n.endswith(ELAPSED_SUFFIX)), 6),
            "utilisation": self.utilisation(),
        }


def _is_collision_counter(name: str) -> bool:
    return name.endswith(COLLISION_SUFFIX) or name in COLLISION_COUNTERS


def _total(states: Iterable[_SourceState],
           match: Callable[[str], bool]) -> float:
    return _saturated(sum(state.counter_sum(match) for state in states))


class FleetAggregator:
    """Online aggregation of pushed telemetry batches; thread-safe."""

    def __init__(self, max_sources: int = DEFAULT_MAX_SOURCES,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.max_sources = max_sources
        self._clock = clock
        self._lock = threading.Lock()
        self._sources: dict[str, _SourceState] = {}
        self._started = clock()
        self.batches = 0
        self.records = 0
        self.malformed = 0
        self.stale_batches = 0
        self.evicted = 0
        self.routes = Routes([
            *self.obs_routes(),
            ("GET", "/healthz", lambda req: json_reply(
                {"status": "ok", "sources": len(self._sources)})),
        ])

    # ------------------------------------------------------------------
    def ingest(self, body: bytes | str) -> dict[str, int]:
        """Fold one JSONL batch; never raises on bad payload lines.
        Returns ``{"accepted": n, "malformed": n}``."""
        if isinstance(body, bytes):
            text = body.decode("utf-8", errors="replace")
        else:
            text = body
        accepted = 0
        malformed = 0
        now = self._clock()
        with self._lock:
            state: Optional[_SourceState] = None
            seq = -1
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line, parse_constant=_not_json)
                    kind = row.get("type") if isinstance(row, dict) else None
                    if kind == "hello":
                        # a hello that fails leaves the rows after it
                        # with no source: they are malformed too.  It
                        # is decoded whole before any state is touched,
                        # so it never selects (or creates) a source.
                        state = None
                        hello = decode(Hello, row)
                        seq = hello.seq
                        state = self._source(hello.source, now)
                        if seq >= state.last_seq:
                            state.labels = dict(hello.labels)
                        if seq > state.last_seq:
                            state.last_seq = seq
                        else:
                            self.stale_batches += 1
                        state.batches += 1
                        state.last_seen = now
                        self.batches += 1
                    elif isinstance(kind, str) and kind in RECORDS:
                        if state is None:
                            raise ValueError("metric before hello")
                        state.fold(seq, kind, decode(RECORDS[kind], row))
                    else:
                        raise ValueError(f"unknown record type {kind!r}")
                except (ValueError, RecursionError):
                    # (the codec's BadRequest is a ValueError; so is
                    # every json.loads refusal but a too-deep nesting)
                    malformed += 1
                    continue
                accepted += 1
            self.records += accepted
            self.malformed += malformed
        return {"accepted": accepted, "malformed": malformed}

    def _source(self, source: str, now: float) -> _SourceState:
        state = self._sources.get(source)
        if state is None:
            if len(self._sources) >= self.max_sources:
                oldest = min(self._sources,
                             key=lambda sid: self._sources[sid].last_seen)
                del self._sources[oldest]
                self.evicted += 1
            state = self._sources[source] = _SourceState(now)
        return state

    # ------------------------------------------------------------------
    def obs_routes(self) -> list[tuple[str, str, Callable]]:
        """The ``/obs/*`` rows, which the service mounts in its table."""
        return [
            ("POST", "/obs/ingest",
             lambda req: json_reply(self.ingest(req.body), 202)),
            ("GET", "/obs/fleet", lambda req: json_reply(self.snapshot())),
        ]

    def handle(self, method: str, target: str,
               body: bytes = b"") -> Reply:
        """The aggregator's HTTP routes, socket-free; never raises."""
        return self.routes.handle(method, target, body)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The fleet document ``GET /obs/fleet`` serves (strict JSON)."""
        now = self._clock()
        with self._lock:
            states = self._sources.values()
            return {
                "version": SNAPSHOT_VERSION,
                "uptime_seconds": round(now - self._started, 3),
                "totals": {
                    "sources": len(self._sources),
                    "batches": self.batches,
                    "records": self.records,
                    "spans": int(_total(states,
                                        lambda n: n == SPANS_COUNTER)),
                    "malformed": self.malformed,
                    "stale_batches": self.stale_batches,
                    "evicted": self.evicted,
                    "collisions": _total(states, _is_collision_counter),
                },
                "sources": {sid: state.to_jsonable(now) for sid, state
                            in sorted(self._sources.items())},
                "disciplines": self._disciplines(),
            }

    def _disciplines(self) -> dict[str, Any]:
        """Collision/backoff rollups grouped by the discipline label."""
        groups: dict[str, list[_SourceState]] = {}
        for state in self._sources.values():
            discipline = state.labels.get("discipline")
            if discipline:
                groups.setdefault(discipline, []).append(state)
        out: dict[str, Any] = {}
        for discipline, states in sorted(groups.items()):
            collisions = _total(states, _is_collision_counter)
            attempts = _total(states, lambda n: n == "ftsh_try_attempts_total")
            utilisations = [u for u in (s.utilisation() for s in states)
                            if u is not None]
            out[discipline] = {
                "sources": len(states),
                "collisions": collisions,
                "attempts": attempts,
                "collision_rate": (round(_saturated(collisions / attempts),
                                         6) if attempts else None),
                "backoffs": _total(
                    states, lambda n: n == "ftsh_backoff_initiations_total"),
                "exhausted": _total(
                    states, lambda n: n == "ftsh_try_exhausted_total"),
                "backoff_seconds": merge_histograms(
                    hist for s in states
                    for hist in s.hists("ftsh_backoff_seconds")),
                "utilisation": (round(sum(utilisations)
                                      / len(utilisations), 6)
                                if utilisations else None),
            }
        return out
