"""Push-side of fleet observability: ship an Observability upstream.

The client half of :mod:`repro.obs.aggregator`: turn a run's metric
registry — plus three running totals its tracer keeps — into the
batched-JSONL wire format and POST it to an aggregator's
``/obs/ingest`` endpoint over the shared keep-alive
:class:`~repro.service.http.HttpConnectionPool`.

Spans never cross the wire.  The tracer folds them as they close
(:class:`repro.obs.api.SpanFold`) into a span count and a command
busy/elapsed counter pair, named under the ``*_busy_seconds_total`` /
``*_elapsed_seconds_total`` convention the dist worker's own counters
use, so the aggregator reads utilisation from one counter pair for
every source.

Everything here is **best-effort by design**: telemetry must never
take down the run it observes.  :func:`push_observability` swallows
transport failures (returning ``False``) — an unreachable aggregator
costs one capped connection attempt, not a campaign.

Opt-in is by URL: pass ``--obs-push URL`` to runall/chaos/dist
workers, or export ``$REPRO_OBS_PUSH``.  :func:`resolve_push_url`
implements that precedence; :func:`normalize_push_url` lets users give
either the service root (``http://host:8080``) or the full ingest
endpoint.

Batches are *cumulative*, not deltas: a long-lived source (the dist
worker) re-sends current totals under an increasing ``seq``, and the
aggregator's sequence guard makes replays and reordering harmless.
One-shot sources (a finished chaos cell) push a single ``seq=1`` batch.

The wire format is batched JSONL, the body of ``POST /obs/ingest``: a
``hello`` line (the source, its batch ``seq`` and constant labels), then
that source's metric records.  Each line is its ``type`` plus the fields
of one dataclass declared here (:class:`Hello`; :class:`Sample` or
:class:`HistSample` by ``type``, :data:`RECORDS`), encoded with
:func:`repro.service.codec.encode`; the aggregator decodes the same
classes with the same codec.  docs/OBSERVABILITY.md shows a batch.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Optional

from ..service.codec import NON_EMPTY, encode

if TYPE_CHECKING:  # pragma: no cover
    from ..service.http import HttpConnectionPool
    from .api import Observability

#: Environment variable naming the default aggregator URL.
PUSH_ENV = "REPRO_OBS_PUSH"

#: Path of the ingest endpoint, appended to bare service roots.
INGEST_PATH = "/obs/ingest"

#: The tracer's running totals, pushed as counters: spans started, and
#: ``command`` spans' summed durations (the leaf of the ftsh span
#: tree, so nested spans are never double-counted) over the window the
#: spans cover.
SPANS_COUNTER = "obs_spans_total"
BUSY_COUNTER = "obs_command_busy_seconds_total"
ELAPSED_COUNTER = "obs_span_elapsed_seconds_total"

JSONL_TYPE = "application/x-ndjson"


def resolve_push_url(explicit: Optional[str] = None) -> Optional[str]:
    """The aggregator URL to use: CLI flag wins, then $REPRO_OBS_PUSH."""
    url = explicit or os.environ.get(PUSH_ENV) or None
    return normalize_push_url(url) if url else None


def normalize_push_url(url: str) -> str:
    """Accept either a service root or the full ingest endpoint."""
    trimmed = url.rstrip("/")
    if trimmed.endswith(INGEST_PATH):
        return trimmed
    return trimmed + INGEST_PATH


# ---------------------------------------------------------------------------
# The wire records, and Observability -> records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hello:
    source: str = field(metadata=NON_EMPTY)
    seq: int
    labels: tuple[tuple[str, str], ...] = ()  # sorted by name


@dataclass(frozen=True)
class Sample:
    """A ``counter`` or ``gauge`` record."""

    name: str
    value: float
    labels: tuple[tuple[str, str], ...] = ()  # sorted by name


@dataclass(frozen=True)
class HistSample:
    name: str
    buckets: tuple[tuple[float, int], ...]
    sum: float
    count: int
    labels: tuple[tuple[str, str], ...] = ()  # sorted by name


#: The record each metric ``type`` decodes to.
RECORDS = {"counter": Sample, "gauge": Sample, "hist": HistSample}


def _record(kind: str, record: Any) -> dict[str, Any]:
    return {"type": kind, **encode(record)}


def _labels(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


def span_counters(obs: "Observability") -> list[dict[str, Any]]:
    """The tracer's running totals as :data:`SPANS_COUNTER`,
    :data:`BUSY_COUNTER` and :data:`ELAPSED_COUNTER` records; none for a
    tracer that started no span."""
    tracer = obs.tracer
    if not tracer.started:
        return []
    return [_record("counter", Sample(name, value))
            for name, value in ((SPANS_COUNTER, tracer.started),
                                (BUSY_COUNTER, tracer.busy),
                                (ELAPSED_COUNTER, tracer.last - tracer.first))]


def observability_records(obs: "Observability") -> Iterator[dict[str, Any]]:
    """Yield counter/gauge/hist records for one Observability.

    Metric values are current cumulative totals; histogram buckets are
    per-bucket (non-cumulative) counts over finite bounds only, so the
    wire never carries ``Infinity`` (which JSON cannot round-trip
    portably).
    """
    yield from span_counters(obs)
    for family in obs.metrics.families():
        for child in family.children():
            labels = _labels(child.labels_dict())
            if family.kind == "histogram":
                yield _record("hist", HistSample(
                    family.name, tuple(
                        (bound, count) for bound, count
                        in zip(family.buckets, child.bucket_counts)
                        if count),
                    child.total, child.count, labels))
            else:
                yield _record(family.kind,
                              Sample(family.name, child.value, labels))


def encode_batch(source: str, seq: int,
                 records: Iterable[Mapping[str, Any]],
                 labels: Optional[Mapping[str, str]] = None) -> bytes:
    """One wire batch: a ``hello`` header line, then the records."""
    hello = _record("hello", Hello(source, int(seq), _labels(labels or {})))
    return "".join(json.dumps(dict(row), sort_keys=True,
                              separators=(",", ":")) + "\n"
                   for row in (hello, *records)).encode()


# ---------------------------------------------------------------------------
# Transport: best-effort POST
# ---------------------------------------------------------------------------

def push_batch(url: str, body: bytes,
               timeout: float = 10.0,
               pool: Optional[HttpConnectionPool] = None) -> bool:
    """POST one encoded batch; ``False`` on transport failure or non-2xx."""
    # Imported here, not at module load: the campaign CLIs import this
    # module for ``resolve_push_url`` and only a run that pushes should
    # pay for the HTTP client and server kit behind ``service.http``.
    from ..service.http import HttpTransportError, http_request

    try:
        response = http_request(
            normalize_push_url(url), method="POST", body=body,
            headers={"Content-Type": JSONL_TYPE},
            timeout=timeout, pool=pool)
    except HttpTransportError:
        return False
    return 200 <= response.status < 300


def push_observability(url: str, obs: "Observability", source: str,
                       labels: Optional[Mapping[str, str]] = None,
                       seq: int = 1, timeout: float = 10.0,
                       pool: Optional[HttpConnectionPool] = None) -> bool:
    """Serialise and push one Observability as a single batch.

    Every push site — the runall and chaos cells, the dist worker —
    calls this.  Labels default to the registry's const labels (the
    run's scenario/discipline/fault tags), merged under any explicit
    ones.  Best-effort: returns ``False`` instead of raising when the
    aggregator is unreachable.
    """
    merged = dict(obs.metrics.const_labels)
    merged.update(labels or {})
    body = encode_batch(source, seq, observability_records(obs),
                        labels=merged)
    return push_batch(url, body, timeout=timeout, pool=pool)
