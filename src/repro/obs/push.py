"""Push-side of fleet observability: ship an Observability upstream.

The client half of :mod:`repro.obs.aggregator`: serialise a run's
spans and metric registry into the batched-JSONL wire format and POST
it to an aggregator's ``/obs/ingest`` endpoint over the shared
keep-alive :class:`~repro.service.http.HttpConnectionPool`.

Everything here is **best-effort by design**: telemetry must never
take down the run it observes.  :func:`push_observability` and
:meth:`ObsPusher.push` swallow transport failures (returning ``False``)
— an unreachable aggregator costs one capped connection attempt, not a
campaign.

Opt-in is by URL: pass ``--obs-push URL`` to runall/chaos/dist
workers, or export ``$REPRO_OBS_PUSH``.  :func:`resolve_push_url`
implements that precedence; :func:`normalize_push_url` lets users give
either the service root (``http://host:8080``) or the full ingest
endpoint.

Batches are *cumulative*, not deltas: a pusher with a live registry
(the dist worker) re-sends current totals under an increasing ``seq``,
and the aggregator's sequence guard makes replays and reordering
harmless.  One-shot sources (a finished chaos cell) push a single
``seq=1`` batch.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..service.http import HttpConnectionPool
    from .api import Observability

#: Environment variable naming the default aggregator URL.
PUSH_ENV = "REPRO_OBS_PUSH"

#: Path of the ingest endpoint, appended to bare service roots.
INGEST_PATH = "/obs/ingest"

#: Spans shipped per batch at most (the tracer caps at 250k; a push
#: should stay a single modest request).
DEFAULT_MAX_SPANS = 20_000

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
# Serialisation: Observability -> wire records
# ---------------------------------------------------------------------------

def observability_records(obs: "Observability",
                          max_spans: int = DEFAULT_MAX_SPANS,
                          span_offset: int = 0,
                          ) -> Iterator[dict[str, Any]]:
    """Yield span/counter/gauge/hist records for one Observability.

    Metric values are current cumulative totals; histogram buckets are
    per-bucket (non-cumulative) counts over finite bounds only, so the
    wire never carries ``Infinity`` (which JSON cannot round-trip
    portably).  ``span_offset`` skips spans already shipped — the
    tracer's span list is append-only, so a periodic pusher sends each
    span exactly once even though every batch carries a higher ``seq``
    (under which the aggregator would re-fold a re-sent span).
    """
    emitted = 0
    for index, span in enumerate(obs.tracer):
        if index < span_offset:
            continue
        if emitted >= max_spans:
            break
        emitted += 1
        row: dict[str, Any] = {
            "type": "span",
            "name": span.name,
            "kind": span.kind,
            "start": span.start,
            "end": span.end,
            "status": span.status,
        }
        yield row
    for family in obs.metrics.families():
        for child in family.children():
            labels = child.labels_dict()
            if family.kind == "counter":
                yield {"type": "counter", "name": family.name,
                       "labels": labels, "value": child.value}
            elif family.kind == "gauge":
                yield {"type": "gauge", "name": family.name,
                       "labels": labels, "value": child.value}
            else:
                buckets = [[bound, count] for bound, count
                           in zip(family.buckets, child.bucket_counts)
                           if count]
                yield {"type": "hist", "name": family.name,
                       "labels": labels, "buckets": buckets,
                       "sum": child.total, "count": child.count}


def encode_batch(source: str, seq: int,
                 records: Iterable[Mapping[str, Any]],
                 labels: Optional[Mapping[str, str]] = None,
                 clock: str = "wall") -> bytes:
    """One wire batch: a ``hello`` header line, then the records."""
    lines = [json.dumps(
        {"type": "hello", "source": source, "seq": int(seq),
         "labels": dict(labels or {}), "clock": clock},
        sort_keys=True, separators=(",", ":"))]
    lines.extend(json.dumps(dict(row), sort_keys=True,
                            separators=(",", ":"))
                 for row in records)
    return ("\n".join(lines) + "\n").encode()


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
                       seq: int = 1, clock: str = "wall",
                       timeout: float = 10.0,
                       pool: Optional[HttpConnectionPool] = None) -> bool:
    """Serialise and push one Observability as a single batch.

    Labels default to the registry's const labels (the run's
    scenario/discipline/fault tags), merged under any explicit ones.
    Best-effort: returns ``False`` instead of raising when the
    aggregator is unreachable.
    """
    merged = dict(obs.metrics.const_labels)
    merged.update(labels or {})
    body = encode_batch(source, seq, observability_records(obs),
                        labels=merged, clock=clock)
    return push_batch(url, body, timeout=timeout, pool=pool)


class ObsPusher:
    """A stateful pusher for long-lived sources (the dist worker).

    Owns the source name, constant labels and the batch sequence
    counter; each :meth:`push` ships the registry's *current cumulative
    totals* under the next ``seq``.  Keeps a tally of failed pushes but
    never raises — see the module doc.
    """

    def __init__(self, url: str, source: str,
                 labels: Optional[Mapping[str, str]] = None,
                 clock: str = "wall", timeout: float = 10.0,
                 pool: Optional[HttpConnectionPool] = None) -> None:
        self.url = normalize_push_url(url)
        self.source = source
        self.labels = dict(labels or {})
        self.clock = clock
        self.timeout = timeout
        self.pool = pool
        self.seq = 0
        self.pushed = 0
        self.failed = 0
        self._spans_sent = 0

    def push(self, obs: "Observability") -> bool:
        self.seq += 1
        merged = dict(obs.metrics.const_labels)
        merged.update(self.labels)
        # Ship only the span tail not yet delivered: each batch carries
        # a fresh seq, so a re-sent span would be folded again upstream.
        # On failure the aggregator never saw the batch, so the offset
        # stays put and the next push retries those spans.
        records = list(observability_records(
            obs, span_offset=self._spans_sent))
        new_spans = sum(1 for row in records if row["type"] == "span")
        body = encode_batch(self.source, self.seq, records,
                            labels=merged, clock=self.clock)
        ok = push_batch(self.url, body, timeout=self.timeout,
                        pool=self.pool)
        if ok:
            self.pushed += 1
            self._spans_sent += new_spans
        else:
            self.failed += 1
        return ok

    def push_records(self, records: Iterable[Mapping[str, Any]],
                     labels: Optional[Mapping[str, str]] = None) -> bool:
        """Push pre-built records (for registries without an ``Observability``)."""
        self.seq += 1
        merged = dict(self.labels)
        merged.update(labels or {})
        body = encode_batch(self.source, self.seq, records,
                            labels=merged, clock=self.clock)
        ok = push_batch(self.url, body, timeout=self.timeout,
                        pool=self.pool)
        if ok:
            self.pushed += 1
        else:
            self.failed += 1
        return ok
