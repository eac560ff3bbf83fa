"""The job store's HTTP routes.

The routing/handling core (:class:`ServiceApp`) is framework-agnostic:
``handle(method, path, body)`` returns ``(status, content_type, body
bytes)`` and knows nothing about sockets.  :func:`make_server` mounts
it on the stdlib kit of :mod:`repro.service.http` (its docstring is the
wire contract: limits, timeouts, error document) — what
``python -m repro.service`` and the tests run.

Endpoints::

    POST   /scripts           submit an ftsh script          -> 202 status
    POST   /campaigns         submit a campaign spec         -> 202 status
    GET    /jobs              all jobs (newest first)
    GET    /jobs/{id}         job status
    GET    /jobs/{id}/result  terminal result document       (409 earlier)
    GET    /jobs/{id}/events  incremental status stream
                              (?since=seq, &wait=s long-polls up to 30s)
    DELETE /jobs/{id}         cancel
    GET    /healthz           liveness + job counts
    GET    /metricsz          Prometheus text exposition
    POST   /obs/ingest        fleet telemetry push (batched JSONL) -> 202
    GET    /obs/fleet         aggregated fleet snapshot (JSON)

Sandbox rejections map to 422 with the lint diagnostics in the error
document's ``details``, schema errors to 400, unknown jobs to 404,
early result fetches to 409.
"""

from __future__ import annotations

import math
import time
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from ..obs.aggregator import FleetAggregator
from ..obs.exporters import prometheus_text
from .codec import BadRequest, decode, encode
from .http import (
    JSON,
    Reply,
    ThreadingHTTPServer,
    bind_server,
    dumps,
    error_doc,
    json_object,
)
from .jobs import JobStore, NotFinished, UnknownJob
from .sandbox import SandboxRejection
from .schemas import SUBMISSION_ROUTES, TERMINAL

PROM = "text/plain; version=0.0.4; charset=utf-8"

#: Longest an events long-poll (?wait=) may hold a handler thread.
MAX_EVENT_WAIT = 30.0


class ServiceApp:
    """Route table + handlers; everything a skin needs, nothing more."""

    def __init__(self, store: JobStore,
                 aggregator: Optional[FleetAggregator] = None) -> None:
        self.store = store
        self.aggregator = aggregator if aggregator is not None \
            else FleetAggregator()
        metrics = store.obs.metrics
        self._m_requests = metrics.counter(
            "service_requests_total", "HTTP requests served",
            labels=("method", "route", "code"))
        self._m_latency = metrics.histogram(
            "service_request_seconds", "request handling latency",
            buckets=(0.001, 0.01, 0.1, 1.0, 10.0))

    # ------------------------------------------------------------------
    def handle(self, method: str, target: str,
               body: bytes = b"") -> Reply:
        """Dispatch one request; never raises (500 is the catch-all)."""
        split = urlsplit(target)
        parts = [part for part in split.path.split("/") if part]
        query = parse_qs(split.query)
        started = time.monotonic()
        route = "/" + "/".join(parts[:1] + ["{id}"] * (len(parts) > 1))
        try:
            response = self._dispatch(method, parts, query, body)
        except UnknownRoute:
            response = 404, JSON, error_doc(
                "unknown-route", f"no route {method} {split.path}")
        except UnknownJob as exc:
            response = 404, JSON, error_doc(
                "unknown-job", f"no such job: {exc.job_id}")
        except NotFinished as exc:
            response = 409, JSON, error_doc(
                "not-finished",
                f"job {exc.job_id} is {exc.state}; result not ready")
        except SandboxRejection as exc:
            response = 422, JSON, error_doc(exc.code, str(exc), exc.details)
        except BadRequest as exc:
            response = 400, JSON, error_doc("schema", str(exc))
        except Exception as exc:  # noqa: BLE001 - the HTTP 500 boundary
            response = 500, JSON, error_doc(
                "internal", f"{type(exc).__name__}: {exc}")
        self._m_requests.labels(
            method=method, route=route, code=str(response[0])).inc()
        self._m_latency.observe(time.monotonic() - started)
        return response

    # ------------------------------------------------------------------
    def _dispatch(self, method: str, parts: list[str], query: dict,
                  body: bytes) -> Reply:
        if not parts:
            raise UnknownRoute()
        head = parts[0]

        if method == "POST" and len(parts) == 1 and head in SUBMISSION_ROUTES:
            submission = decode(SUBMISSION_ROUTES[head], json_object(body))
            return 202, JSON, dumps(encode(self.store.submit(submission)))

        if head == "jobs":
            if method == "GET" and len(parts) == 1:
                jobs = sorted(self.store.jobs(), key=lambda s: -s.created)
                return 200, JSON, dumps(
                    {"jobs": [encode(status) for status in jobs]})
            if len(parts) >= 2:
                job_id = parts[1]
                if method == "GET" and len(parts) == 2:
                    return 200, JSON, dumps(
                        encode(self.store.status(job_id)))
                if method == "GET" and parts[2:] == ["result"]:
                    return 200, JSON, dumps(
                        encode(self.store.result(job_id)))
                if method == "GET" and parts[2:] == ["events"]:
                    since = _int_param(query, "since", 0)
                    wait = min(_float_param(query, "wait", 0.0),
                               MAX_EVENT_WAIT)
                    events = self.store.events(job_id, since=since,
                                               wait=wait)
                    return 200, JSON, dumps({
                        "job_id": job_id,
                        "events": [encode(event) for event in events],
                        "next": events[-1].seq if events else since,
                    })
                if (method == "DELETE" and len(parts) == 2
                        or method == "POST" and parts[2:] == ["cancel"]):
                    return 200, JSON, dumps(
                        encode(self.store.cancel(job_id)))

        if head == "obs":
            return self.aggregator.handle(
                method, "/" + "/".join(parts), body)

        if method == "GET" and parts == ["healthz"]:
            jobs = self.store.jobs()
            by_state: dict[str, int] = {}
            for status in jobs:
                by_state[status.state] = by_state.get(status.state, 0) + 1
            return 200, JSON, dumps({
                "status": "ok",
                "jobs": by_state,
                "active": sum(count for state, count in by_state.items()
                              if state not in TERMINAL),
            })
        if method == "GET" and parts == ["metricsz"]:
            text = prometheus_text(self.store.obs.metrics)
            return 200, PROM, text.encode()

        raise UnknownRoute()


class UnknownRoute(Exception):
    """Raised inside dispatch; ``handle`` maps it to a 404 response."""


def _int_param(query: dict, name: str, default: int) -> int:
    values = query.get(name)
    if not values:
        return default
    try:
        return int(values[-1])
    except ValueError:
        raise BadRequest(f"query parameter {name!r} must be an integer")


def _float_param(query: dict, name: str, default: float) -> float:
    values = query.get(name)
    if not values:
        return default
    try:
        value = float(values[-1])
    except ValueError:
        raise BadRequest(f"query parameter {name!r} must be a number")
    if not 0 <= value < math.inf:  # written this way round so NaN fails
        raise BadRequest(
            f"query parameter {name!r} must be a finite number >= 0")
    return value


def make_server(store: JobStore, host: str = "127.0.0.1", port: int = 0,
                aggregator: Optional[FleetAggregator] = None,
                ) -> ThreadingHTTPServer:
    """A ready-to-serve stdlib server bound to ``host:port``.

    ``port=0`` picks a free port (read ``server.server_address``).  The
    caller owns both lifecycles: ``server.serve_forever()`` /
    ``shutdown()`` and ``store.close()``.  The app's
    :class:`~repro.obs.aggregator.FleetAggregator` (default or
    ``aggregator``) is exposed as ``server.fleet_aggregator``.
    """
    app = ServiceApp(store, aggregator=aggregator)
    server = bind_server(app.handle, host, port)
    server.fleet_aggregator = app.aggregator  # type: ignore[attr-defined]
    return server

