"""The job store's HTTP routes.

:class:`ServiceApp` is framework-agnostic: its one route table, on the
kit of :mod:`repro.service.http` (whose docstring is the wire contract:
routing, limits, timeouts, error document), is the endpoint list —
docs/SERVICE.md describes each route — and its ``handle(method,
target, body)`` knows nothing about sockets.  The table mounts the
fleet aggregator's two ``/obs/*`` rows.  :func:`make_server` serves it:
what ``python -m repro.service`` and the tests run.

The error map (:data:`ERRORS`): sandbox rejections are 422 with the
lint diagnostics in the error document's ``details``, schema errors
400, unknown jobs 404, early result fetches 409.
"""

from __future__ import annotations

import time
from typing import Optional

from ..obs.aggregator import FleetAggregator
from ..obs.exporters import prometheus_text
from .codec import BadRequest, decode, encode
from .http import (
    Reply,
    Request,
    Routes,
    ThreadingHTTPServer,
    bind_server,
    json_object,
    json_reply,
)
from .jobs import JobStore, NotFinished, UnknownJob
from .sandbox import SandboxRejection
from .schemas import SUBMISSION_ROUTES, TERMINAL, EventsReply

PROM = "text/plain; version=0.0.4; charset=utf-8"

#: Longest an events long-poll (?wait=) may hold a handler thread.
MAX_EVENT_WAIT = 30.0

ERRORS = {
    UnknownJob: lambda exc: (
        404, "unknown-job", f"no such job: {exc.job_id}", None),
    NotFinished: lambda exc: (
        409, "not-finished",
        f"job {exc.job_id} is {exc.state}; result not ready", None),
    SandboxRejection: lambda exc: (422, exc.code, str(exc), exc.details),
    BadRequest: lambda exc: (400, "schema", str(exc), None),
}


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
        self.routes = Routes([
            *(("POST", f"/{name}", lambda req, kind=kind: json_reply(encode(
                self.store.submit(decode(kind, json_object(req.body)))), 202))
              for name, kind in SUBMISSION_ROUTES.items()),
            ("GET", "/jobs", self._jobs),
            ("GET", "/jobs/{id}", lambda req: json_reply(
                encode(self.store.status(req.params["id"])))),
            ("GET", "/jobs/{id}/result", lambda req: json_reply(
                encode(self.store.result(req.params["id"])))),
            ("GET", "/jobs/{id}/events", self._events),
            ("DELETE", "/jobs/{id}", self._cancel),
            ("POST", "/jobs/{id}/cancel", self._cancel),
            ("GET", "/healthz", self._healthz),
            ("GET", "/metricsz", lambda req: (200, PROM, prometheus_text(
                self.store.obs.metrics).encode())),
            *self.aggregator.obs_routes(),
        ], ERRORS)

    # ------------------------------------------------------------------
    def handle(self, method: str, target: str,
               body: bytes = b"") -> Reply:
        """Serve one request; never raises.  It counts under the matched
        pattern (``route``), or ``unmatched``: a bounded label set."""
        started = time.monotonic()
        route, response = self.routes.dispatch(method, target, body)
        self._m_requests.labels(
            method=method, route=route, code=str(response[0])).inc()
        self._m_latency.observe(time.monotonic() - started)
        return response

    # ------------------------------------------------------------------
    def _jobs(self, req: Request) -> Reply:
        jobs = sorted(self.store.jobs(), key=lambda s: -s.created)
        return json_reply({"jobs": [encode(status) for status in jobs]})

    def _events(self, req: Request) -> Reply:
        job_id = req.params["id"]
        since = req.int_param("since", 0)
        wait = min(req.float_param("wait", 0.0), MAX_EVENT_WAIT)
        events = self.store.events(job_id, since=since, wait=wait)
        return json_reply(encode(EventsReply(
            job_id, tuple(events), events[-1].seq if events else since)))

    def _cancel(self, req: Request) -> Reply:
        return json_reply(encode(self.store.cancel(req.params["id"])))

    def _healthz(self, req: Request) -> Reply:
        by_state: dict[str, int] = {}
        for status in self.store.jobs():
            by_state[status.state] = by_state.get(status.state, 0) + 1
        return json_reply({
            "status": "ok",
            "jobs": by_state,
            "active": sum(count for state, count in by_state.items()
                          if state not in TERMINAL),
        })


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

