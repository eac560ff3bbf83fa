"""One door contract for every HTTP plane.

The service, the dist coordinator and the fleet aggregator each declare
one route table (``repro.service.http.Routes``); the kit matches a
request to a row, maps the plane's declared exceptions to their error
documents and everything else to 500 ``internal``.  What every plane
must answer alike is checked here over all three; each plane's own
status codes and messages stay in its own suite.
"""

import json
import re

import pytest

from repro.dist.coordinator import CoordinatorApp
from repro.dist.queue import TaskQueue
from repro.obs import Observability
from repro.obs.aggregator import FleetAggregator
from repro.service.app import ServiceApp
from repro.service.jobs import JobStore
from repro.service.schemas import ScriptSubmission

METHODS = ("GET", "POST", "DELETE")

GOOD = 'try for 5 minutes\n    condor_submit submit.job\nend\n'


@pytest.fixture
def store():
    with JobStore(workers=1, obs=Observability()) as store:
        yield store


@pytest.fixture(params=["service", "coordinator", "aggregator"])
def plane(request, store):
    if request.param == "service":
        return ServiceApp(store)
    if request.param == "coordinator":
        return CoordinatorApp(TaskQueue())
    return FleetAggregator()


def concrete(pattern):
    """A path the pattern matches: each ``{name}`` filled with ``x``."""
    return re.sub(r"\{\w+\}", "x", pattern)


def unknown_route(method, path):
    return {"error": {"code": "unknown-route", "details": [],
                      "message": f"no route {method} {path}"}}


def test_a_declared_path_asked_with_another_method_is_404(plane):
    rows = plane.routes.rows
    asked = 0
    for path in sorted({concrete(row[1]) for row in rows}):
        declared = {row[0] for row in rows if concrete(row[1]) == path}
        for method in sorted(set(METHODS) - declared):
            status, _, payload = plane.handle(method, path, b"{}")
            assert status == 404, (method, path)
            assert json.loads(payload) == unknown_route(method, path)
            asked += 1
    assert asked >= len({concrete(row[1]) for row in rows})


@pytest.mark.parametrize("path", ["/nope", "/", "/queue/nope/x",
                                  "/jobs/x/y/z", "/obs/healthz"])
def test_an_undeclared_path_is_404(plane, path):
    for method in METHODS:
        status, _, payload = plane.handle(method, path, b"")
        assert status == 404
        assert json.loads(payload) == unknown_route(method, path)


def test_an_unmapped_exception_in_any_handler_is_500(plane):
    def boom(request):
        raise RuntimeError("handler exploded")

    rows = plane.routes.rows
    for index, (method, pattern, regex, handler) in enumerate(rows):
        rows[index] = (method, pattern, regex, boom)
        status, _, payload = plane.handle(method, concrete(pattern), b"{}")
        rows[index] = (method, pattern, regex, handler)
        assert status == 500, (method, pattern)
        assert json.loads(payload) == {"error": {
            "code": "internal", "details": [],
            "message": "RuntimeError: handler exploded"}}


# -- the service's table --------------------------------------------------

def route_labels(store):
    family = store.obs.metrics.get("service_requests_total")
    return [child.labels_dict() for child in family.children()]


def test_request_labels_are_the_declared_patterns(store):
    """Unknown paths all count under one label, so the counter's
    children stay bounded by the table however many paths arrive."""
    app = ServiceApp(store)
    for count in (10, 1000):
        for index in range(count):
            app.handle("GET", f"/scan{index}")
            app.handle("POST", f"/probe{index}/x", b"{}")
        labels = route_labels(store)
        assert {label["route"] for label in labels} == {"unmatched"}
        assert len(labels) == 2
    app.handle("GET", "/jobs/nope/events")
    app.handle("GET", "/healthz/")
    routes = {label["route"] for label in route_labels(store)}
    assert routes == {"unmatched", "/jobs/{id}/events", "/healthz"}
    assert routes <= {row[1] for row in app.routes.rows} | {"unmatched"}


def test_the_services_own_healthz_wins_over_the_aggregators(store):
    app = ServiceApp(store)
    status, _, payload = app.handle("GET", "/healthz")
    assert status == 200
    assert "jobs" in json.loads(payload)


def test_post_cancel_and_delete_both_cancel(store, monkeypatch):
    job = store.submit(ScriptSubmission(script=GOOD, timeout=600.0))
    cancelled = []
    cancel = store.cancel
    monkeypatch.setattr(store, "cancel", lambda job_id: (
        cancelled.append(job_id), cancel(job_id))[1])
    app = ServiceApp(store)
    for method, path in (("POST", f"/jobs/{job.job_id}/cancel"),
                         ("DELETE", f"/jobs/{job.job_id}")):
        status, _, payload = app.handle(method, path)
        assert status == 200
        assert json.loads(payload)["job_id"] == job.job_id
    assert cancelled == [job.job_id, job.job_id]
