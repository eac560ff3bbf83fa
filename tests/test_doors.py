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
from repro.dist.queue import FAILED, TaskQueue
from repro.dist.wire import (
    Ack,
    AckBatch,
    ClaimRequest,
    Heartbeat,
    Nack,
    NackBatch,
    encode_blob,
    encode_cell,
)
from repro.dist.worker import CoordinatorClient, WorkerError
from repro.obs import Observability
from repro.obs.aggregator import FleetAggregator
from repro.parallel.executor import CellSpec
from repro.service.app import ServiceApp
from repro.service.client import ServiceClient, ServiceError
from repro.service.codec import decode
from repro.service.http import JSON, bind_server, serve_in_thread
from repro.service.jobs import JobStore
from repro.service.schemas import CampaignSubmission, ScriptSubmission

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


@pytest.mark.parametrize("scheme", ["http", "https"])
def test_an_absolute_form_target_is_routed_by_its_path(plane, scheme):
    """RFC 9112 section 3.2.2: a server must accept ``GET http://host/p``;
    the scheme and authority are dropped, the path and query kept."""
    origin = plane.handle("GET", "/healthz")
    assert origin[0] == 200
    for authority in ("host", "host:8042", "127.0.0.1:9", "[::1]:80"):
        target = f"{scheme}://{authority}/healthz"
        assert plane.handle("GET", target) == origin, target
        assert plane.handle("GET", target + "?x=1") == origin, target
    for target in (f"{scheme}://host", f"{scheme}://host?x=1",
                   f"{scheme}://[::1"):
        status, _, payload = plane.handle("GET", target)
        assert status == 404, target
        assert json.loads(payload) == unknown_route("GET", "/")


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


# -- both ends: each client sends and reads the declared documents --------

def square(x):
    return x * x


@pytest.fixture
def served():
    """``serve(handle) -> (url, bodies)``: ``handle`` on a live socket,
    every request body it receives recorded in ``bodies``."""
    stops = []

    def serve(handle):
        bodies = []

        def recording(method, target, body):
            bodies.append(body)
            return handle(method, target, body)

        server = bind_server(recording)
        stops.append(serve_in_thread(server))
        host, port = server.server_address[:2]
        return f"http://{host}:{port}", bodies

    yield serve
    for stop in stops:
        stop()


def received(cls, bodies):
    """The last request body, as its door decodes it."""
    return decode(cls, json.loads(bodies[-1]))


def test_every_coordinator_client_verb_against_a_served_coordinator(served):
    queue = TaskQueue()
    specs = [CellSpec(key=f"sq/{n}", fn=square, args=(n,)) for n in range(3)]
    for spec in specs:
        queue.submit(encode_cell(spec), key=spec.key)
    url, bodies = served(CoordinatorApp(queue).handle)
    client = CoordinatorClient(url, "w0", lease=5.0)

    def task(n):
        return {"task_id": f"t{n}", "attempt": 1,
                "cell": encode_cell(specs[n])}

    assert client.claim(max_tasks=2) == ("tasks", [task(0), task(1)])
    assert received(ClaimRequest, bodies) == ClaimRequest("w0", 2, 5.0)
    client.heartbeat()
    assert received(Heartbeat, bodies) == Heartbeat("w0")
    assert client.ack_many([("t0", 0, "computed")]) == []
    assert received(AckBatch, bodies) == AckBatch(
        "w0", (Ack("t0", encode_blob(0), "computed"),))
    assert client.ack_many([("t0", 0, "computed"),
                            ("t1", 1, "computed")]) == ["t0"]
    assert client.claim(max_tasks=4) == ("tasks", [task(2)])
    client.nack_many([("t2", "boom", False)])
    assert received(NackBatch, bodies) == NackBatch(
        "w0", (Nack("t2", "boom", False),))
    sent = len(bodies)
    assert client.ack_many([]) == [] and client.nack_many([]) is None
    assert len(bodies) == sent  # an empty settle sends nothing
    assert client.claim() == ("idle", [])
    queue.drain()
    assert client.claim() == ("drained", [])
    assert [queue.get(f"t{n}").result for n in (0, 1)] == [0, 1]
    assert queue.get("t2").state == FAILED


def test_every_service_client_call_against_a_served_service(
        store, served, monkeypatch):
    monkeypatch.setattr(store, "_execute", lambda record, cancel: (
        {"kind": type(record.submission).__name__}, False))
    url, bodies = served(ServiceApp(store).handle)
    client = ServiceClient(url)

    job = client.submit_script(GOOD, variables={"b": "2", "a": "1"},
                               timeout=600.0)
    assert received(ScriptSubmission, bodies) == ScriptSubmission(
        GOOD, (("a", "1"), ("b", "2")), "condor", 600.0, 2003)
    assert client.wait(job.job_id, timeout=30.0) == store.status(job.job_id)
    assert client.status(job.job_id) == store.status(job.job_id)
    assert client.result(job.job_id) == store.result(job.job_id)
    assert client.result(job.job_id).result == {"kind": "ScriptSubmission"}
    assert client.events(job.job_id) == store.events(job.job_id)
    assert client.events(job.job_id, since=1, wait=0.01) \
        == store.events(job.job_id, since=1)

    campaign = client.submit_campaign(
        "submit", disciplines=("ethernet",), fault="schedd-crash",
        levels=(1,), overrides={"submit_clients": 5})
    assert received(CampaignSubmission, bodies) == CampaignSubmission(
        "submit", ("ethernet",), "schedd-crash", (1,), "smoke", 2003,
        (("submit_clients", 5.0),))
    assert client.cancel(campaign.job_id) == store.status(campaign.job_id)

    assert client.healthz() == json.loads(
        ServiceApp(store).handle("GET", "/healthz")[2])
    assert "service_requests_total" in client.metrics()
    with pytest.raises(ServiceError) as refused:
        client.status("nope")
    assert (refused.value.status, refused.value.code, refused.value.details,
            str(refused.value)) == (404, "unknown-job", [],
                                    "[404/unknown-job] no such job: nope")


@pytest.mark.parametrize("status, body", [
    (200, b""),
    (200, b"<html>not json</html>"),
    (200, b"[]"),
    (200, b'{"tasks": [{"attempt": 1}], "acked": 7}'),
    (502, b"<html>bad gateway</html>"),
    (404, b'{"error": {"code": 7}}'),
])
def test_a_reply_that_does_not_decode_is_the_clients_own_error(
        served, status, body):
    url, _bodies = served(lambda method, target, _body: (status, JSON, body))
    worker = CoordinatorClient(url, "w0")
    for verb in (worker.claim, lambda: worker.ack_many([("t0", 0, "x")])):
        with pytest.raises(WorkerError, match=f"HTTP {status} reply"):
            verb()
    with pytest.raises(ServiceError) as refused:
        ServiceClient(url, retries=0).status("x")
    assert (refused.value.status, refused.value.code) == (status, "bad-reply")
