"""The shared HTTP core: retry discipline, keep-alive pooling,
long-poll.  (The backoff schedule itself: tests/core/test_backoff.py.)"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.dist.coordinator import CoordinatorServer
from repro.dist.queue import TaskQueue
from repro.obs import Observability
from repro.obs.aggregator import FleetAggregator, make_obs_server
from repro.parallel.cache import ResultCache
from repro.service.app import MAX_EVENT_WAIT, ServiceApp, make_server
from repro.service.client import ServiceClient, ServiceError
from repro.service import http as http_module
from repro.service.http import (
    MAX_BODY,
    HttpConnectionPool,
    HttpTransportError,
    http_request,
    serve_in_thread,
)
from repro.service.jobs import JobStore
from repro.service.sandbox import SandboxPolicy
from repro.service.schemas import TERMINAL, ScriptSubmission

GOOD = 'try for 5 minutes\n    condor_submit submit.job\nend\n'


def wait_terminal(store, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = store.status(job_id)
        if status.state in TERMINAL:
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} not terminal after {timeout}s")


class TestConnectionPool:
    def test_keep_alive_reuses_the_socket(self, service):
        url, _ = service
        pool = HttpConnectionPool()
        for _ in range(5):
            assert pool.request(url + "/healthz").status == 200
        assert pool.created == 1
        assert pool.reused == 4

    def test_stale_idle_connection_replays_free(self, service):
        """A keep-alive the server reaped mid-idle costs one transparent
        replay, never a retry from the caller's budget."""
        import socket as socket_module

        url, _ = service
        pool = HttpConnectionPool()
        assert pool.request(url + "/healthz").status == 200
        # Sabotage the parked connection the way an idle timeout would:
        # the fd stays open, but the next exchange on it fails.
        ((key, [conn]),) = list(pool._idle.items())
        conn.sock.shutdown(socket_module.SHUT_RDWR)
        sleeps = []
        response = pool.request(url + "/healthz", retries=0,
                                sleep=sleeps.append)
        assert response.status == 200
        assert sleeps == []  # the replay consumed no retry budget
        assert pool.created == 2

    def test_dead_idle_socket_is_discarded_at_checkout(self, service):
        """A parked connection whose socket object was closed outright
        is skipped for a fresh one, not crashed on."""
        url, _ = service
        pool = HttpConnectionPool()
        assert pool.request(url + "/healthz").status == 200
        ((key, [conn]),) = list(pool._idle.items())
        conn.sock.close()
        assert pool.request(url + "/healthz").status == 200
        assert pool.created == 2
        assert pool.reused == 0

    def test_clear_drops_idle_connections(self, service):
        url, _ = service
        pool = HttpConnectionPool()
        pool.request(url + "/healthz")
        pool.clear()
        pool.request(url + "/healthz")
        assert pool.created == 2

    def test_unsupported_scheme_rejected(self):
        pool = HttpConnectionPool()
        with pytest.raises(HttpTransportError):
            pool.request("ftp://example.org/x")
        # http_request has no other transport to fall back to.
        with pytest.raises(HttpTransportError, match="unsupported URL"):
            http_request("ftp://example.org/x", retries=3,
                         sleep=pytest.fail)


class TestHttpRequestRetries:
    """Transport failures retry with backoff; HTTP statuses never do."""

    def test_retries_until_exhausted_with_backoff(self):
        sleeps = []
        with pytest.raises(HttpTransportError) as exc:
            http_request("http://127.0.0.1:9/x", timeout=0.2, retries=3,
                         sleep=sleeps.append)
        assert exc.value.attempts == 4
        assert sleeps == [0.05, 0.1, 0.2]

    def test_no_retries_by_default(self):
        sleeps = []
        with pytest.raises(HttpTransportError) as exc:
            http_request("http://127.0.0.1:9/x", timeout=0.2,
                         sleep=sleeps.append)
        assert (exc.value.attempts, sleeps) == (1, [])

    def test_http_error_statuses_are_returned_not_retried(self, service):
        url, _ = service
        sleeps = []
        response = http_request(f"{url}/no/such/route", retries=3,
                                sleep=sleeps.append)
        assert response.status == 404
        assert sleeps == []  # a 404 is an answer, not an outage


@pytest.fixture
def service(tmp_path):
    cache = ResultCache(root=str(tmp_path / "cache"))
    with JobStore(policy=SandboxPolicy(wall_budget=60.0), cache=cache,
                  workers=2, obs=Observability()) as store:
        server = make_server(store, port=0)
        host, port = server.server_address[:2]
        stop = serve_in_thread(server)
        try:
            yield f"http://{host}:{port}", store
        finally:
            stop()


class TestClientRetries:
    def test_only_gets_ride_the_retry_loop(self, service, monkeypatch):
        url, _ = service
        client = ServiceClient(url=url, retries=2)
        real, calls = http_request, []

        def spying(request_url, **kwargs):
            calls.append(kwargs.get("retries", 0))
            return real(request_url, **kwargs)

        monkeypatch.setattr("repro.service.client.http_request", spying)
        client.healthz()
        client.submit_script(GOOD)
        assert calls == [2, 0], "GET retries; POST must not"

    def test_unreachable_is_service_error_status_zero(self):
        client = ServiceClient(url="http://127.0.0.1:9", timeout=0.3,
                               retries=1)
        with pytest.raises(ServiceError) as exc:
            client.healthz()
        assert exc.value.status == 0


class TestEventsLongPoll:
    def test_wait_returns_early_when_an_event_lands(self, service):
        url, store = service
        client = ServiceClient(url=url)
        status = client.submit_script(GOOD)
        client.wait(status.job_id, timeout=30.0)
        events = client.events(status.job_id)
        last = events[-1].seq
        # Everything already happened: a long poll past the end must
        # time out empty, not hang for the full window.
        started = time.monotonic()
        assert client.events(status.job_id, since=last, wait=0.3) == []
        assert time.monotonic() - started < 5.0

    def test_waiter_wakes_when_an_event_lands(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        with JobStore(policy=SandboxPolicy(wall_budget=60.0), cache=cache,
                      workers=1, obs=Observability()) as store:
            job = store.submit(ScriptSubmission(script=GOOD,
                                                timeout=600.0))
            wait_terminal(store, job.job_id)
            last = store.events(job.job_id)[-1].seq
            woke = []

            def follower():
                woke.extend(store.events(job.job_id, since=last,
                                         wait=30.0))

            thread = threading.Thread(target=follower)
            thread.start()
            time.sleep(0.1)
            # Resubmitting the same script re-queues the same job id,
            # which appends the event the follower is blocked on.
            resubmitted = store.submit(
                ScriptSubmission(script=GOOD, timeout=600.0))
            assert resubmitted.job_id == job.job_id
            thread.join(timeout=5.0)
            assert not thread.is_alive(), "long-poll never woke"
            assert woke and woke[0].seq > last

    def test_wait_param_validated_and_capped(self, service):
        url, store = service
        client = ServiceClient(url=url)
        status = client.submit_script(GOOD)
        app = ServiceApp(store)
        code, _, body = app.handle(
            "GET", f"/jobs/{status.job_id}/events?wait=banana")
        assert code == 400
        assert json.loads(body)["error"]["code"] == "schema"
        code, _, _ = app.handle(
            "GET", f"/jobs/{status.job_id}/events?wait=-1")
        assert code == 400
        # An absurd wait is clamped to MAX_EVENT_WAIT, not honored.
        started = time.monotonic()
        code, _, _ = app.handle(
            "GET",
            f"/jobs/{status.job_id}/events?since=10000&wait=0.2")
        assert code == 200
        assert time.monotonic() - started < MAX_EVENT_WAIT


# ---------------------------------------------------------------------------
# The server kit, against every plane mounted on it
# ---------------------------------------------------------------------------

@pytest.fixture(params=["service", "coordinator", "aggregator"])
def plane(request, tmp_path):
    """``(host, port)`` of a live server of each plane."""
    if request.param == "coordinator":
        server = CoordinatorServer(TaskQueue())
        server.start()
        try:
            yield server.server.server_address[:2]
        finally:
            server.close()
    elif request.param == "aggregator":
        server = make_obs_server(FleetAggregator(), port=0)
        stop = serve_in_thread(server)
        try:
            yield server.server_address[:2]
        finally:
            stop()
    else:
        with JobStore(policy=SandboxPolicy(wall_budget=60.0), cache=None,
                      workers=1, obs=Observability()) as store:
            server = make_server(store, port=0)
            stop = serve_in_thread(server)
            try:
                yield server.server_address[:2]
            finally:
                stop()


def raw_exchange(address, request: bytes, timeout: float = 3.0) -> bytes:
    """Send raw bytes, read until the server closes the connection."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                return b"".join(chunks)
            chunks.append(data)


def handler_threads() -> int:
    """Live per-connection server threads (socketserver names them)."""
    return sum("process_request_thread" in thread.name
               for thread in threading.enumerate())


def settled_handler_threads(baseline: int, timeout: float = 5.0) -> int:
    deadline = time.monotonic() + timeout
    while handler_threads() > baseline and time.monotonic() < deadline:
        time.sleep(0.02)
    return handler_threads()


class TestContentLengthIsOutsideInput:
    """A bad Content-Length gets an answer and a closed connection on
    every plane — not a traceback, a blocked read or a 32 MiB buffer."""

    @pytest.mark.parametrize("declared, status, code", [
        ("abc", 400, "bad-request"),
        ("-1", 400, "bad-request"),
        ("1_0", 400, "bad-request"),
        (str(MAX_BODY + 1), 413, "too-large"),
        ("9" * 5000, 413, "too-large"),
    ])
    def test_rejected_with_close_and_no_body_read(self, plane, declared,
                                                  status, code):
        # Headers only: the body is never sent, so any answer at all
        # proves the server did not try to read it.
        reply = raw_exchange(plane, (
            "POST /healthz HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {declared}\r\n\r\n").encode())
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode()), reply[:200]
        assert b"connection: close" in head.lower()
        assert json.loads(body)["error"]["code"] == code
        assert json.loads(body)["error"]["details"] == []

    def test_body_at_the_limit_is_still_read(self, plane, monkeypatch):
        monkeypatch.setattr(http_module, "MAX_BODY", 64)
        reply = raw_exchange(plane, (
            b"POST /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            b"Content-Length: 64\r\n\r\n" + b"x" * 64))
        assert reply.startswith(b"HTTP/1.1 404 "), reply[:200]


class TestNonJsonNumbersAreOutsideInput:
    """``json.loads`` reads ``NaN``/``Infinity``/``-Infinity``; a NaN
    walks through every ``<``/``>`` guard behind the door (the sandbox's
    simulated-time budget, the coordinator's lease cap), so the shared
    body parser refuses the tokens on both planes."""

    TOKENS = ["NaN", "Infinity", "-Infinity"]

    @staticmethod
    def post(address, path: str, body: str) -> tuple[bytes, dict]:
        reply = raw_exchange(address, (
            f"POST {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            f"Content-Length: {len(body)}\r\n\r\n{body}").encode())
        head, _, payload = reply.partition(b"\r\n\r\n")
        return head, json.loads(payload)

    @pytest.mark.parametrize("token", TOKENS)
    @pytest.mark.parametrize("path, body", [
        ("/scripts", '{"script": %s, "timeout": TOKEN}' % json.dumps(GOOD)),
        ("/campaigns", '{"scenario": "submit", "disciplines": ["ethernet"],'
                       ' "overrides": {"submit_duration": TOKEN}}'),
    ], ids=["script-timeout", "campaign-override"])
    def test_service_answers_400_and_admits_nothing(self, service, path,
                                                    body, token):
        url, store = service
        host, port = url.removeprefix("http://").split(":")
        head, doc = self.post((host, int(port)), path,
                              body.replace("TOKEN", token))
        assert head.startswith(b"HTTP/1.1 400 "), head
        # (the service files an unparseable body under its schema code)
        assert doc["error"]["code"] == "schema"
        assert token in doc["error"]["message"]
        assert doc["error"]["details"] == []
        assert store.jobs() == []

    @pytest.mark.parametrize("token", TOKENS)
    def test_coordinator_answers_400_and_leases_nothing(self, token):
        queue = TaskQueue()
        queue.submit("cell", key="k")
        server = CoordinatorServer(queue)
        server.start()
        try:
            head, doc = self.post(
                server.server.server_address[:2], "/queue/claim",
                '{"worker": "w", "max": 1, "lease": %s}' % token)
        finally:
            server.close()
        assert head.startswith(b"HTTP/1.1 400 "), head
        assert doc["error"]["code"] == "bad-request"
        assert doc["error"]["details"] == []
        assert queue.in_flight() == 0 and queue.depth() == 1


class TestSilentPeersAreReaped:
    """The kit's socket timeout (patched from 30 s to 0.2 s) frees the
    handler thread of a peer that stops talking, on every plane."""

    @pytest.fixture(autouse=True)
    def short_timeout(self, monkeypatch):
        monkeypatch.setattr(http_module._Handler, "timeout", 0.2)
        # Keep-alives earlier tests parked in the shared pool hold
        # handler threads of their own; let those go first.
        http_module.SHARED_POOL.clear()
        settled_handler_threads(0, timeout=0.2)

    def test_stalled_body_and_parked_keepalive_release_their_threads(
            self, plane):
        baseline = handler_threads()
        stalled = socket.create_connection(plane, timeout=3.0)
        parked = http.client.HTTPConnection(*plane, timeout=3.0)
        try:
            stalled.sendall(b"POST /obs/ingest HTTP/1.1\r\nHost: x\r\n"
                            b"Content-Length: 100\r\n\r\nonly-this")
            parked.request("GET", "/healthz")
            assert parked.getresponse().read().endswith(b'"ok"}\n')
            assert handler_threads() == baseline + 2
            assert settled_handler_threads(baseline) == baseline
            # Both peers were dropped; the stalled one was never answered.
            assert stalled.recv(65536) == b""
            assert parked.sock.recv(65536) == b""
        finally:
            stalled.close()
            parked.close()

    def test_timeout_bounds_socket_reads_not_handler_work(self, service):
        url, store = service
        job = store.submit(ScriptSubmission(script=GOOD, timeout=600.0))
        wait_terminal(store, job.job_id)
        last = store.events(job.job_id)[-1].seq
        started = time.monotonic()
        response = http_request(
            f"{url}/jobs/{job.job_id}/events?since={last}&wait=0.6")
        assert response.status == 200
        assert time.monotonic() - started >= 0.6

    def test_pooled_client_rides_out_the_reap(self, service, monkeypatch):
        url, _ = service
        pool = HttpConnectionPool()
        monkeypatch.setattr(http_module, "SHARED_POOL", pool)
        client = ServiceClient(url=url, retries=0)
        baseline = handler_threads()
        assert client.healthz()["status"] == "ok"
        assert settled_handler_threads(baseline) == baseline  # reaped
        assert client.healthz()["status"] == "ok"    # free replay
        assert (pool.created, pool.reused) == (2, 1)


class TestLayoutGuard:
    """One HTTP skin, one backoff: a source grep, so the second skin or
    the fourth retry schedule cannot come back unnoticed."""

    @staticmethod
    def sources():
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        return {str(path.relative_to(root)): path.read_text()
                for path in sorted(root.rglob("*.py"))}

    def test_exactly_one_module_imports_the_stdlib_server(self):
        import re

        importing = [name for name, text in self.sources().items()
                     if re.search(r"^\s*(from|import)\s+(http\.server|"
                                  r"socketserver)\b", text, re.MULTILINE)]
        assert importing == ["service/http.py"]

    def test_only_core_backoff_doubles_a_delay(self):
        import re

        doubling = re.compile(r"\b2(\.0)?\s*\*\*\s*\(?\s*[A-Za-z_]")
        offenders = [name for name, text in self.sources().items()
                     if name != "core/backoff.py" and doubling.search(text)]
        assert offenders == []

    def test_no_event_loop_and_no_asgi_framework(self):
        # The job store is worker threads on a queue; a second
        # concurrency model (or an adapter nothing here can install or
        # exercise) has to argue its way back in past this line.
        import re

        importing = [name for name, text in self.sources().items()
                     if re.search(r"^\s*(from|import)\s+(asyncio|fastapi)\b",
                                  text, re.MULTILINE)]
        assert importing == []
