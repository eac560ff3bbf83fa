"""The coordinator HTTP app: worker protocol over handle(), no socket."""

import json
import sys
import threading
import time

import pytest

from repro.dist.coordinator import CoordinatorApp, CoordinatorServer
from repro.dist.queue import TaskQueue
from repro.dist.store import MemoryArtifactStore
from repro.dist.wire import encode_blob, encode_cell
from repro.parallel.executor import CellSpec


def square(x):
    return x * x


def make_app(lease=10.0):
    queue = TaskQueue(lease=lease)
    app = CoordinatorApp(queue, MemoryArtifactStore())
    return app, queue


def post(app, path, doc):
    status, _, payload = app.handle(
        "POST", path, json.dumps(doc).encode())
    body = json.loads(payload.decode()) if payload else None
    return status, body


def claim(app, worker, want=1):
    return post(app, "/queue/claim", {"worker": worker, "max": want})


def ack_doc(task, value, source="computed"):
    return {"task_id": task.task_id, "result": encode_blob(value),
            "source": source}


class TestClaimCycle:
    def test_idle_queue_is_204(self):
        app, _ = make_app()
        status, _ = claim(app, "w0")
        assert status == 204

    def test_drained_queue_is_410(self):
        app, queue = make_app()
        queue.drain()
        status, body = claim(app, "w0")
        assert status == 410
        assert body["error"]["code"] == "drained"

    def test_claim_ack_roundtrip(self):
        app, queue = make_app()
        spec = CellSpec(key="t/sq/5", fn=square, args=(5,))
        task = queue.submit(encode_cell(spec), key=spec.key)
        status, body = claim(app, "w0")
        assert status == 200
        (doc,) = body["tasks"]
        assert doc["task_id"] == task.task_id
        assert doc["cell"]["key"] == "t/sq/5"
        status, body = post(app, "/queue/ack_many",
                            {"worker": "w0", "acks": [ack_doc(task, 25)]})
        assert (status, body["acked"]) == (200, [task.task_id])
        assert task.result == 25
        assert queue.finished()

    def test_claim_without_max_is_400(self):
        app, queue = make_app()
        queue.submit({}, key="a")
        for doc in ({"worker": "w0"}, {"worker": "w0", "max": "2"},
                    {"worker": "w0", "max": True}):
            status, body = post(app, "/queue/claim", doc)
            assert status == 400
            assert body["error"]["code"] == "bad-request"
        assert queue.depth() == 1

    def test_stale_ack_is_reported_not_raised(self):
        """At-least-once: a reaped worker's late ack is dropped."""
        app, queue = make_app()
        task = queue.submit({}, key="a")
        claim(app, "w0")
        queue.nack_many("w0", [(task.task_id, "retry me", True)])
        status, body = post(app, "/queue/ack_many",
                            {"worker": "w0", "acks": [ack_doc(task, 1)]})
        assert status == 200
        assert body == {"acked": [], "stale": [task.task_id],
                        "rejected": []}
        assert task.state == "pending"

    def test_nack_requeue_false_fails_task(self):
        app, queue = make_app()
        task = queue.submit({}, key="a")
        claim(app, "w0")
        status, body = post(app, "/queue/nack_many", {
            "worker": "w0",
            "nacks": [{"task_id": task.task_id, "error": "undecodable",
                       "requeue": False}]})
        assert status == 200
        assert body["states"] == {task.task_id: "failed"}

    def test_heartbeat_reports_extensions(self):
        app, queue = make_app()
        queue.submit({}, key="a")
        claim(app, "w0")
        status, body = post(app, "/queue/heartbeat", {"worker": "w0"})
        assert (status, body["extended"]) == (200, 1)

    def test_v1_routes_are_gone(self):
        app, queue = make_app()
        task = queue.submit({}, key="a")
        claim(app, "w0")
        for action, doc in (("ack", {"result": encode_blob(1)}),
                            ("nack", {"error": "boom"})):
            status, body = post(app, f"/queue/tasks/{task.task_id}/{action}",
                                {"worker": "w0", **doc})
            assert status == 404
            assert body["error"]["code"] == "unknown-route"
        assert task.state == "claimed"


class TestBatchedProtocol:
    """Chunked claims, batched settles."""

    def submit_squares(self, queue, values):
        return [queue.submit(encode_cell(
            CellSpec(key=f"t/sq/{v}", fn=square, args=(v,))),
            key=f"t/sq/{v}") for v in values]

    def test_claim_with_max_returns_a_chunk(self):
        app, queue = make_app()
        tasks = self.submit_squares(queue, [1, 2, 3])
        status, body = claim(app, "w0", 2)
        assert status == 200
        assert [t["task_id"] for t in body["tasks"]] \
            == [t.task_id for t in tasks[:2]]

    def test_claim_max_is_clamped_by_the_server(self):
        from repro.dist.coordinator import MAX_CLAIM_BATCH

        app, queue = make_app()
        self.submit_squares(queue, range(MAX_CLAIM_BATCH + 10))
        status, body = post(app, "/queue/claim",
                            {"worker": "greedy", "max": 10_000})
        assert status == 200
        assert len(body["tasks"]) == MAX_CLAIM_BATCH

    def test_batched_claim_of_empty_queue_is_204_then_410(self):
        app, queue = make_app()
        status, _ = claim(app, "w0", 8)
        assert status == 204
        queue.drain()
        status, _ = claim(app, "w0", 8)
        assert status == 410

    def test_ack_many_settles_and_reports_stale(self):
        app, queue = make_app()
        claimed, unclaimed = self.submit_squares(queue, [4, 5])
        claim(app, "w0")
        status, body = post(app, "/queue/ack_many", {
            "worker": "w0",
            "acks": [
                {"task_id": claimed.task_id,
                 "result": encode_blob(16), "source": "computed"},
                {"task_id": unclaimed.task_id,
                 "result": encode_blob(25), "source": "computed"},
            ]})
        assert status == 200
        assert body == {"acked": [claimed.task_id],
                        "stale": [unclaimed.task_id], "rejected": []}
        assert claimed.result == 16

    def test_undecodable_result_is_rejected_not_fatal(self):
        """The bugfix contract at the HTTP layer: one bad entry is
        reported in ``rejected`` while its batchmates land."""
        app, queue = make_app()
        good, bad = self.submit_squares(queue, [6, 7])
        claim(app, "w0", 2)
        status, body = post(app, "/queue/ack_many", {
            "worker": "w0",
            "acks": [
                {"task_id": good.task_id,
                 "result": encode_blob(36), "source": "computed"},
                {"task_id": bad.task_id,
                 "result": "not a blob!!", "source": "computed"},
            ]})
        assert status == 200
        assert body == {"acked": [good.task_id], "stale": [],
                        "rejected": [bad.task_id]}
        assert good.result == 36
        assert bad.state == "claimed"  # lease will expire it back

    def test_nack_many_returns_per_task_states(self):
        app, queue = make_app()
        (task,) = self.submit_squares(queue, [8])
        claim(app, "w0")
        status, body = post(app, "/queue/nack_many", {
            "worker": "w0",
            "nacks": [{"task_id": task.task_id, "error": "boom",
                       "requeue": True},
                      {"task_id": "ghost", "error": "x", "requeue": True}]})
        assert status == 200
        assert body["states"] == {task.task_id: "pending", "ghost": "stale"}

    def test_ack_many_requires_a_list(self):
        app, _ = make_app()
        status, body = post(app, "/queue/ack_many",
                            {"worker": "w0", "acks": "nope"})
        assert status == 400
        assert body["error"]["code"] == "bad-request"


class TestDeclaredRequests:
    """Each body decodes into its declared dataclass before anything
    moves: a value that does not fit answers 400 and changes nothing."""

    @pytest.mark.parametrize("lease", [
        "[1]", '"5"', "true", "0", "-100.0", "-1e999", "1e999"])
    def test_lease_must_be_a_positive_finite_number(self, lease):
        """(``1e999`` parses to ``inf`` without passing through the
        body parser's NaN/Infinity guard; the codec refuses it.)"""
        app, queue = make_app()
        queue.submit({}, key="a")
        status, _, payload = app.handle(
            "POST", "/queue/claim",
            ('{"worker": "w0", "max": 1, "lease": %s}' % lease).encode())
        assert status == 400
        assert json.loads(payload) == {"error": {
            "code": "bad-request", "details": [],
            "message": "claim request: field 'lease' must be a positive "
                       "finite number"}}
        assert (queue.in_flight(), queue.depth()) == (0, 1)
        # the next good claim is the task's first attempt, not a
        # re-delivery charged toward its poison bound
        status, body = claim(app, "w0")
        assert status == 200 and body["tasks"][0]["attempt"] == 1
        assert queue.stats.as_dict()["expired"] == 0

    def test_max_keeps_its_message(self):
        app, _ = make_app()
        status, body = post(app, "/queue/claim",
                            {"worker": "w0", "max": 1.5})
        assert status == 400
        assert body["error"]["message"] \
            == "claim request: field 'max' must be an integer"

    @pytest.mark.parametrize("requeue", ["no", 0, [], {}])
    def test_requeue_must_be_a_boolean(self, requeue):
        app, queue = make_app()
        task = queue.submit({}, key="a")
        claim(app, "w0")
        status, body = post(app, "/queue/nack_many", {
            "worker": "w0",
            "nacks": [{"task_id": task.task_id, "error": "boom",
                       "requeue": requeue}]})
        assert status == 400
        assert body["error"]["message"] == (
            "nack batch: field 'nacks[0].requeue' must be a boolean")
        assert task.state == "claimed"

    def test_a_malformed_entry_names_its_path(self):
        app, queue = make_app()
        task = queue.submit({}, key="a")
        claim(app, "w0")
        status, body = post(app, "/queue/ack_many", {
            "worker": "w0",
            "acks": [ack_doc(task, 1), {"task_id": 7, "result": "x"}]})
        assert status == 400
        assert body["error"]["message"] == (
            "ack batch: field 'acks[1].task_id' must be a string")
        assert task.state == "claimed"


class TestValidationAndStatus:
    def test_missing_worker_is_400(self):
        app, _ = make_app()
        status, body = post(app, "/queue/claim", {})
        assert status == 400
        # The error document every plane shares, ``details`` included.
        assert body == {"error": {
            "code": "bad-request", "details": [],
            "message": "claim request: field 'worker' must be a non-empty "
                       "string"}}

    def test_garbage_body_is_400(self):
        """(An integer of 4300+ digits and nesting past the recursion
        limit raise ValueError and RecursionError from ``json.loads``,
        not JSONDecodeError: both used to be 500s.)"""
        app, _ = make_app()
        for garbage in (b"not json", b"", b"[1, 2]",
                        b'{"worker": "w0", "max": ' + b"9" * 5000 + b"}",
                        b'{"worker": ' + b"[" * 100_000 + b"]" * 100_000
                        + b"}"):
            status, _, payload = app.handle("POST", "/queue/claim", garbage)
            assert status == 400
            assert json.loads(payload)["error"]["code"] == "bad-request"

    def test_unknown_route_is_404(self):
        """``/payload/<digest>`` went with payload-by-digest: it is one
        more route the coordinator does not have."""
        app, _ = make_app()
        for target in ("/nope", "/payload/" + "0" * 64):
            status, _, payload = app.handle("GET", target)
            assert status == 404
            assert json.loads(payload.decode())["error"]["code"] \
                == "unknown-route"

    def test_status_shows_queue_and_store(self):
        app, queue = make_app()
        queue.submit({}, key="a")
        status, _, payload = app.handle("GET", "/queue/status")
        doc = json.loads(payload.decode())
        assert status == 200
        assert doc["outstanding"] == 1
        assert doc["stats"]["submitted"] == 1
        assert doc["tasks"][0]["key"] == "a"
        assert doc["store"] == {"fetched": 0, "published": 0}

    def test_status_tracks_fleet_and_wire_counters(self):
        """/status is the fleet dashboard: queue shape, per-worker op
        counts, and bytes-on-wire raw vs shipped."""
        app, queue = make_app()
        spec = CellSpec(key="t/sq/9", fn=square, args=(9,))
        task = queue.submit(encode_cell(spec), key=spec.key)
        queue.submit(encode_cell(
            CellSpec(key="t/sq/10", fn=square, args=(10,))), key="t/sq/10")
        claim(app, "w0")
        post(app, "/queue/ack_many", {
            "worker": "w0",
            "acks": [{"task_id": task.task_id,
                      "result": encode_blob(81), "source": "computed"}]})
        _, _, payload = app.handle("GET", "/queue/status")
        doc = json.loads(payload.decode())
        assert doc["queue"] == {"depth": 1, "in_flight": 0}
        assert doc["workers"] == {"w0": {"claims": 1, "acks": 1,
                                         "nacks": 0}}
        assert doc["wire"]["in_bytes"] > 0
        assert doc["wire"]["out_bytes"] > 0
        # One small result blob travelled: plain base64, so wire >= raw
        # never holds compressed here, but both counters saw it.
        assert doc["wire"]["blob_wire_bytes"] > 0
        assert doc["wire"]["blob_raw_bytes"] > 0
        assert "payloads" not in doc

    def test_healthz(self):
        app, _ = make_app()
        status, _, payload = app.handle("GET", "/healthz")
        assert status == 200
        assert json.loads(payload.decode()) == {"status": "ok"}


class RaisingStore:
    """A store that is down: every call raises, and is counted."""

    def __init__(self, on):
        self.on = on
        self.calls = []

    def fetch(self, key):
        self.calls.append(("fetch", key))
        if "fetch" in self.on:
            raise OSError("store is down")
        return False, None

    def publish(self, key, value):
        self.calls.append(("publish", key))
        if "publish" in self.on:
            raise OSError("store is down")

    def stats(self):
        return {}


class TestCoordinatorSideStore:
    """The store sits behind the coordinator, which only ever writes to
    it: a claim is the queue's business alone (``run_cells`` looked the
    cell up before queueing it), computed results are published on
    ack."""

    def make(self, store=None, lease=10.0):
        queue = TaskQueue(lease=lease)
        store = MemoryArtifactStore() if store is None else store
        return CoordinatorApp(queue, store), queue, store

    def submit(self, queue, value, artifact="auto", cacheable=True):
        spec = CellSpec(key=f"t/sq/{value}", fn=square, args=(value,),
                        cacheable=cacheable)
        if artifact == "auto":
            artifact = f"art-{value}"
        return queue.submit(encode_cell(spec), key=spec.key,
                            artifact=artifact, cacheable=cacheable)

    def store_errors(self, app):
        _, _, payload = app.handle("GET", "/queue/status")
        return json.loads(payload.decode())["store_errors"]

    # -- claim side ----------------------------------------------------
    def test_a_claim_never_consults_the_store(self):
        """Cacheable, uncacheable or artifactless: whatever is queued
        ships, and a store that is down goes unnoticed."""
        app, queue, store = self.make(
            store=RaisingStore(on=("fetch", "publish")))
        tasks = [self.submit(queue, 2),
                 self.submit(queue, 3, cacheable=False),
                 self.submit(queue, 4, artifact=None)]
        status, body = claim(app, "w0", 3)
        assert status == 200
        assert [doc["task_id"] for doc in body["tasks"]] \
            == [task.task_id for task in tasks]
        assert all("artifact" not in doc for doc in body["tasks"])
        assert store.calls == []
        assert self.store_errors(app) == {"publish": 0}

    # -- ack side ------------------------------------------------------
    def test_ack_publishes_a_computed_result_exactly_once(self):
        app, queue, store = self.make()
        task = self.submit(queue, 5)
        claim(app, "w0")
        status, _ = post(app, "/queue/ack_many", {
            "worker": "w0", "acks": [{"task_id": task.task_id,
                                      "result": encode_blob(25)}]})
        assert status == 200
        assert store.fetch("art-5") == (True, 25)
        assert store.published == 1

    def test_ack_many_publishes_only_computed_cacheable_artifacts(self):
        app, queue, store = self.make()
        plain = self.submit(queue, 1)
        uncacheable = self.submit(queue, 2, cacheable=False)
        artifactless = self.submit(queue, 3, artifact=None)
        from_store = self.submit(queue, 4)
        claim(app, "w0", 4)
        status, body = post(app, "/queue/ack_many", {
            "worker": "w0",
            "acks": [ack_doc(plain, 1),
                     ack_doc(uncacheable, 4),
                     ack_doc(artifactless, 9),
                     ack_doc(from_store, 16, source="store")]})
        assert status == 200
        assert len(body["acked"]) == 4
        assert store.published == 1
        assert store.fetch("art-1") == (True, 1)
        assert store.fetch("art-2") == (False, None)
        assert store.fetch("art-4") == (False, None)

    def test_stale_and_rejected_acks_publish_nothing(self):
        app, queue, store = self.make()
        good, stale, bad = (self.submit(queue, v) for v in (1, 2, 3))
        claim(app, "w0", 3)
        queue.nack_many("w0", [(stale.task_id, "lost it", True)])
        status, body = post(app, "/queue/ack_many", {
            "worker": "w0",
            "acks": [ack_doc(good, 1),
                     ack_doc(stale, 4),
                     {"task_id": bad.task_id, "result": "not a blob!!"}]})
        assert status == 200
        assert body == {"acked": [good.task_id],
                        "stale": [stale.task_id],
                        "rejected": [bad.task_id]}
        # A re-delivered settle (the client retries ack_many) is stale.
        _, again = post(app, "/queue/ack_many", {
            "worker": "w0", "acks": [ack_doc(good, 1)]})
        assert again["stale"] == [good.task_id]
        assert store.published == 1
        assert store.fetch("art-2") == (False, None)
        assert store.fetch("art-3") == (False, None)
        assert (stale.state, bad.state) == ("pending", "claimed")

    def test_ack_without_the_lease_publishes_nothing(self):
        app, queue, store = self.make()
        task = self.submit(queue, 6)
        claim(app, "w0")
        status, body = post(app, "/queue/ack_many", {
            "worker": "intruder", "acks": [ack_doc(task, 36)]})
        assert (status, body["stale"]) == (200, [task.task_id])
        assert store.published == 0
        assert (task.state, task.worker) == ("claimed", "w0")

    def test_store_that_raises_on_publish_still_acks(self):
        app, queue, store = self.make(store=RaisingStore(on=("publish",)))
        task = self.submit(queue, 2)
        claim(app, "w0")
        status, _ = post(app, "/queue/ack_many", {
            "worker": "w0", "acks": [ack_doc(task, 4)]})
        assert status == 200
        assert (task.state, task.result, task.source) \
            == ("done", 4, "computed")
        assert ("publish", "art-2") in store.calls
        assert self.store_errors(app) == {"publish": 1}

    def test_artifact_routes_are_gone(self):
        app, _, _ = self.make()
        for method in ("GET", "PUT"):
            status, _, _ = app.handle(method, "/artifacts/k", b"x")
            assert status == 404


class TestConcurrentClaims:
    def test_no_task_lost_or_settled_twice_under_contention(self):
        """More claimers than cores: every task is shipped to, settled
        by and published for exactly one worker."""
        queue = TaskQueue(lease=30.0)
        store = MemoryArtifactStore()
        app = CoordinatorApp(queue, store)
        tasks = [queue.submit({}, key=str(value), artifact=f"art-{value}")
                 for value in range(200)]
        shipped = []

        def claimer(name):
            while True:
                status, body = post(app, "/queue/claim",
                                    {"worker": name, "max": 5})
                if status != 200:
                    return
                ids = [doc["task_id"] for doc in body["tasks"]]
                shipped.extend(ids)
                post(app, "/queue/ack_many", {
                    "worker": name,
                    "acks": [{"task_id": task_id,
                              "result": encode_blob(int(task_id[1:]))}
                             for task_id in ids]})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=claimer, args=(f"w{i}",))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert queue.finished()
        assert sorted(shipped) == sorted(task.task_id for task in tasks)
        assert [task.source for task in tasks] == ["computed"] * 200
        assert [task.result for task in tasks] == list(range(200))
        assert queue.stats.acks == 200
        assert store.stats() == {"fetched": 0, "published": 200}


class TestServerLifecycle:
    def test_close_after_start_is_prompt(self):
        """Not the stdlib's 0.5 s shutdown poll: a socket campaign pays
        this once, and used to pay half a second for it."""
        server = CoordinatorServer(TaskQueue())
        server.start()
        started = time.perf_counter()
        server.close()
        assert time.perf_counter() - started < 0.1

    def test_close_without_start_does_not_block(self):
        server = CoordinatorServer(TaskQueue())
        server.close()
        server.close()  # idempotent
