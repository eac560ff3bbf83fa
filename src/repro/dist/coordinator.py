"""The socket backend's server half: a work queue over HTTP.

:class:`CoordinatorApp` exposes a :class:`~repro.dist.queue.TaskQueue`
and an artifact store through the same framework-agnostic
``handle(method, target, body)`` core the service plane uses — the kit
of :mod:`repro.service.http` mounts it (its docstring is the wire
contract), tests can call it without a socket.

The worker protocol (all JSON unless noted; each document is a
dataclass declared in :mod:`repro.dist.wire`)::

    POST /queue/claim      ClaimRequest  -> 200 ClaimReply | 204 idle
                                                           | 410 drained
    POST /queue/ack_many   AckBatch      -> AckReply
    POST /queue/nack_many  NackBatch     -> {"states": {task_id: state}}
    POST /queue/heartbeat  Heartbeat     -> {"extended": n}
    GET  /queue/status     queue + store + wire counters, task states
    GET  /healthz          liveness

Each body is decoded into its declared dataclass by
:mod:`repro.service.codec`; one that does not fit answers 400
``bad-request`` naming the field, and changes nothing.  Each reply the
worker reads is encoded from its declared dataclass too.

A claim leases up to ``max`` tasks in one exchange (each under its
*own* per-task lease), ``ack_many``/``nack_many`` settle whole batches,
every batched call piggybacks a heartbeat on the worker's other leases,
and every task document carries its cell inline (see
:mod:`repro.dist.wire`).

A claim leases each task for ``lease`` seconds (bounded by the queue
default); ack/nack/heartbeat before the deadline or the task goes back
on the queue for someone else — at-least-once delivery, the paper's
retry discipline applied to our own executor.  410 on claim is the
drain signal: workers exit cleanly when the campaign is over.

The artifact store never crosses the wire, and the coordinator only
ever writes to it.  ``run_cells`` looks every cell up once, before
anything is queued, so whatever a claim hands out needs computing; a
``computed`` result is published when its ack arrives, *before* the
queue marks the task done — by the time a result is acked the store
has it, and each result travels once.

Security: task payloads and results are pickles.  Bind loopback (the
default) or a network you trust end-to-end; this protocol authenticates
nobody.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..obs.metrics import MetricsRegistry
from ..service.codec import BadRequest, decode, encode
from ..service.http import (
    JSON,
    Reply,
    Request,
    Routes,
    bind_server,
    error_doc,
    json_object,
    json_reply,
    serve_in_thread,
)
from .queue import CLAIMED, QueueError, TaskQueue
from .wire import (
    Ack,
    AckBatch,
    AckReply,
    ClaimedTask,
    ClaimReply,
    ClaimRequest,
    Heartbeat,
    NackBatch,
    WireError,
    decode_blob_ex,
)

#: Longest lease a worker may ask for, as a multiple of the queue default.
MAX_LEASE_FACTOR = 10.0

#: Most tasks a single claim may lease, whatever the worker asks for.
MAX_CLAIM_BATCH = 64

ERRORS = {
    QueueError: lambda exc: (409, "queue", str(exc), None),
    WireError: lambda exc: (400, "wire", str(exc), None),
    BadRequest: lambda exc: (400, "bad-request", str(exc), None),
}


class CoordinatorApp:
    """Routes worker-protocol requests onto the queue and the store."""

    def __init__(self, queue: TaskQueue, store: Any = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.queue = queue
        self.store = store
        self.metrics = metrics or MetricsRegistry()
        self._ops = self.metrics.counter(
            "dist_worker_ops_total",
            "claim/ack/nack operations settled, per worker",
            labels=("worker", "op"))
        self._http_bytes = self.metrics.counter(
            "dist_http_bytes_total",
            "request/response body bytes through the coordinator",
            labels=("direction",))
        self._blob_bytes = self.metrics.counter(
            "dist_blob_bytes_total",
            "result/payload blob bytes, as shipped vs decompressed",
            labels=("encoding",))
        self._store_errors = self.metrics.counter(
            "dist_store_errors_total",
            "store calls that raised; the cell was acked anyway",
            labels=("op",))
        self.routes = Routes([
            ("GET", "/healthz", lambda req: json_reply({"status": "ok"})),
            ("POST", "/queue/claim", self._claim),
            ("POST", "/queue/ack_many", self._ack_many),
            ("POST", "/queue/nack_many", self._nack_many),
            ("POST", "/queue/heartbeat", self._heartbeat),
            ("GET", "/queue/status", self._status),
        ], ERRORS)

    # ------------------------------------------------------------------
    def handle(self, method: str, target: str,
               body: bytes = b"") -> Reply:
        self._http_bytes.labels(direction="in").inc(len(body))
        response = self.routes.handle(method, target, body)
        self._http_bytes.labels(direction="out").inc(len(response[2]))
        return response

    # ------------------------------------------------------------------
    def _publish(self, worker: str, task_id: str, result: Any) -> None:
        """Store a freshly computed result, if its task is cacheable and
        still leased to ``worker`` (a stale ack publishes nothing).  A
        store that raises costs the warm entry, never the ack."""
        try:
            task = self.queue.get(task_id)
        except QueueError:
            return
        if (task.state != CLAIMED or task.worker != worker
                or self.store is None or not task.artifact
                or not task.cacheable):
            return
        try:
            self.store.publish(task.artifact, result)
        except Exception:  # noqa: BLE001 - degrade to an unstored ack
            self._store_errors.labels(op="publish").inc()

    def _acked_result(self, worker: str, ack: Ack) -> Any:
        """Decode one ack's result blob.  Raises WireError when
        undecodable.

        A ``computed`` result is published *before* the caller acks the
        queue, so a finished campaign never races its own store — and
        only ever from the decoded result of a pure cell, so a
        duplicate publish is byte-identical to the first.
        """
        result, _, raw = decode_blob_ex(ack.result)
        self._blob_bytes.labels(encoding="wire").inc(len(ack.result))
        self._blob_bytes.labels(encoding="raw").inc(raw)
        if ack.source == "computed":
            self._publish(worker, ack.task_id, result)
        return result

    def _claim(self, req: Request) -> Reply:
        claim = decode(ClaimRequest, json_object(req.body))
        lease = claim.lease
        if lease is not None:
            lease = min(lease, self.queue.lease * MAX_LEASE_FACTOR)
        tasks = self.queue.claim_many(
            claim.worker, max(1, min(claim.max, MAX_CLAIM_BATCH)),
            lease=lease)
        if not tasks:
            if self.queue.draining:
                return 410, JSON, error_doc("drained", "queue is drained")
            return 204, JSON, b""
        self._ops.labels(worker=claim.worker, op="claim").inc(len(tasks))
        return json_reply(encode(ClaimReply(tuple(
            ClaimedTask(task.task_id, task.attempts, task.payload)
            for task in tasks))))

    def _ack_many(self, req: Request) -> Reply:
        batch = decode(AckBatch, json_object(req.body))
        triples: list[tuple[str, Any, str]] = []
        rejected: list[str] = []
        for ack in batch.acks:
            try:
                result = self._acked_result(batch.worker, ack)
            except WireError:
                # One undecodable result must not void the batch;
                # the task stays leased and expires back to pending.
                rejected.append(ack.task_id)
                continue
            triples.append((ack.task_id, result, ack.source))
        acked, stale = self.queue.ack_many(batch.worker, triples)
        self._ops.labels(worker=batch.worker, op="ack").inc(len(acked))
        return json_reply(encode(AckReply(
            tuple(acked), tuple(stale), tuple(rejected))))

    def _nack_many(self, req: Request) -> Reply:
        batch = decode(NackBatch, json_object(req.body))
        states = self.queue.nack_many(
            batch.worker, [(nack.task_id, nack.error, nack.requeue)
                           for nack in batch.nacks])
        settled = sum(1 for state in states.values() if state != "stale")
        self._ops.labels(worker=batch.worker, op="nack").inc(settled)
        return json_reply({"states": states})

    def _heartbeat(self, req: Request) -> Reply:
        beat = decode(Heartbeat, json_object(req.body))
        return json_reply({"extended": self.queue.heartbeat(beat.worker)})

    # ------------------------------------------------------------------
    def _status(self, req: Request) -> Reply:
        """The fleet-dashboard view: queue, leases, workers, wire."""
        workers: dict[str, dict[str, int]] = {}
        for child in self._ops.children():
            labels = child.labels_dict()
            ops = workers.setdefault(
                labels["worker"], {"claims": 0, "acks": 0, "nacks": 0})
            ops[labels["op"] + "s"] = int(child.value)

        def _count(family: Any, **labels: str) -> int:
            return int(family.labels(**labels).value)

        return json_reply({
            "draining": self.queue.draining,
            "outstanding": self.queue.outstanding(),
            "queue": {
                "depth": self.queue.depth(),
                "in_flight": self.queue.in_flight(),
            },
            "stats": self.queue.stats.as_dict(),
            "store": (self.store.stats()
                      if self.store is not None else None),
            "store_errors": {
                "publish": _count(self._store_errors, op="publish"),
            },
            "workers": workers,
            "wire": {
                "in_bytes": _count(self._http_bytes, direction="in"),
                "out_bytes": _count(self._http_bytes, direction="out"),
                "blob_wire_bytes": _count(self._blob_bytes,
                                          encoding="wire"),
                "blob_raw_bytes": _count(self._blob_bytes, encoding="raw"),
            },
            "tasks": [task.describe() for task in self.queue.tasks()],
        })


class CoordinatorServer:
    """A served CoordinatorApp with its own thread and lifecycle.

    ``with CoordinatorServer(queue, store) as url: ...`` — the pattern
    both the socket backend and the tests use.  ``start`` may be
    deferred: the server socket is bound in ``__init__``, so a backend
    can fork workers against ``url`` *before* the serve thread exists
    (their connections queue in the listen backlog) and keep the fork
    single-threaded.
    """

    def __init__(self, queue: TaskQueue, store: Any = None,
                 host: str = "127.0.0.1", port: int = 0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.app = CoordinatorApp(queue, store, metrics=metrics)
        self.server = bind_server(self.app.handle, host, port)
        bound_host, bound_port = self.server.server_address[:2]
        self.url = f"http://{bound_host}:{bound_port}"
        self._stop: Optional[Callable[[], None]] = None

    def start(self) -> str:
        if self._stop is None:
            self._stop = serve_in_thread(
                self.server, name="repro-dist-coordinator")
        return self.url

    def close(self) -> None:
        """Stop serving, promptly: a campaign pays this once."""
        if self._stop is not None:
            self._stop()
            self._stop = None
        else:
            # Never started: shutdown() would block on a handshake with
            # a serve loop that does not exist.
            self.server.server_close()

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
