"""The socket backend's server half: a work queue over HTTP.

:class:`CoordinatorApp` exposes a :class:`~repro.dist.queue.TaskQueue`
and an artifact store through the same framework-agnostic
``handle(method, target, body)`` core the service plane uses — the kit
of :mod:`repro.service.http` mounts it (its docstring is the wire
contract), tests can call it without a socket.

The worker protocol (all JSON unless noted)::

    POST /queue/claim            {"worker", "max", "lease"?}
                                                       -> 200 {"tasks": [...]}
                                                       |  204 idle
                                                       |  410 drained
    POST /queue/ack_many         {"worker", "acks": [{task_id, result,
                                  source}]}  -> {"acked": [...], "stale": [...],
                                                 "rejected": [...]}
    POST /queue/nack_many        {"worker", "nacks": [{task_id, error,
                                  requeue}]} -> {"states": {...}}
    POST /queue/heartbeat        {"worker"}            -> {"extended": n}
    GET  /queue/status           queue + store + wire counters, task states
    GET  /healthz                liveness

A claim leases up to ``"max"`` tasks in one exchange (each under its
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
from ..service.http import (
    JSON,
    BadRequest,
    Reply,
    bind_server,
    dumps,
    error_doc,
    json_object,
    serve_in_thread,
)
from .queue import CLAIMED, QueueError, Task, TaskQueue
from .wire import WireError, decode_blob_ex

#: Longest lease a worker may ask for, as a multiple of the queue default.
MAX_LEASE_FACTOR = 10.0

#: Most tasks a single claim may lease, whatever the worker asks for.
MAX_CLAIM_BATCH = 64


class CoordinatorApp:
    """Routes worker-protocol requests onto the queue and the store."""

    def __init__(self, queue: TaskQueue, store: Any = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.queue = queue
        self.store = store
        # keep_series=False: the coordinator wants counters, not
        # timestamped series — no reason to drag the sim monitor in.
        self.metrics = metrics or MetricsRegistry(keep_series=False)
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

    # ------------------------------------------------------------------
    def handle(self, method: str, target: str,
               body: bytes = b"") -> Reply:
        parts = [part for part in target.split("?")[0].split("/") if part]
        self._http_bytes.labels(direction="in").inc(len(body))
        try:
            response = self._dispatch(method, parts, body)
        except QueueError as exc:
            response = 409, JSON, error_doc("queue", str(exc))
        except WireError as exc:
            response = 400, JSON, error_doc("wire", str(exc))
        except BadRequest as exc:
            response = 400, JSON, error_doc("bad-request", str(exc))
        except Exception as exc:  # noqa: BLE001 - the HTTP 500 boundary
            response = 500, JSON, error_doc(
                "internal", f"{type(exc).__name__}: {exc}")
        self._http_bytes.labels(direction="out").inc(len(response[2]))
        return response

    # ------------------------------------------------------------------
    def _task_doc(self, task: Task) -> dict[str, Any]:
        return {
            "task_id": task.task_id,
            "attempt": task.attempts,
            "cell": task.payload,
        }

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

    def _acked_result(self, worker: str, task_id: str,
                      doc: dict[str, Any]) -> tuple[Any, str]:
        """Decode one ack's ``(result, source)``.  Raises
        WireError/BadRequest when undecodable.

        A ``computed`` result is published *before* the caller acks the
        queue, so a finished campaign never races its own store — and
        only ever from the decoded result of a pure cell, so a
        duplicate publish is byte-identical to the first.
        """
        text = _require_str(doc, "result")
        result, _, raw = decode_blob_ex(text)
        self._blob_bytes.labels(encoding="wire").inc(len(text))
        self._blob_bytes.labels(encoding="raw").inc(raw)
        source = str(doc.get("source") or "computed")
        if source == "computed":
            self._publish(worker, task_id, result)
        return result, source

    def _dispatch(self, method: str, parts: list[str],
                  body: bytes) -> Reply:
        if parts == ["healthz"] and method == "GET":
            return 200, JSON, dumps({"status": "ok"})

        if parts == ["queue", "claim"] and method == "POST":
            doc = json_object(body)
            worker = _worker_id(doc)
            lease = doc.get("lease")
            if lease is not None:
                lease = min(float(lease),
                            self.queue.lease * MAX_LEASE_FACTOR)
            want = doc.get("max")
            if not isinstance(want, int) or isinstance(want, bool):
                raise BadRequest("field 'max' must be an integer")
            tasks = self.queue.claim_many(
                worker, max(1, min(want, MAX_CLAIM_BATCH)), lease=lease)
            if not tasks:
                if self.queue.draining:
                    return 410, JSON, error_doc("drained", "queue is drained")
                return 204, JSON, b""
            self._ops.labels(worker=worker, op="claim").inc(len(tasks))
            return 200, JSON, dumps(
                {"tasks": [self._task_doc(task) for task in tasks]})

        if parts == ["queue", "ack_many"] and method == "POST":
            doc = json_object(body)
            worker = _worker_id(doc)
            entries = _require_list(doc, "acks")
            triples: list[tuple[str, Any, str]] = []
            rejected: list[str] = []
            for entry in entries:
                if not isinstance(entry, dict):
                    raise BadRequest("each ack must be an object")
                task_id = _require_str(entry, "task_id")
                try:
                    result, source = self._acked_result(
                        worker, task_id, entry)
                except (WireError, BadRequest):
                    # One undecodable result must not void the batch;
                    # the task stays leased and expires back to pending.
                    rejected.append(task_id)
                    continue
                triples.append((task_id, result, source))
            acked, stale = self.queue.ack_many(worker, triples)
            self._ops.labels(worker=worker, op="ack").inc(len(acked))
            return 200, JSON, dumps(
                {"acked": acked, "stale": stale, "rejected": rejected})

        if parts == ["queue", "nack_many"] and method == "POST":
            doc = json_object(body)
            worker = _worker_id(doc)
            entries = _require_list(doc, "nacks")
            triples = []
            for entry in entries:
                if not isinstance(entry, dict):
                    raise BadRequest("each nack must be an object")
                triples.append((_require_str(entry, "task_id"),
                                _require_str(entry, "error"),
                                bool(entry.get("requeue", True))))
            states = self.queue.nack_many(worker, triples)
            settled = sum(1 for state in states.values() if state != "stale")
            self._ops.labels(worker=worker, op="nack").inc(settled)
            return 200, JSON, dumps({"states": states})

        if parts == ["queue", "heartbeat"] and method == "POST":
            doc = json_object(body)
            extended = self.queue.heartbeat(_worker_id(doc))
            return 200, JSON, dumps({"extended": extended})

        if parts == ["queue", "status"] and method == "GET":
            return 200, JSON, dumps(self._status_doc())

        return 404, JSON, error_doc(
            "unknown-route", f"no route {method} /{'/'.join(parts)}")

    # ------------------------------------------------------------------
    def _status_doc(self) -> dict[str, Any]:
        """The fleet-dashboard view: queue, leases, workers, wire."""
        workers: dict[str, dict[str, int]] = {}
        for child in self._ops.children():
            labels = child.labels_dict()
            ops = workers.setdefault(
                labels["worker"], {"claims": 0, "acks": 0, "nacks": 0})
            ops[labels["op"] + "s"] = int(child.value)

        def _count(family: Any, **labels: str) -> int:
            return int(family.labels(**labels).value)

        return {
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
        }


def _worker_id(doc: dict[str, Any]) -> str:
    worker = doc.get("worker")
    if not isinstance(worker, str) or not worker:
        raise BadRequest("field 'worker' must be a non-empty string")
    return worker


def _require_str(doc: dict[str, Any], field: str) -> str:
    value = doc.get(field)
    if not isinstance(value, str):
        raise BadRequest(f"field {field!r} must be a string")
    return value


def _require_list(doc: dict[str, Any], field: str) -> list[Any]:
    value = doc.get(field)
    if not isinstance(value, list):
        raise BadRequest(f"field {field!r} must be a list")
    return value


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
        # nodelay: a keep-alive round trip is ~0.3 ms, not ~44 ms.
        self.server = bind_server(self.app.handle, host, port,
                                       nodelay=True)
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
