"""The socket worker: pull cells from a coordinator, push results back.

::

    python -m repro.dist.worker http://127.0.0.1:8777 --id w0

The loop is deliberately boring — claim a batch, compute, ack the batch
— with the paper's client discipline wired into every edge:

* transient transport errors back off exponentially (capped) and retry;
* an idle queue (204) is polled with *jittered* Ethernet-style
  exponential backoff — a fleet of idle workers must not stampede the
  coordinator in lockstep — reset on the next successful claim;
* a drained queue (410) is a clean exit;
* while a batch runs, a heartbeat thread extends the leases (and every
  claim/ack piggybacks one), so slow cells survive short lease windows
  but a *crashed* worker's leases expire and the coordinator re-queues
  its tasks.

Batching is the throughput lever: the worker claims a *chunk* of cells
sized from the observed per-cell cost (aiming for
:data:`TARGET_BATCH_SECONDS` of work per round trip, at most
:data:`MAX_BATCH` cells), executes them all, and settles the whole
chunk with one ``ack_many``.  Cheap cells amortize round trips;
expensive cells shrink the chunk back toward one so lease granularity
stays honest.

The shared artifact store is not the worker's business: ``run_cells``
looks each cell up before queueing it and the coordinator publishes an
acked result on arrival — a worker only ever sees cells that need
computing, and each result crosses the wire once.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time
from typing import Any, Optional

from ..core.backoff import BackoffPolicy, BackoffState
from ..obs.push import push_observability, resolve_push_url
from ..parallel.executor import CellSpec
from ..service.http import HttpTransportError, http_request
from .wire import WireError, decode_cell, encode_blob

#: Base seconds between claim attempts while the queue is idle.
DEFAULT_POLL = 0.1

#: Lease the worker requests per task.
DEFAULT_LEASE = 30.0

#: Most cells a worker claims per exchange.
MAX_BATCH = 16

#: Seconds of work a batch should carry: the adaptive chunker divides
#: this by the observed mean cell cost to size the next claim.
TARGET_BATCH_SECONDS = 0.5


class WorkerError(Exception):
    """A protocol-level failure the worker cannot work around."""


class _Heartbeat:
    """Extends the worker's leases every ``interval`` seconds."""

    def __init__(self, client: "CoordinatorClient",
                 interval: float) -> None:
        self._client = client
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-dist-heartbeat", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._client.heartbeat()
            except HttpTransportError:
                # A missed heartbeat is survivable (the lease has slack);
                # a dead coordinator will fail the next claim loudly.
                pass

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


class CoordinatorClient:
    """The worker's half of the queue protocol (stdlib HTTP only).

    Rides the shared keep-alive pool in :mod:`repro.service.http`, so a
    worker's whole campaign flows over one persistent connection.
    """

    def __init__(self, url: str, worker_id: str,
                 lease: float = DEFAULT_LEASE,
                 timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.worker_id = worker_id
        self.lease = lease
        self.timeout = timeout

    def _post(self, path: str, doc: dict[str, Any],
              retries: int = 0) -> tuple[int, Any]:
        response = http_request(
            self.url + path, method="POST",
            body=json.dumps(doc).encode(),
            headers={"Content-Type": "application/json"},
            timeout=self.timeout, retries=retries)
        payload: Any = None
        if response.body:
            try:
                payload = json.loads(response.body.decode())
            except (ValueError, UnicodeDecodeError):
                payload = None
        return response.status, payload

    # -- protocol verbs --------------------------------------------------
    # claim/heartbeat are idempotent and ack_many/nack_many are
    # duplicate-safe (a re-delivered settle just reports stale), so all
    # of them retry on transport failures.
    def claim(self, max_tasks: int = 1
              ) -> tuple[str, list[dict[str, Any]]]:
        """``("tasks", docs)``, ``("idle", [])`` or ``("drained", [])``."""
        status, payload = self._post(
            "/queue/claim",
            {"worker": self.worker_id, "lease": self.lease,
             "max": max_tasks},
            retries=3)
        if status == 200 and isinstance(payload, dict):
            tasks = payload.get("tasks")
            if isinstance(tasks, list):
                return "tasks", [t for t in tasks if isinstance(t, dict)]
        if status == 204:
            return "idle", []
        if status == 410:
            return "drained", []
        raise WorkerError(f"claim failed: HTTP {status} {payload!r}")

    def ack_many(self, acks: list[tuple[str, Any, str]]) -> list[str]:
        """Settle a batch of results; returns the stale task ids."""
        if not acks:
            return []
        status, doc = self._post(
            "/queue/ack_many",
            {"worker": self.worker_id,
             "acks": [{"task_id": task_id, "result": encode_blob(result),
                       "source": source}
                      for task_id, result, source in acks]},
            retries=2)
        if status != 200 or not isinstance(doc, dict):
            raise WorkerError(f"ack_many failed: HTTP {status} {doc!r}")
        stale = doc.get("stale")
        return [str(t) for t in stale] if isinstance(stale, list) else []

    def nack_many(self, nacks: list[tuple[str, str, bool]]) -> None:
        if not nacks:
            return
        status, doc = self._post(
            "/queue/nack_many",
            {"worker": self.worker_id,
             "nacks": [{"task_id": task_id, "error": error,
                        "requeue": requeue}
                       for task_id, error, requeue in nacks]},
            retries=2)
        if status != 200:
            raise WorkerError(f"nack_many failed: HTTP {status} {doc!r}")

    def heartbeat(self) -> None:
        self._post("/queue/heartbeat", {"worker": self.worker_id})


class WorkerTelemetry:
    """The worker's own registry, pushed to a fleet aggregator.

    The dist fleet dogfooding the paper's thesis: every worker counts
    its claim outcomes, settled cells, busy/elapsed seconds (the
    aggregator derives utilisation from exactly that counter pair) and
    the jittered idle backoffs it actually slept — so fleet contention
    on the coordinator becomes as measurable as the simulated
    scenarios.  Each :meth:`push` ships the current cumulative totals
    under the next ``seq``; pushes are best-effort (``failed`` tallies
    the ones that did not land).  With no URL, :meth:`disabled`
    instances keep every call a cheap no-op.
    """

    def __init__(self, url: Optional[str], worker_id: str) -> None:
        self.enabled = url is not None
        if not self.enabled:
            return
        # a worker that pushes nothing never loads the telemetry stack
        from ..obs.api import Observability

        self.obs = Observability.wall()
        metrics = self.obs.metrics
        self._claims = metrics.counter(
            "dist_worker_claims_total", "claim outcomes",
            labels=("outcome",))
        self._cells = metrics.counter(
            "dist_worker_cells_total", "cells settled by result source",
            labels=("source",))
        self._busy = metrics.counter(
            "dist_worker_busy_seconds_total", "seconds executing batches")
        self._elapsed = metrics.counter(
            "dist_worker_elapsed_seconds_total",
            "wall seconds since the loop started")
        self._backoff = metrics.histogram(
            "dist_worker_idle_backoff_seconds",
            "jittered idle backoff sleeps")
        self._batch = metrics.gauge(
            "dist_worker_batch_size", "current adaptive chunk size")
        self.url = url
        self.source = f"worker/{worker_id}"
        self.labels = {"component": "dist-worker", "worker": worker_id}
        self.timeout = 10.0
        self.seq = self.pushed = self.failed = 0
        self._mark = time.perf_counter()

    @classmethod
    def disabled(cls) -> "WorkerTelemetry":
        return cls(None, "")

    def claim(self, kind: str) -> None:
        if self.enabled:
            self._claims.labels(outcome=kind).inc()

    def idle_sleep(self, seconds: float) -> None:
        if self.enabled:
            self._backoff.observe(seconds)

    def batch_done(self, outcomes: dict[str, str], elapsed: float,
                   next_batch: int) -> None:
        if not self.enabled:
            return
        for source in outcomes.values():
            self._cells.labels(source=source).inc()
        self._busy.inc(elapsed)
        self._batch.set(next_batch)
        self.push()

    def push(self) -> None:
        """Advance the elapsed counter and ship current totals."""
        if not self.enabled:
            return
        now = time.perf_counter()
        self._elapsed.inc(now - self._mark)
        self._mark = now
        self.seq += 1
        if push_observability(self.url, self.obs, self.source,
                              labels=self.labels, seq=self.seq,
                              timeout=self.timeout):
            self.pushed += 1
        else:
            self.failed += 1


def execute_cell(spec: CellSpec) -> Any:
    """Run one decoded cell exactly as the local executor would."""
    from ..parallel.executor import _execute

    return _execute(spec)


def process_batch(
    client: CoordinatorClient,
    docs: list[dict[str, Any]],
) -> dict[str, str]:
    """Execute a claimed chunk; returns ``{task_id: outcome}``
    (``"computed"`` or ``"error"``).

    Every guard is per-cell: an undecodable cell nacks terminally, a
    crashed cell nacks for retry.  Nothing a single cell does can void
    its batchmates' results.
    """
    acks: list[tuple[str, Any, str]] = []
    nacks: list[tuple[str, str, bool]] = []
    outcomes: dict[str, str] = {}
    with _Heartbeat(client, interval=max(client.lease / 3.0, 0.5)):
        for doc in docs:
            task_id = str(doc.get("task_id"))
            cell_doc = doc.get("cell")
            try:
                spec = decode_cell(
                    cell_doc if isinstance(cell_doc, dict) else {})
            except WireError as exc:
                # Undecodable cells will not improve with retries.
                nacks.append((task_id, f"wire: {exc}", False))
                outcomes[task_id] = "error"
                continue
            try:
                value = execute_cell(spec)
            except Exception as exc:  # noqa: BLE001 - cell isolation
                nacks.append((task_id, f"{type(exc).__name__}: {exc}", True))
                outcomes[task_id] = "error"
                continue
            acks.append((task_id, value, "computed"))
            outcomes[task_id] = "computed"
        client.ack_many(acks)
        client.nack_many(nacks)
    return outcomes


def next_batch_size(elapsed: float, handled: int,
                    target: float = TARGET_BATCH_SECONDS) -> int:
    """Size the next claim from the chunk just finished.

    ``target / mean_cell_seconds``, clamped to ``[1, MAX_BATCH]`` —
    cheap cells grow the chunk until round trips amortize, expensive
    cells shrink it back to one so a lost lease re-runs one cell, not
    sixteen.
    """
    mean = elapsed / max(handled, 1)
    if mean <= 0:
        return MAX_BATCH
    return max(1, min(MAX_BATCH, int(target / mean) or 1))


def worker_loop(
    url: str,
    worker_id: str,
    poll: float = DEFAULT_POLL,
    lease: float = DEFAULT_LEASE,
    max_tasks: Optional[int] = None,
    say=lambda line: None,
    rng: Optional[random.Random] = None,
    obs_push: Optional[str] = None,
) -> int:
    """Claim and execute until the queue drains; returns tasks handled."""
    rng = rng or random.Random()
    client = CoordinatorClient(url, worker_id, lease=lease)
    telemetry = WorkerTelemetry(obs_push, worker_id)
    # Idle naps are drawn uniformly from a window doubling per idle
    # claim, so parallel workers spread out.  Truncated at poll*4: past
    # that the collision pressure is gone and longer naps only delay
    # noticing the drain.
    idle = BackoffState(BackoffPolicy(base=poll, ceiling=4 * poll,
                                      jitter_low=0.0, jitter_high=1.0))
    handled = 0
    batch = 1
    while max_tasks is None or handled < max_tasks:
        want = batch
        if max_tasks is not None:
            want = min(want, max_tasks - handled)
        try:
            kind, docs = client.claim(max_tasks=want)
        except HttpTransportError as exc:
            # The coordinator is gone (shutdown race or crash).  Its
            # queue state outlives us either way; exit instead of
            # spinning against a dead socket.
            say(f"coordinator unreachable, exiting: {exc}")
            break
        telemetry.claim(kind)
        if kind == "drained":
            say("queue drained, exiting")
            break
        if kind == "idle":
            # A deterministic floor (never a hot spin) plus the draw.
            nap = poll * 0.25 + idle.next_delay(rng.random)
            telemetry.idle_sleep(nap)
            time.sleep(nap)
            continue
        idle.reset()
        started = time.perf_counter()
        outcomes = process_batch(client, docs)
        elapsed = time.perf_counter() - started
        for task_id, source in outcomes.items():
            say(f"task {task_id} [{source}]")
        handled += len(docs)
        batch = next_batch_size(elapsed, len(docs))
        telemetry.batch_done(outcomes, elapsed, batch)
    telemetry.push()
    return handled


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dist.worker",
        description="pull campaign cells from a repro.dist coordinator")
    parser.add_argument("url", help="coordinator base URL")
    parser.add_argument("--id", default=None,
                        help="worker id (default: host:pid)")
    parser.add_argument("--poll", type=float, default=DEFAULT_POLL,
                        help="base seconds between claims when idle")
    parser.add_argument("--lease", type=float, default=DEFAULT_LEASE,
                        help="requested lease seconds per task")
    parser.add_argument("--max-tasks", type=int, default=None,
                        help="exit after handling N tasks")
    parser.add_argument("--obs-push", default=None, metavar="URL",
                        help="push worker telemetry to a fleet "
                             "aggregator (default $REPRO_OBS_PUSH, or "
                             "off)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    worker_id = args.id or f"{os.uname().nodename}:{os.getpid()}"
    say = ((lambda line: None) if args.quiet else
           (lambda line: print(f"worker {worker_id}: {line}", flush=True)))
    try:
        handled = worker_loop(
            args.url, worker_id, poll=args.poll, lease=args.lease,
            max_tasks=args.max_tasks, say=say,
            obs_push=resolve_push_url(args.obs_push))
    except WorkerError as exc:
        print(f"worker {worker_id}: fatal: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    say(f"handled {handled} task(s)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
