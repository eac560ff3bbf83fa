"""The work queue at the heart of ``repro.dist``.

:class:`TaskQueue` is a small, lock-guarded, in-memory queue with the
semantics the socket backend is built on:

* **submit** — tasks enter in submission order and are handed out FIFO;
* **claim_many** — a worker takes the next pending tasks, each under
  its own *lease*: a deadline by which it must ack, nack, or heartbeat;
* **ack_many / nack_many** — terminal outcomes for a whole chunk per
  call, with worker-id guards and max-attempts bounds strictly
  per-task.  An ack stores the result; a nack either re-enqueues the
  task (transient failure) or fails it for good.  Every batched call
  piggybacks a heartbeat on the worker's other leases;
* **heartbeat** — extends every lease a worker holds, each by the
  window its claim asked for, so long-running cells survive short lease
  windows;
* **reap** — expired leases (a worker that stopped heartbeating: crashed,
  hung, partitioned) put their tasks back on the queue, up to
  ``max_attempts`` per task.

That makes delivery *at-least-once*: a task whose worker dies is re-run
by another worker, which is safe here because every task is a pure
function of its spec — the same discipline the paper applies to grid
jobs (detect the failure, back off, try again) applied to our own
executor.  Exactly-once *results* come from the layer above: results
land in the content-addressed artifact store, so a re-run converges on
the same bytes.

The queue itself never executes anything and never talks to sockets —
the socket coordinator exposes it over HTTP.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Task lifecycle states.
PENDING = "pending"
CLAIMED = "claimed"
DONE = "done"
FAILED = "failed"

#: States a task never leaves.
TERMINAL = frozenset({DONE, FAILED})

#: Default seconds a claim stays valid without an ack or heartbeat.
DEFAULT_LEASE = 30.0

#: Default executions allowed per task before it fails for good.
DEFAULT_MAX_ATTEMPTS = 3


class QueueError(Exception):
    """An operation that does not fit the queue's current state."""


@dataclass
class Task:
    """One unit of queued work (mutable; guarded by the queue lock).

    ``payload`` is opaque to the queue — the socket backend puts a
    wire document in it.  ``artifact`` optionally names the shared-
    store key where the result should be published/fetched.
    """

    task_id: str
    index: int
    payload: Any
    key: str = ""
    artifact: Optional[str] = None
    cacheable: bool = True
    state: str = PENDING
    attempts: int = 0
    worker: Optional[str] = None
    deadline: Optional[float] = None
    #: The seconds this claim's lease runs: each extension grants them.
    lease: float = 0.0
    result: Any = None
    error: Optional[str] = None
    #: How the result was obtained: ``computed`` or ``store``.
    source: Optional[str] = None

    def describe(self) -> dict[str, Any]:
        """A JSON-able status row (the coordinator's /queue/status)."""
        return {
            "task_id": self.task_id,
            "index": self.index,
            "key": self.key,
            "state": self.state,
            "attempts": self.attempts,
            "worker": self.worker,
        }


@dataclass
class QueueStats:
    """Counters the queue keeps about its own behaviour."""

    submitted: int = 0
    claims: int = 0
    acks: int = 0
    nacks: int = 0
    expired: int = 0
    heartbeats: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "submitted": self.submitted,
            "claims": self.claims,
            "acks": self.acks,
            "nacks": self.nacks,
            "expired": self.expired,
            "heartbeats": self.heartbeats,
        }


class TaskQueue:
    """In-memory submit/claim/ack/nack queue with lease timeouts.

    Thread-safe: the socket coordinator calls into it from HTTP handler
    threads while the orchestration loop reaps and drains.  ``clock`` is
    injectable so lease expiry is testable without sleeping.
    """

    def __init__(
        self,
        lease: float = DEFAULT_LEASE,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease <= 0:
            raise ValueError(f"lease must be positive, got {lease}")
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}")
        self.lease = lease
        self.max_attempts = max_attempts
        self.clock = clock
        self.stats = QueueStats()
        self._tasks: dict[str, Task] = {}
        self._pending: deque[str] = deque()
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._draining = False
        self._sequence = 0

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def submit(self, payload: Any, key: str = "",
               artifact: Optional[str] = None,
               cacheable: bool = True) -> Task:
        """Enqueue one task; returns its record (id assigned here)."""
        with self._lock:
            if self._draining:
                raise QueueError("queue is draining; no new tasks")
            task = Task(
                task_id=f"t{self._sequence}",
                index=self._sequence,
                payload=payload,
                key=key,
                artifact=artifact,
                cacheable=cacheable,
            )
            self._sequence += 1
            self._tasks[task.task_id] = task
            self._pending.append(task.task_id)
            self.stats.submitted += 1
            return task

    def drain(self) -> None:
        """Refuse new submissions and tell idle claimers to go away."""
        with self._lock:
            self._draining = True
            self._done.notify_all()

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def claim_many(self, worker: str, max_tasks: int,
                   lease: Optional[float] = None) -> list[Task]:
        """Hand up to ``max_tasks`` pending tasks to ``worker``, FIFO.

        Each task gets its *own* lease deadline — expiry, re-delivery,
        and poison bounds remain per-task even when delivery is
        batched.  Expired leases are collected on the way in, so a
        single-threaded driver never needs a separate reaper.  The
        claim also piggybacks a heartbeat: any lease the worker already
        holds is extended, so a worker busy with a long batch need not
        make a separate heartbeat call just because it came back for
        more work.
        """
        if not worker:
            raise QueueError("claim needs a worker id")
        if max_tasks < 1:
            raise QueueError(f"claim batch must be >= 1, got {max_tasks}")
        with self._lock:
            self._reap_locked()
            now = self.clock()
            self._extend_held_locked(worker, now)
            window = self.lease if lease is None else lease
            claimed: list[Task] = []
            while self._pending and len(claimed) < max_tasks:
                task = self._tasks[self._pending.popleft()]
                task.state = CLAIMED
                task.worker = worker
                task.attempts += 1
                task.lease = window
                task.deadline = now + window
                self.stats.claims += 1
                claimed.append(task)
            return claimed

    def ack_many(self, worker: str,
                 acks: list[tuple[str, Any, str]]
                 ) -> tuple[list[str], list[str]]:
        """Complete a batch of claimed tasks: ``(task_id, result,
        source)`` triples.  Returns ``(acked, stale)`` task-id lists.

        A stale entry — the lease expired and someone else holds (or
        already finished) the task — is *skipped*, not raised: one slow
        cell must not void its batchmates' perfectly good results, and
        the store made the re-run identical.  The call piggybacks a
        heartbeat on any lease the worker still holds.
        """
        acked: list[str] = []
        stale: list[str] = []
        with self._lock:
            for task_id, result, source in acks:
                task = self._tasks.get(task_id)
                if (task is None or task.state != CLAIMED
                        or task.worker != worker):
                    stale.append(task_id)
                    continue
                task.state = DONE
                task.result = result
                task.source = source
                task.worker = None
                task.deadline = None
                self.stats.acks += 1
                acked.append(task_id)
            self._extend_held_locked(worker, self.clock())
            if acked:
                self._done.notify_all()
        return acked, stale

    def nack_many(self, worker: str,
                  nacks: list[tuple[str, str, bool]]) -> dict[str, str]:
        """Report a batch of failures: ``(task_id, error, requeue)``
        triples.  Returns each task's resulting state (``"stale"`` for
        entries the worker no longer holds).  ``requeue=True`` puts the
        task back on the queue; ``requeue=False`` fails it immediately,
        for errors retrying cannot fix.  Poison bounds stay per-task:
        one cell exhausting ``max_attempts`` fails alone, its
        batchmates re-enqueue as usual.
        """
        states: dict[str, str] = {}
        with self._lock:
            for task_id, error, requeue in nacks:
                task = self._tasks.get(task_id)
                if (task is None or task.state != CLAIMED
                        or task.worker != worker):
                    states[task_id] = "stale"
                    continue
                task.worker = None
                task.deadline = None
                task.error = error
                self.stats.nacks += 1
                if requeue and task.attempts < self.max_attempts:
                    task.state = PENDING
                    self._pending.append(task.task_id)
                else:
                    task.state = FAILED
                    self._done.notify_all()
                states[task_id] = task.state
            self._extend_held_locked(worker, self.clock())
        return states

    def heartbeat(self, worker: str) -> int:
        """Extend every lease ``worker`` holds; returns how many."""
        with self._lock:
            extended = self._extend_held_locked(worker, self.clock())
            self.stats.heartbeats += 1
            return extended

    def _extend_held_locked(self, worker: str, now: float) -> int:
        """The piggybacked heartbeat: refresh every lease held by
        ``worker``, each by the window its claim asked for.  Counted in
        ``stats.heartbeats`` only when the caller is an explicit
        heartbeat request."""
        extended = 0
        for task in self._tasks.values():
            if task.state == CLAIMED and task.worker == worker:
                task.deadline = now + task.lease
                extended += 1
        return extended

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------
    def reap_expired(self) -> list[Task]:
        """Re-enqueue every task whose lease expired; returns them.

        Tasks past ``max_attempts`` fail instead of re-enqueueing — a
        cell that kills every worker that touches it must not poison
        the fleet forever.
        """
        with self._lock:
            return self._reap_locked()

    def _reap_locked(self) -> list[Task]:
        now = self.clock()
        reaped: list[Task] = []
        for task in self._tasks.values():
            if (task.state == CLAIMED and task.deadline is not None
                    and task.deadline < now):
                task.worker = None
                task.deadline = None
                self.stats.expired += 1
                if task.attempts >= self.max_attempts:
                    task.state = FAILED
                    task.error = (f"lease expired after "
                                  f"{task.attempts} attempt(s)")
                    self._done.notify_all()
                else:
                    task.state = PENDING
                    self._pending.append(task.task_id)
                reaped.append(task)
        return reaped

    # ------------------------------------------------------------------
    # Introspection / completion
    # ------------------------------------------------------------------
    def get(self, task_id: str) -> Task:
        with self._lock:
            task = self._tasks.get(task_id)
            if task is None:
                raise QueueError(f"unknown task: {task_id}")
            return task

    def tasks(self) -> list[Task]:
        with self._lock:
            return sorted(self._tasks.values(), key=lambda t: t.index)

    def outstanding(self) -> int:
        """Tasks not yet terminal."""
        with self._lock:
            return sum(1 for task in self._tasks.values()
                       if task.state not in TERMINAL)

    def depth(self) -> int:
        """Tasks waiting to be claimed."""
        with self._lock:
            return len(self._pending)

    def in_flight(self) -> int:
        """Tasks currently out under a lease."""
        with self._lock:
            return sum(1 for task in self._tasks.values()
                       if task.state == CLAIMED)

    def finished(self) -> bool:
        with self._lock:
            return all(task.state in TERMINAL
                       for task in self._tasks.values())

    def failures(self) -> list[Task]:
        with self._lock:
            return [task for task in self._tasks.values()
                    if task.state == FAILED]

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every task is terminal (or ``timeout`` passes).

        Wakes on acks and terminal nacks; lease expiry is driven by the
        caller's reap loop, so pass a finite timeout when workers might
        die silently.
        """
        deadline = (self.clock() + timeout) if timeout is not None else None
        with self._lock:
            while not all(task.state in TERMINAL
                          for task in self._tasks.values()):
                remaining = None
                if deadline is not None:
                    remaining = deadline - self.clock()
                    if remaining <= 0:
                        return False
                self._done.wait(remaining)
            return True
