"""The in-process job store: admission to result, one object.

``workers`` daemon threads drain one queue of admitted job ids; each
executes its job's cells itself through
:func:`repro.parallel.run_cells`, with the content-addressed result
cache underneath.  HTTP handler threads only ever take the store lock.

Job ids are deterministic content hashes of the normalized submission
(:func:`repro.service.schemas.job_id_for`, the result cache's sha256
recipe), so identical submissions *dedupe to one job* — the second
submitter of a popular campaign gets the first one's job id, and a
resubmission after completion is served from the store (or, after TTL
expiry, re-runs as pure cache hits).

States: ``queued -> running -> done | failed | cancelled``.  Terminal
jobs are retained for ``ttl`` seconds, then purged.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..obs.api import coalesce
from ..parallel.cache import ResultCache, code_fingerprint
from ..parallel.executor import CampaignCancelled, run_cells
from ..parallel.transport import to_jsonable
from .sandbox import (
    SandboxPolicy,
    SandboxRejection,
    admit_campaign,
    admit_script,
    cells_for,
)
from .schemas import (
    CANCELLED,
    CampaignSubmission,
    DONE,
    FAILED,
    JobEvent,
    JobResult,
    JobStatus,
    QUEUED,
    RUNNING,
    ScriptSubmission,
    TERMINAL,
    job_id_for,
)


class UnknownJob(KeyError):
    """Lookup of a job id the store does not (or no longer does) hold."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        super().__init__(job_id)


class NotFinished(Exception):
    """Result requested before the job reached a terminal state."""

    def __init__(self, job_id: str, state: str) -> None:
        self.job_id = job_id
        self.state = state
        super().__init__(f"job {job_id} is {state}, not finished")


@dataclass
class JobRecord:
    """One job's mutable server-side state (guarded by the store lock)."""

    job_id: str
    kind: str
    submission: Any
    cells: int
    state: str = QUEUED
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    cache_hit: Optional[bool] = None
    error: Optional[str] = None
    result: Any = None
    events: list[JobEvent] = field(default_factory=list)
    cancel: threading.Event = field(default_factory=threading.Event)

    def status(self, deduped: bool = False) -> JobStatus:
        return JobStatus(
            job_id=self.job_id,
            kind=self.kind,
            state=self.state,
            created=self.created,
            started=self.started,
            finished=self.finished,
            deduped=deduped,
            cache_hit=self.cache_hit,
            cells=self.cells,
            error=self.error,
            events_seq=len(self.events),
        )


class JobStore:
    """Submissions in, statuses and results out.

    Bounded: concurrently *running* jobs (``workers``, one thread each)
    and retained terminal jobs (``ttl``).  Not bounded yet: *pending*
    jobs — the admission queue takes every submission the sandbox
    admits until ROADMAP 2(b) gives it a ``maxsize``.  ``run_jobs`` is
    passed to :func:`~repro.parallel.run_cells` for intra-job
    parallelism.

    A job's wall budget comes from the policy and starts when a worker
    picks the job up.  It is a deadline folded into the cancel hook the
    executor polls between cells, so an overrunning job stops at the
    next check and is reported ``failed: wall budget exceeded`` by the
    thread that ran it — once that thread is free for the next job.  A
    lone uninterruptible cell that finishes late is failed all the same.
    """

    def __init__(
        self,
        policy: Optional[SandboxPolicy] = None,
        cache: Optional[ResultCache] = None,
        workers: int = 2,
        run_jobs: Optional[int] = None,
        run_backend: Optional[str] = None,
        ttl: Optional[float] = 3600.0,
        clock: Callable[[], float] = time.time,
        obs: Any = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive or None, got {ttl}")
        self.policy = policy if policy is not None else SandboxPolicy()
        self.cache = cache
        self.run_jobs = run_jobs
        self.run_backend = run_backend
        self.ttl = ttl
        self.clock = clock
        self.obs = coalesce(obs)
        self._workers = workers
        self._records: dict[str, JobRecord] = {}
        self._lock = threading.Lock()
        # Event appends notify long-poll waiters (events(wait=...)).
        self._wakeup = threading.Condition(self._lock)
        #: Admitted job ids, then one ``None`` per thread on close().
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []
        self._closed = False

        metrics = self.obs.metrics
        self._m_submitted = metrics.counter(
            "service_jobs_submitted_total", "jobs accepted at admission",
            labels=("kind",))
        self._m_deduped = metrics.counter(
            "service_jobs_deduped_total",
            "submissions answered with an existing job")
        self._m_rejected = metrics.counter(
            "service_jobs_rejected_total", "submissions the sandbox refused",
            labels=("code",))
        self._m_finished = metrics.counter(
            "service_jobs_finished_total", "jobs reaching a terminal state",
            labels=("state",))
        self._m_running = metrics.gauge(
            "service_jobs_running", "jobs currently executing")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "JobStore":
        """Start the worker threads (idempotent)."""
        if not self._threads:
            for index in range(self._workers):
                thread = threading.Thread(
                    target=self._worker, name=f"repro-service-{index}",
                    daemon=True)
                thread.start()
                self._threads.append(thread)
        return self

    def close(self) -> None:
        """Cancel unfinished jobs, then stop and join the workers."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            unfinished = [job_id for job_id, record in self._records.items()
                          if record.state not in TERMINAL]
        for job_id in unfinished:
            self.cancel(job_id)  # queued jobs never start
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=10.0)

    def __enter__(self) -> "JobStore":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, submission) -> JobStatus:
        """Admit, dedupe, enqueue; return the job's status.

        Raises :class:`~repro.service.sandbox.SandboxRejection` when the
        sandbox refuses the submission.
        """
        if not self._threads:
            raise RuntimeError("JobStore.submit before start()")
        try:
            if isinstance(submission, ScriptSubmission):
                admitted = admit_script(submission, self.policy)
                kind = "script"
            elif isinstance(submission, CampaignSubmission):
                admitted = admit_campaign(submission, self.policy)
                kind = "campaign"
            else:
                raise SandboxRejection(
                    "invalid",
                    f"not a submission: {type(submission).__name__}")
        except SandboxRejection as exc:
            self._m_rejected.labels(code=exc.code).inc()
            raise
        fingerprint = (self.cache.fingerprint if self.cache is not None
                       else code_fingerprint())
        job_id = job_id_for(admitted, fingerprint)
        cells = cells_for(admitted, self.policy)
        now = self.clock()
        with self._lock:
            self._purge_locked(now)
            existing = self._records.get(job_id)
            if existing is not None and existing.state not in TERMINAL:
                # In-flight twin: one execution serves both submitters.
                self._m_deduped.inc()
                return existing.status(deduped=True)
            if existing is not None:
                # Terminal twin: re-enqueue the same job id.  Every cell
                # is already in the content-addressed cache, so the
                # re-run is a pure cache read — which is exactly what
                # makes `cache_hit: true` observable on resubmission.
                record = existing
                record.state = QUEUED
                record.started = None
                record.finished = None
                record.cache_hit = None
                record.error = None
                record.result = None
                record.cancel.clear()
                self._event_locked(record, QUEUED, "resubmitted")
            else:
                record = JobRecord(
                    job_id=job_id, kind=kind, submission=admitted,
                    cells=len(cells), created=now)
                self._event_locked(record, QUEUED, "admitted")
                self._records[job_id] = record
        self._m_submitted.labels(kind=kind).inc()
        self._queue.put(job_id)
        return record.status()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _get(self, job_id: str) -> JobRecord:
        record = self._records.get(job_id)
        if record is None:
            raise UnknownJob(job_id)
        return record

    def status(self, job_id: str) -> JobStatus:
        with self._lock:
            self._purge_locked(self.clock())
            return self._get(job_id).status()

    def result(self, job_id: str) -> JobResult:
        """The terminal result document; raises NotFinished otherwise."""
        with self._lock:
            record = self._get(job_id)
            if record.state not in TERMINAL:
                raise NotFinished(job_id, record.state)
            return JobResult(
                job_id=record.job_id,
                kind=record.kind,
                state=record.state,
                cache_hit=record.cache_hit,
                result=record.result,
            )

    def events(self, job_id: str, since: int = 0,
               wait: float = 0.0) -> list[JobEvent]:
        """Status events with ``seq > since`` (the incremental stream).

        ``wait > 0`` long-polls: when nothing is newer than ``since``,
        the call blocks until an event lands (any job's append wakes the
        waiters; the filter re-checks this job) or ``wait`` seconds pass,
        then returns whatever there is — possibly nothing.  Followers
        get sub-poll-interval latency without busy-polling the store.
        """
        deadline = time.monotonic() + wait if wait > 0 else None
        with self._lock:
            record = self._get(job_id)
            while True:
                fresh = [event for event in record.events
                         if event.seq > since]
                if fresh or deadline is None:
                    return fresh
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._wakeup.wait(remaining):
                    return [event for event in record.events
                            if event.seq > since]

    def jobs(self) -> list[JobStatus]:
        with self._lock:
            self._purge_locked(self.clock())
            return [record.status() for record in self._records.values()]

    # ------------------------------------------------------------------
    # Cancellation and expiry
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> JobStatus:
        """Request cancellation; queued jobs stop immediately, running
        jobs stop at the executor's next cancellation check."""
        with self._lock:
            record = self._get(job_id)
            if record.state == QUEUED:
                record.cancel.set()
                record.state = CANCELLED
                record.finished = self.clock()
                self._event_locked(record, CANCELLED, "cancelled while queued")
                self._m_finished.labels(state=CANCELLED).inc()
            elif record.state == RUNNING:
                record.cancel.set()
                self._event_locked(record, RUNNING, "cancellation requested")
            return record.status()

    def purge_expired(self, now: Optional[float] = None) -> int:
        """Drop terminal records older than the TTL; returns the count."""
        with self._lock:
            return self._purge_locked(now if now is not None
                                      else self.clock())

    def _purge_locked(self, now: float) -> int:
        if self.ttl is None:
            return 0
        expired = [
            job_id for job_id, record in self._records.items()
            if record.state in TERMINAL and record.finished is not None
            and now - record.finished > self.ttl
        ]
        for job_id in expired:
            del self._records[job_id]
        return len(expired)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _event_locked(self, record: JobRecord, state: str,
                      message: str) -> None:
        record.events.append(JobEvent(
            seq=len(record.events) + 1,
            ts=self.clock(),
            state=state,
            message=message,
        ))
        self._wakeup.notify_all()

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                record = self._records.get(job_id)
                if record is None or record.state != QUEUED:
                    continue  # cancelled (or purged) while queued
                record.state = RUNNING
                record.started = self.clock()
                self._event_locked(record, RUNNING,
                                   f"executing {record.cells} cell(s)")
            self._m_running.inc()
            span = self.obs.tracer.start(f"job:{record.kind}", "service")
            try:
                self._run(record, span)
            finally:
                self._m_running.inc(-1)

    def _run(self, record: JobRecord, span) -> None:
        """Take one running job to its terminal state."""
        budget = self.policy.wall_budget
        deadline = time.monotonic() + budget

        def overran() -> bool:
            return time.monotonic() >= deadline

        cancelled = False
        try:
            payload, cache_hit = self._execute(
                record, lambda: record.cancel.is_set() or overran())
        except CampaignCancelled:
            cancelled = True
        except SandboxRejection as exc:
            self._finish(record, span, FAILED, f"sandbox: {exc}")
            return
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            self._finish(record, span, FAILED, f"{type(exc).__name__}: {exc}")
            return
        if overran():
            # Reported here, by the thread that ran the job, so the next
            # job never waits behind work the store has written off.
            self._finish(record, span, FAILED,
                         f"wall budget exceeded ({budget:g}s)", "timeout")
        elif cancelled:
            self._finish(record, span, CANCELLED, "cancelled while running")
        else:
            with self._lock:
                record.state = DONE
                record.finished = self.clock()
                record.result = payload
                record.cache_hit = cache_hit
                self._event_locked(
                    record, DONE,
                    "served from cache" if cache_hit else "computed")
            self._m_finished.labels(state=DONE).inc()
            self.obs.tracer.finish(span, "ok", cache_hit=cache_hit)

    def _finish(self, record: JobRecord, span, state: str, error: str,
                verdict: Optional[str] = None) -> None:
        with self._lock:
            record.state = state
            record.finished = self.clock()
            if state == FAILED:
                record.error = error
            self._event_locked(record, state, error)
        self._m_finished.labels(state=state).inc()
        self.obs.tracer.finish(span, verdict or state)

    def _execute(self, record: JobRecord,
                 cancel: Callable[[], bool]) -> tuple[Any, bool]:
        """Run the job's cells; returns the jsonable result payload and
        whether every cell came from the cache."""
        cells = cells_for(record.submission, self.policy)
        computed = 0

        def progress(_key: str, status: str) -> None:
            nonlocal computed
            if status == "run":
                computed += 1

        results = run_cells(
            cells,
            jobs=self.run_jobs,
            cache=self.cache,
            progress=progress,
            cancel=cancel,
            backend=self.run_backend,
        )
        cache_hit = self.cache is not None and computed == 0
        if isinstance(record.submission, ScriptSubmission):
            payload = to_jsonable(results[0])
        else:
            payload = [to_jsonable(result) for result in results]
        return payload, cache_hit
