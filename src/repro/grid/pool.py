"""The execution side of the Condor model: workers and matchmaking.

The paper describes the schedd as "an agent that works on behalf of a
grid user, keeping jobs in a persistent queue while finding sites where
they may run."  Scenario 1 only measures the *submission* half; the DAG
scenario (and any workflow study) also needs the other half — jobs
waiting for machines, running, and completing.

:class:`WorkerPool` models a pool of execution slots with a matchmaker
cycle: queued jobs are matched to idle workers every negotiation
interval (Condor's negotiator runs periodically, not per-job), run for
their execution time, and complete.  Workers can be configured to fail
mid-job with a seeded probability, putting the job back in the queue —
the recoverable failures ftsh-style submitters never even see.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from ..faults.config import (
    validate_at_least,
    validate_non_negative,
    validate_positive,
    validate_probability,
)
from ..sim.engine import Engine
from ..sim.events import Event
from ..sim.monitor import Counter


@dataclass(slots=True)
class Job:
    """One queued/executing job."""

    id: int
    exec_time: float
    #: Event triggered (with ``None``) when the job finally completes.
    done: Event = None  # type: ignore[assignment]
    attempts: int = 0


class Worker:
    """One execution slot."""

    __slots__ = ("name", "busy", "jobs_run", "failure_rate")

    def __init__(self, name: str, failure_rate: float = 0.0) -> None:
        self.name = name
        self.busy = False
        self.jobs_run = 0
        self.failure_rate = validate_probability("failure_rate", failure_rate)


class WorkerPool:
    """Idle workers + a job queue + a periodic matchmaker.

    Usage from a sim process::

        job = pool.submit(exec_time=30.0)
        yield job.done          # resumes when the job has completed
    """

    def __init__(
        self,
        engine: Engine,
        n_workers: int = 50,
        negotiation_interval: float = 5.0,
        failure_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        validate_at_least("n_workers", n_workers, 1)
        validate_probability("failure_rate", failure_rate)
        validate_positive("negotiation_interval", negotiation_interval)
        self.engine = engine
        self.negotiation_interval = negotiation_interval
        self.rng = rng if rng is not None else engine.streams.stream("worker-pool")
        self.workers = [
            Worker(f"worker-{i}", failure_rate) for i in range(n_workers)
        ]
        self.queue: list[Job] = []
        self._ids = itertools.count(1)
        self.jobs_completed = Counter(engine, "jobs-completed", keep_series=False)
        self.jobs_requeued = Counter(engine, "jobs-requeued", keep_series=False)
        engine.process(self._negotiator(), name="negotiator")

    # ------------------------------------------------------------------
    def submit(self, exec_time: float) -> Job:
        """Queue a job; its ``done`` event fires on completion."""
        validate_non_negative("exec_time", exec_time)
        job = Job(id=next(self._ids), exec_time=exec_time,
                  done=Event(self.engine))
        self.queue.append(job)
        return job

    # ------------------------------------------------------------------
    def _negotiator(self):
        """Periodic matchmaking: FIFO jobs onto idle workers."""
        while True:
            yield self.engine.timeout(self.negotiation_interval)
            for worker in self.workers:
                if not self.queue:
                    break
                if worker.busy:
                    continue
                job = self.queue.pop(0)
                worker.busy = True
                self.engine.process(
                    self._execute(worker, job), name=f"{worker.name}:job{job.id}"
                )

    def _execute(self, worker: Worker, job: Job):
        job.attempts += 1
        fails = worker.failure_rate > 0 and self.rng.random() < worker.failure_rate
        if fails:
            # the machine dies partway through; the job goes back to queue
            yield self.engine.timeout(
                job.exec_time * self.rng.uniform(0.1, 0.9)
            )
            worker.busy = False
            self.jobs_requeued.increment()
            self.queue.append(job)
            return
        yield self.engine.timeout(job.exec_time)
        worker.busy = False
        worker.jobs_run += 1
        self.jobs_completed.increment()
        job.done.succeed()  # not the job: it holds ``done``, a cycle
