"""The socket backend behind ``run_cells``.

``run_cells`` has two executors and one contract: results are
positionally aligned with the submitted cells and byte-identical no
matter which computed them (every cell is a pure function of its spec,
and results travel as the same pickles the cache stores).

* ``inprocess`` — serial or a ``ProcessPoolExecutor`` inside
  :func:`repro.parallel.run_cells` itself.  The default.
* ``socket`` — a :class:`~repro.dist.queue.TaskQueue` served over HTTP
  on a loopback port by a :class:`~repro.dist.coordinator.
  CoordinatorServer`; workers are separate processes spawned locally
  here, with heartbeats and lease-expiry re-enqueue, so a worker that
  dies costs a lease, not the campaign.  ``run_cells`` has already
  looked every cell up, so only misses are queued; the coordinator
  publishes each result into the artifact store as its ack arrives,
  and the workers never talk to the store.

Locally spawned workers **fork** when that is safe (POSIX, and no other
threads live in this process — forking a threaded parent can deadlock
on inherited locks): a forked worker inherits the parent's warm
imports, where a subprocess worker pays the full interpreter + package
import bill before its first claim — the dominant cost of small
campaigns on small machines.  Threaded parents (the service plane
drives campaigns from job threads) and non-fork platforms fall back to
subprocesses automatically.

The dogfooding the ROADMAP promises is real: N workers contending for
one queue and one store *is* the paper's shared-service picture, with
the lease/retry machinery playing the role of the Ethernet discipline.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from typing import Any, Optional, Sequence

from ..parallel.executor import (
    CampaignCancelled,
    CellSpec,
    Progress,
    _cancelled,
    resolve_jobs,
)
from .queue import DONE, FAILED, TaskQueue
from .store import ArtifactStore
from .wire import encode_cell

#: Seconds between orchestration-loop ticks (cancel checks, reaps).
_TICK = 0.05

#: Executions allowed per cell before the campaign fails.
MAX_ATTEMPTS = 3

#: Idle-poll base for locally spawned socket workers: they share a
#: machine with the coordinator, so polling can be much brisker than
#: the remote-worker default.
_LOCAL_POLL = 0.05


class BackendError(RuntimeError):
    """A distributed backend could not complete the campaign."""


def _fork_allowed() -> bool:
    """Fork local workers only when it cannot deadlock.

    Fork must be available and this process must be single-threaded (a
    forked child inherits a frozen copy of every lock, including the
    import lock — fatal if another thread held one mid-fork).
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    return threading.active_count() == 1


def _worker_env() -> dict[str, str]:
    """The spawned worker's environment, with ``repro`` importable."""
    import repro

    env = dict(os.environ)
    package_parent = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (package_parent if not existing
                         else package_parent + os.pathsep + existing)
    return env


def spawn_worker(url: str, worker_id: str, lease: float = 30.0,
                 poll: float = _LOCAL_POLL) -> subprocess.Popen:
    """Start one ``python -m repro.dist.worker`` against ``url``."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.dist.worker", url,
         "--id", worker_id, "--lease", str(lease),
         "--poll", str(poll), "--quiet"],
        env=_worker_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _forked_worker_main(url: str, worker_id: str, lease: float) -> None:
    """Entry point for fork-context local socket workers.

    Same loop as the CLI (claim over HTTP, batched acks) minus the
    interpreter + import bill — the fork inherited everything warm.
    The shared HTTP pool cleared itself at fork, so this child opens
    its own coordinator connection.
    """
    from ..obs.push import resolve_push_url
    from .worker import worker_loop

    # The CLI entry resolves --obs-push/$REPRO_OBS_PUSH; a forked
    # member skips the CLI, so honour the env opt-in here.
    worker_loop(url, worker_id, poll=_LOCAL_POLL, lease=lease,
                obs_push=resolve_push_url(None))


class _FleetMember:
    """One local worker process, Popen or multiprocessing alike."""

    def __init__(self, process: Any) -> None:
        self._process = process
        self._popen = isinstance(process, subprocess.Popen)

    def alive(self) -> bool:
        if self._popen:
            return self._process.poll() is None
        return self._process.is_alive()

    def wait(self, timeout: float) -> None:
        if self._popen:
            try:
                self._process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        else:
            self._process.join(timeout=timeout)

    def terminate(self) -> None:
        if self.alive():
            self._process.terminate()


def _spawn_fleet(url: str, n_workers: int, lease: float,
                 use_fork: bool) -> list[_FleetMember]:
    if not use_fork:
        return [_FleetMember(spawn_worker(url, f"w{i}", lease=lease))
                for i in range(n_workers)]
    ctx = multiprocessing.get_context("fork")
    members = []
    for i in range(n_workers):
        process = ctx.Process(
            target=_forked_worker_main,
            args=(url, f"w{i}", lease),
            daemon=True)
        process.start()
        members.append(_FleetMember(process))
    return members


def run_socket(
    items: Sequence[tuple[int, CellSpec, Optional[str]]],
    jobs: Optional[int],
    cache,
    progress: Progress,
    cancel,
    lease: float = 30.0,
) -> dict[int, Any]:
    """Serve ``items`` — ``(original index, CellSpec, artifact key or
    None)`` — from a live coordinator to a local worker fleet.

    The coordinator is a real HTTP server on a loopback port of its own
    choosing; workers are separate processes.  Lease expiry re-enqueues
    the cells of any worker that stops heartbeating; results come back
    through acks, already decoded, and the coordinator publishes each
    into ``cache`` before the ack settles.

    ``progress`` hears ``run`` once for every cell a worker has claimed
    and ``done`` once after it, from this thread, on the orchestration
    tick and once more when the last ack has landed.

    Local workers fork from this (warm) process when that is safe —
    the decision and the forks both happen *before* the coordinator's
    serve thread starts, keeping the fork single-threaded; the bound
    listen socket queues the early birds' connections meanwhile.
    """
    from .coordinator import CoordinatorServer

    task_queue = TaskQueue(lease=lease, max_attempts=MAX_ATTEMPTS)
    # Without a cache no cell carries an artifact key: nothing to store.
    store = ArtifactStore(cache) if cache is not None else None
    task_index: dict[str, int] = {}
    for index, spec, artifact in items:
        task = task_queue.submit(
            encode_cell(spec), key=spec.key,
            artifact=artifact, cacheable=spec.cacheable)
        task_index[task.task_id] = index

    n_workers = max(1, min(resolve_jobs(jobs), len(items)))
    told: dict[str, str] = {}

    def report() -> None:
        for task in task_queue.tasks():
            last = told.get(task.task_id)
            if last is None and task.attempts:
                progress(task.key, "run")
                last = told[task.task_id] = "run"
            if last == "run" and task.state == DONE:
                progress(task.key, "done")
                told[task.task_id] = "done"

    server = CoordinatorServer(task_queue, store)
    use_fork = _fork_allowed()
    fleet = _spawn_fleet(server.url, n_workers, lease, use_fork)
    server.start()
    try:
        while not task_queue.finished():
            if _cancelled(cancel):
                raise CampaignCancelled("socket backend cancelled")
            task_queue.reap_expired()
            report()
            failed = task_queue.failures()
            if failed:
                raise BackendError("; ".join(
                    f"cell {task.key} failed: {task.error}"
                    for task in failed))
            if not any(member.alive() for member in fleet):
                raise BackendError(
                    "every worker exited with cells still queued "
                    f"({task_queue.outstanding()} outstanding)")
            # wait() wakes on the final ack; the timeout keeps the
            # reap/cancel/liveness checks ticking.
            task_queue.wait(timeout=_TICK)
        report()
    except BaseException:
        task_queue.drain()
        for member in fleet:
            member.terminate()
        server.close()
        raise
    # Campaign complete: signal drain so workers exit on their next
    # claim, give them a moment, then stop waiting on stragglers.
    task_queue.drain()
    waited_until = time.monotonic() + 2.0
    for member in fleet:
        member.wait(timeout=max(0.1, waited_until - time.monotonic()))
        member.terminate()
    server.close()

    results: dict[int, Any] = {}
    for task in task_queue.tasks():
        if task.state == FAILED:  # pragma: no cover - raised above
            raise BackendError(f"cell {task.key} failed: {task.error}")
        results[task_index[task.task_id]] = task.result
    return results
