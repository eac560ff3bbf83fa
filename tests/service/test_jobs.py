"""Job store lifecycle: dedupe, warm-cache resubmission, cancel, TTL."""

import threading
import time

import pytest

from repro.parallel.cache import ResultCache
from repro.service.jobs import JobStore, NotFinished, UnknownJob
from repro.service.sandbox import SandboxPolicy, SandboxRejection
from repro.service.schemas import (
    CampaignSubmission,
    RUNNING,
    ScriptSubmission,
    TERMINAL,
)

GOOD = 'try for 5 minutes\n    condor_submit submit.job\nend\n'
OTHER = GOOD.replace("5 minutes", "6 minutes")

#: A one-cell campaign small enough for unit tests (sub-second).
TINY_CAMPAIGN = CampaignSubmission(
    scenario="submit", disciplines=("ethernet",),
    overrides=(("submit_clients", 10.0), ("submit_duration", 10.0)))


def wait_terminal(store, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = store.status(job_id)
        if status.state in TERMINAL:
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} not terminal after {timeout}s")


@pytest.fixture
def store():
    with JobStore(policy=SandboxPolicy(wall_budget=60.0),
                  cache=None, workers=2) as store:
        yield store


class TestLifecycle:
    def test_script_runs_to_done(self, store):
        status = store.submit(ScriptSubmission(script=GOOD, timeout=600.0))
        final = wait_terminal(store, status.job_id)
        assert final.state == "done"
        assert final.started is not None and final.finished is not None
        result = store.result(status.job_id)
        assert result.result["__type__"] == "ScriptOutcome"
        assert result.result["success"] is True
        assert result.cache_hit is False  # no cache configured

    def test_events_stream(self, store):
        status = store.submit(ScriptSubmission(script=GOOD, timeout=600.0))
        wait_terminal(store, status.job_id)
        events = store.events(status.job_id)
        assert [e.state for e in events][:2] == ["queued", "running"]
        assert events[-1].state == "done"
        # Incremental reads pick up where the cursor left off.
        assert store.events(status.job_id, since=events[-1].seq) == []

    def test_result_before_done_raises(self, store):
        status = store.submit(ScriptSubmission(script=GOOD, timeout=600.0))
        record = store._records[status.job_id]
        # Freeze a non-terminal snapshot: NotFinished must fire for it.
        if record.state not in TERMINAL:
            with pytest.raises(NotFinished):
                store.result(status.job_id)
        wait_terminal(store, status.job_id)

    def test_unknown_job(self, store):
        with pytest.raises(UnknownJob):
            store.status("no-such-job")
        with pytest.raises(UnknownJob):
            store.result("no-such-job")
        with pytest.raises(UnknownJob):
            store.cancel("no-such-job")

    def test_rejection_raises(self, store):
        with pytest.raises(SandboxRejection) as exc:
            store.submit(ScriptSubmission(script="try for 2 bananas\nend\n"))
        assert exc.value.code == "syntax"

    def test_n_workers_are_n_threads_and_close_joins_them(self):
        before = set(threading.enumerate())
        store = JobStore(workers=3).start()
        started = set(threading.enumerate()) - before
        assert len(started) == 3
        store.close()
        assert not any(thread.is_alive() for thread in started)

    def test_close_cancels_what_is_queued_and_what_is_running(self):
        store = JobStore(policy=SandboxPolicy(wall_budget=60.0),
                         workers=1).start()
        first = store.submit(CampaignSubmission(
            scenario="submit", disciplines=("fixed", "aloha"),
            overrides=(("submit_duration", 30.0),)))
        behind = store.submit(ScriptSubmission(script=GOOD, timeout=600.0))
        store.close()  # joins the worker: both jobs are settled by now
        assert store.status(first.job_id).state == "cancelled"
        assert store.status(behind.job_id).state == "cancelled"

    def test_submit_before_start(self):
        store = JobStore()
        with pytest.raises(RuntimeError):
            store.submit(ScriptSubmission(script=GOOD))


class TestDedupe:
    def test_inflight_twin_dedupes(self, store):
        sub = ScriptSubmission(script=GOOD, timeout=600.0)
        first = store.submit(sub)
        # Pin the record in a non-terminal state so the twin submission
        # deterministically hits the in-flight branch.
        record = store._records[first.job_id]
        wait_terminal(store, first.job_id)
        with store._lock:
            record.state = RUNNING
        try:
            twin = store.submit(sub)
            assert twin.job_id == first.job_id
            assert twin.deduped is True
        finally:
            with store._lock:
                record.state = "done"

    def test_different_submissions_different_jobs(self, store):
        a = store.submit(ScriptSubmission(script=GOOD, timeout=600.0))
        b = store.submit(ScriptSubmission(script=GOOD, timeout=600.0,
                                          seed=7))
        assert a.job_id != b.job_id
        wait_terminal(store, a.job_id)
        wait_terminal(store, b.job_id)

    def test_normalized_twins_share_a_job(self, store):
        # Variable ordering is normalized away by the schema, so these
        # are the same content-addressed job.
        a = store.submit(ScriptSubmission(
            script=GOOD, timeout=600.0,
            variables=(("a", "1"), ("b", "2"))))
        wait_terminal(store, a.job_id)
        b = store.submit(ScriptSubmission(
            script=GOOD, timeout=600.0,
            variables=(("b", "2"), ("a", "1"))))
        assert b.job_id == a.job_id


class TestWarmCache:
    def test_resubmission_is_a_cache_hit(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        with JobStore(policy=SandboxPolicy(wall_budget=60.0),
                      cache=cache, workers=1) as store:
            sub = ScriptSubmission(script=GOOD, timeout=600.0)
            first = store.submit(sub)
            cold = wait_terminal(store, first.job_id)
            assert cold.state == "done"
            assert cold.cache_hit is False

            again = store.submit(sub)
            assert again.job_id == first.job_id
            warm = wait_terminal(store, again.job_id)
            assert warm.cache_hit is True
            assert (store.result(first.job_id).result
                    == store.result(again.job_id).result)


class TestCancel:
    def test_cancel_queued_job(self):
        with JobStore(policy=SandboxPolicy(wall_budget=60.0),
                      workers=1) as store:
            # Occupy the only worker so the second job stays queued.
            blocker = store.submit(TINY_CAMPAIGN)
            victim = store.submit(ScriptSubmission(script=GOOD,
                                                   timeout=600.0))
            status = store.cancel(victim.job_id)
            assert status.state == "cancelled"
            final = wait_terminal(store, victim.job_id)
            assert final.state == "cancelled"
            wait_terminal(store, blocker.job_id)

    def test_cancel_running_job_without_overrun_is_cancelled(self, store):
        status = store.submit(CampaignSubmission(
            scenario="submit", disciplines=("fixed", "aloha"),
            overrides=(("submit_duration", 30.0),)))
        deadline = time.monotonic() + 30.0
        while (store.status(status.job_id).state != RUNNING
               and time.monotonic() < deadline):
            time.sleep(0.005)
        store.cancel(status.job_id)
        final = wait_terminal(store, status.job_id)
        assert final.state == "cancelled"
        assert final.error is None

    def test_cancel_terminal_is_idempotent(self, store):
        status = store.submit(ScriptSubmission(script=GOOD, timeout=600.0))
        final = wait_terminal(store, status.job_id)
        assert store.cancel(status.job_id).state == final.state


class TestBudgetsAndTtl:
    def test_wall_budget_fails_job(self):
        with JobStore(policy=SandboxPolicy(wall_budget=0.001),
                      workers=1) as store:
            status = store.submit(CampaignSubmission(
                scenario="submit", disciplines=("fixed", "aloha"),
                overrides=(("submit_clients", 50.0),
                           ("submit_duration", 30.0))))
            final = wait_terminal(store, status.job_id)
            assert final.state == "failed"
            assert "wall budget" in (final.error or "")

    def test_overrun_is_reported_when_its_thread_is_free(self):
        # One uninterruptible ~1 s cell against a 0.25 s budget, on the
        # only worker.  The job behind it must not start (and burn its
        # own budget) while the written-off cell is still computing.
        with JobStore(policy=SandboxPolicy(wall_budget=0.25),
                      workers=1) as store:
            overrun = store.submit(CampaignSubmission(
                scenario="submit", disciplines=("fixed",),
                overrides=(("submit_duration", 60.0),)))
            victim = store.submit(ScriptSubmission(script=GOOD,
                                                   timeout=600.0))
            final = wait_terminal(store, overrun.job_id)
            assert final.state == "failed"
            assert "wall budget" in (final.error or "")
            assert wait_terminal(store, victim.job_id).state == "done"

    def test_ttl_purges_finished_jobs(self):
        clock = [1000.0]
        with JobStore(policy=SandboxPolicy(wall_budget=60.0),
                      workers=1, ttl=10.0, clock=lambda: clock[0]) as store:
            status = store.submit(ScriptSubmission(script=GOOD,
                                                   timeout=600.0))
            wait_terminal(store, status.job_id)
            clock[0] += 5.0
            assert store.status(status.job_id).state == "done"
            later = store.submit(ScriptSubmission(script=OTHER,
                                                  timeout=600.0))
            wait_terminal(store, later.job_id)
            clock[0] += 6.0  # 11 s after the first finish, 6 after this one
            assert [job.job_id for job in store.jobs()] == [later.job_id]
            with pytest.raises(UnknownJob):
                store.status(status.job_id)
            assert store.status(later.job_id).state == "done"
            clock[0] += 20.0
            assert store.jobs() == []

    def test_ttl_never_reaps_running_jobs(self):
        clock = [1000.0]
        with JobStore(policy=SandboxPolicy(wall_budget=60.0),
                      workers=1, ttl=10.0, clock=lambda: clock[0]) as store:
            status = store.submit(ScriptSubmission(script=GOOD,
                                                   timeout=600.0))
            record = store._records[status.job_id]
            wait_terminal(store, status.job_id)
            with store._lock:
                record.state = RUNNING
            clock[0] += 100.0
            assert store.status(status.job_id).state == RUNNING
            with store._lock:
                record.state = "done"

    def test_a_resubmitted_job_is_kept_past_its_first_finish(self):
        clock = [1000.0]
        with JobStore(policy=SandboxPolicy(wall_budget=60.0),
                      workers=1, ttl=10.0, clock=lambda: clock[0]) as store:
            sub = ScriptSubmission(script=GOOD, timeout=600.0)
            job = store.submit(sub)
            wait_terminal(store, job.job_id)
            clock[0] += 5.0
            assert store.submit(sub).job_id == job.job_id
            assert wait_terminal(store, job.job_id).finished == 1005.0
            clock[0] += 7.0  # 12 s after the first finish, 7 after the second
            assert [j.job_id for j in store.jobs()] == [job.job_id]
            assert store.status(job.job_id).state == "done"
            clock[0] += 4.0
            assert store.jobs() == []
            with pytest.raises(UnknownJob):
                store.status(job.job_id)

    def test_a_purge_never_walks_the_retained_jobs(self):
        clock = [1000.0]
        with JobStore(policy=SandboxPolicy(wall_budget=60.0),
                      workers=1, ttl=10.0, clock=lambda: clock[0]) as store:
            job = store.submit(ScriptSubmission(script=GOOD,
                                                timeout=600.0))
            wait_terminal(store, job.job_id)
            walks = []

            class Records(dict):
                def items(self):
                    walks.append("items")
                    return super().items()

                def values(self):
                    walks.append("values")
                    return super().values()

                def __iter__(self):
                    walks.append("iter")
                    return super().__iter__()

            with store._lock:
                store._records = Records(store._records)
            for _ in range(3):
                clock[0] += 2.0
                store.status(job.job_id)  # each status call purges first
            assert walks == []
            clock[0] += 10.0
            with pytest.raises(UnknownJob):
                store.status(job.job_id)
            assert walks == []

    def test_validation(self):
        with pytest.raises(ValueError):
            JobStore(workers=0)
        with pytest.raises(ValueError):
            JobStore(ttl=-1.0)


class CountingCondition(threading.Condition):
    """A condition that counts how often it is waited on and woken."""

    def __init__(self, lock):
        super().__init__(lock)
        self.waits = 0
        self.wakeups = 0

    def wait(self, timeout=None):
        self.waits += 1
        woke = super().wait(timeout)
        self.wakeups += woke
        return woke


def follow(store, job_id):
    """Long-poll ``job_id`` past its last event on a thread; return the
    thread, the list it fills and the job's counting condition, once the
    follower is asleep."""
    record = store._records[job_id]
    with store._lock:
        record.wakeup = CountingCondition(store._lock)
        since = record.events[-1].seq
    got = []
    thread = threading.Thread(target=lambda: got.extend(
        store.events(job_id, since=since, wait=30.0)))
    thread.start()
    deadline = time.monotonic() + 10.0
    while record.wakeup.waits == 0:
        assert time.monotonic() < deadline, "follower never waited"
        time.sleep(0.001)
    # Taking the lock proves the follower let go of it inside wait().
    with store._lock:
        pass
    return thread, got, record.wakeup


class TestLongPollWakeups:
    def test_a_follower_sleeps_through_other_jobs_events(self, store):
        busy = ScriptSubmission(script=GOOD, timeout=600.0)
        quiet = ScriptSubmission(script=OTHER, timeout=600.0)
        a = store.submit(busy)
        b = store.submit(quiet)
        wait_terminal(store, a.job_id)
        wait_terminal(store, b.job_id)
        thread, got, wakeup = follow(store, b.job_id)
        for _ in range(5):  # queued, running, done: 15 appends to job A
            store.submit(busy)
            wait_terminal(store, a.job_id)
        assert len(store.events(a.job_id)) == 18
        assert (wakeup.waits, wakeup.wakeups) == (1, 0)
        store.submit(quiet)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert (wakeup.waits, wakeup.wakeups) == (1, 1)
        assert got[0].message == "resubmitted"

    def test_cancellation_wakes_the_follower(self, store):
        job = store.submit(CampaignSubmission(
            scenario="submit", disciplines=("fixed", "aloha"),
            overrides=(("submit_duration", 30.0),)))
        deadline = time.monotonic() + 30.0
        while store.status(job.job_id).state != RUNNING:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        thread, got, _ = follow(store, job.job_id)
        store.cancel(job.job_id)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert got[0].message == "cancellation requested"
        wait_terminal(store, job.job_id)

    def test_a_purge_releases_the_follower(self):
        clock = [1000.0]
        with JobStore(policy=SandboxPolicy(wall_budget=60.0),
                      workers=1, ttl=10.0, clock=lambda: clock[0]) as store:
            job = store.submit(ScriptSubmission(script=GOOD,
                                                timeout=600.0))
            wait_terminal(store, job.job_id)
            thread, got, wakeup = follow(store, job.job_id)
            clock[0] += 11.0
            with pytest.raises(UnknownJob):
                store.status(job.job_id)  # purges the job first
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert got == [] and wakeup.wakeups == 1

    def test_close_releases_the_followers_of_finished_jobs(self):
        store = JobStore(policy=SandboxPolicy(wall_budget=60.0),
                         workers=1).start()
        job = store.submit(ScriptSubmission(script=GOOD, timeout=600.0))
        wait_terminal(store, job.job_id)
        thread, got, wakeup = follow(store, job.job_id)
        store.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert got == [] and wakeup.wakeups == 1
