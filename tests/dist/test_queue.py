"""TaskQueue semantics: leases, at-least-once redelivery, drain."""

import pytest

from repro.dist.queue import (
    CLAIMED,
    DONE,
    FAILED,
    PENDING,
    QueueError,
    TaskQueue,
)


class Clock:
    """A hand-cranked monotonic clock for lease-expiry tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_queue(lease=10.0, max_attempts=3):
    clock = Clock()
    return TaskQueue(lease=lease, max_attempts=max_attempts,
                     clock=clock), clock


def claim_one(queue, worker):
    """The degenerate chunk: the next pending task."""
    return queue.claim_many(worker, 1)[0]


class TestSubmitClaim:
    def test_fifo_handout(self):
        queue, _ = make_queue()
        for name in ("a", "b", "c"):
            queue.submit({"cell": name}, key=name)
        claimed = [claim_one(queue, "w0").key for _ in range(3)]
        assert claimed == ["a", "b", "c"]

    def test_idle_claim_returns_nothing(self):
        queue, _ = make_queue()
        assert queue.claim_many("w0", 1) == []

    def test_claim_sets_lease_deadline(self):
        queue, clock = make_queue(lease=10.0)
        queue.submit({}, key="a")
        task = claim_one(queue, "w0")
        assert task.state == CLAIMED
        assert task.deadline == clock.now + 10.0


class TestAckNack:
    def test_ack_stores_result_and_source(self):
        queue, _ = make_queue()
        task = queue.submit({}, key="a")
        queue.claim_many("w0", 1)
        acked, stale = queue.ack_many("w0", [(task.task_id, 41, "store")])
        assert (acked, stale) == ([task.task_id], [])
        assert (task.state, task.result, task.source) == (DONE, 41, "store")
        assert queue.finished()

    def test_ack_by_wrong_worker_is_stale(self):
        queue, _ = make_queue()
        task = queue.submit({}, key="a")
        queue.claim_many("w0", 1)
        acked, stale = queue.ack_many("w1", [(task.task_id, 1, "computed")])
        assert (acked, stale) == ([], [task.task_id])
        assert (task.state, task.worker) == (CLAIMED, "w0")

    def test_ack_of_unknown_task_is_stale(self):
        queue, _ = make_queue()
        assert queue.ack_many("w0", [("ghost", 1, "computed")]) \
            == ([], ["ghost"])

    def test_nack_requeues_until_attempts_exhausted(self):
        queue, _ = make_queue(max_attempts=2)
        task = queue.submit({}, key="a")
        queue.claim_many("w0", 1)
        assert queue.nack_many("w0", [(task.task_id, "boom", True)]) \
            == {task.task_id: PENDING}
        queue.claim_many("w0", 1)
        assert queue.nack_many("w0", [(task.task_id, "boom", True)]) \
            == {task.task_id: FAILED}

    def test_nack_no_requeue_fails_immediately(self):
        queue, _ = make_queue()
        task = queue.submit({}, key="a")
        queue.claim_many("w0", 1)
        states = queue.nack_many(
            "w0", [(task.task_id, "undecodable", False)])
        assert states == {task.task_id: FAILED}
        assert task.error == "undecodable"
        assert queue.failures() == [task]


class TestLeases:
    def test_expired_lease_reenqueues(self):
        queue, clock = make_queue(lease=10.0)
        task = queue.submit({}, key="a")
        queue.claim_many("w0", 1)
        clock.advance(10.1)
        reaped = queue.reap_expired()
        assert [t.task_id for t in reaped] == [task.task_id]
        assert task.state == PENDING
        # Another worker picks it up; the dead worker's late ack drops.
        queue.claim_many("w1", 1)
        assert queue.ack_many("w0", [(task.task_id, 1, "computed")]) \
            == ([], [task.task_id])
        queue.ack_many("w1", [(task.task_id, 2, "computed")])
        assert task.result == 2

    def test_heartbeat_extends_every_lease_of_worker(self):
        queue, clock = make_queue(lease=10.0)
        queue.submit({}, key="a")
        queue.submit({}, key="b")
        a, b = queue.claim_many("w0", 2)
        clock.advance(8.0)
        assert queue.heartbeat("w0") == 2
        clock.advance(8.0)  # would have expired without the heartbeat
        assert queue.reap_expired() == []
        assert a.state == b.state == CLAIMED

    def test_expiry_past_max_attempts_fails_task(self):
        queue, clock = make_queue(lease=5.0, max_attempts=2)
        task = queue.submit({}, key="a")
        for _ in range(2):
            queue.claim_many("w0", 1)
            clock.advance(5.1)
            queue.reap_expired()
        assert task.state == FAILED
        assert "lease expired" in task.error

    def test_claim_reaps_on_entry(self):
        queue, clock = make_queue(lease=5.0)
        task = queue.submit({}, key="a")
        queue.claim_many("w0", 1)
        clock.advance(5.1)
        again = claim_one(queue, "w1")  # no explicit reap needed
        assert again.task_id == task.task_id
        assert again.worker == "w1"


class TestBatchedLeases:
    """Batched delivery, per-task semantics."""

    def test_claim_many_hands_out_fifo_chunks(self):
        queue, _ = make_queue()
        for name in ("a", "b", "c", "d", "e"):
            queue.submit({}, key=name)
        first = queue.claim_many("w0", 3)
        assert [t.key for t in first] == ["a", "b", "c"]
        # Asking past the queue depth is a partial chunk, not an error.
        rest = queue.claim_many("w0", 10)
        assert [t.key for t in rest] == ["d", "e"]
        assert queue.claim_many("w0", 4) == []

    def test_claim_many_each_task_gets_own_lease(self):
        queue, clock = make_queue(lease=10.0)
        queue.submit({}, key="a")
        queue.submit({}, key="b")
        tasks = queue.claim_many("w0", 2, lease=3.0)
        assert all(t.deadline == clock.now + 3.0 for t in tasks)

    def test_a_heartbeat_keeps_the_lease_the_claim_asked_for(self):
        """A worker that asked for 120 s and heartbeats every 40 s must
        not lose its task between heartbeats to the 10 s default."""
        queue, clock = make_queue(lease=10.0)
        queue.submit({}, key="slow")
        (task,) = queue.claim_many("w0", 1, lease=120.0)
        clock.advance(40.0)
        assert queue.heartbeat("w0") == 1
        assert task.deadline == clock.now + 120.0
        clock.advance(40.0)
        assert queue.reap_expired() == []
        assert task.state == CLAIMED and task.worker == "w0"

    def test_claim_many_validates_inputs(self):
        queue, _ = make_queue()
        with pytest.raises(QueueError):
            queue.claim_many("", 2)
        with pytest.raises(QueueError):
            queue.claim_many("w0", 0)

    def test_claim_piggybacks_a_heartbeat(self):
        """Coming back for more work extends what the worker holds."""
        queue, clock = make_queue(lease=10.0)
        queue.submit({}, key="a")
        queue.submit({}, key="b")
        held = queue.claim_many("w0", 1)[0]
        clock.advance(8.0)
        queue.claim_many("w0", 1)  # would expire 'a' at t=10 otherwise
        clock.advance(8.0)
        assert queue.reap_expired() == []
        assert held.state == CLAIMED

    def test_ack_many_skips_stale_entries(self):
        """Lease expiry mid-batch voids that entry, not the batch."""
        queue, clock = make_queue(lease=5.0)
        kept = queue.submit({}, key="kept")
        lost = queue.submit({}, key="lost")
        queue.claim_many("w0", 2)
        clock.advance(5.1)
        queue.reap_expired()           # both go back to pending
        queue.claim_many("w1", 1)      # w1 now owns 'kept'
        # w1 settles 'kept'; its entry for 'lost' (never re-claimed by
        # it) and w0's whole late batch both report stale, nobody raises.
        acked, stale = queue.ack_many(
            "w1", [(kept.task_id, 1, "computed"),
                   (lost.task_id, 2, "computed")])
        assert (acked, stale) == ([kept.task_id], [lost.task_id])
        late_acked, late_stale = queue.ack_many(
            "w0", [(kept.task_id, 9, "computed")])
        assert (late_acked, late_stale) == ([], [kept.task_id])
        assert (kept.state, kept.result) == (DONE, 1)

    def test_nack_many_poison_bound_is_per_cell(self):
        """One cell exhausting its attempts fails alone in a chunk."""
        queue, _ = make_queue(max_attempts=2)
        poison = queue.submit({}, key="poison")
        healthy = queue.submit({}, key="healthy")
        queue.claim_many("w0", 2)
        queue.nack_many("w0", [(poison.task_id, "boom", True)])
        queue.claim_many("w0", 1)  # poison again, second attempt
        states = queue.nack_many(
            "w0", [(poison.task_id, "boom", True),
                   (healthy.task_id, "collateral", True),
                   ("no-such-task", "ghost", True)])
        assert states == {poison.task_id: FAILED,
                          healthy.task_id: PENDING,
                          "no-such-task": "stale"}
        assert queue.failures() == [poison]
        # The healthy cell is claimable again.
        assert claim_one(queue, "w1").key == "healthy"

    def test_depth_and_in_flight_track_the_queue(self):
        queue, _ = make_queue()
        for name in ("a", "b", "c"):
            queue.submit({}, key=name)
        assert (queue.depth(), queue.in_flight()) == (3, 0)
        queue.claim_many("w0", 2)
        assert (queue.depth(), queue.in_flight()) == (1, 2)


class TestDrainAndStats:
    def test_drain_refuses_submissions(self):
        queue, _ = make_queue()
        queue.drain()
        assert queue.draining
        with pytest.raises(QueueError):
            queue.submit({}, key="late")

    def test_stats_count_the_story(self):
        queue, clock = make_queue(lease=5.0)
        task = queue.submit({}, key="a")
        queue.claim_many("w0", 1)
        clock.advance(5.1)
        queue.reap_expired()
        queue.claim_many("w1", 1)
        queue.heartbeat("w1")
        queue.ack_many("w1", [(task.task_id, 1, "computed")])
        stats = queue.stats.as_dict()
        assert stats == {"submitted": 1, "claims": 2, "acks": 1,
                         "nacks": 0, "expired": 1, "heartbeats": 1}

    def test_wait_returns_when_all_terminal(self):
        # Real clock: wait() measures its timeout against self.clock,
        # so a hand-cranked clock would never let the deadline pass.
        queue = TaskQueue(lease=10.0)
        task = queue.submit({}, key="a")
        queue.claim_many("w0", 1)
        queue.ack_many("w0", [(task.task_id, 1, "computed")])
        assert queue.wait(timeout=0.1)

    def test_wait_times_out_with_outstanding_tasks(self):
        queue = TaskQueue(lease=10.0)
        queue.submit({}, key="a")
        assert not queue.wait(timeout=0.05)
        assert queue.outstanding() == 1
