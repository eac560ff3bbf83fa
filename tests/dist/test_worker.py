"""The worker loop's batched hot path: chunk sizing and per-cell guards.

``process_batch`` is exercised against a stub client so every edge is
deterministic; the live-wire paths are covered by the backend and
determinism suites.  The worker has no store side — ``run_cells``
looks cells up before queueing them and the coordinator publishes on
ack (test_coordinator).
"""

import random

from repro.dist import worker as worker_module
from repro.dist.wire import encode_cell
from repro.dist.worker import next_batch_size, process_batch, worker_loop
from repro.parallel.executor import CellSpec


def square(x):
    return x * x


def boom(x):
    raise RuntimeError(f"cell exploded on {x}")


class StubClient:
    """Records the settle calls process_batch makes."""

    lease = 30.0

    def __init__(self):
        self.acked = []
        self.nacked = []
        self.heartbeats = 0

    def heartbeat(self):
        self.heartbeats += 1

    def ack_many(self, acks):
        self.acked.extend(acks)
        return []

    def nack_many(self, nacks):
        self.nacked.extend(nacks)


def task_doc(task_id, spec):
    return {"task_id": task_id, "attempt": 1, "cell": encode_cell(spec)}


class TestNextBatchSize:
    def test_cheap_cells_grow_toward_the_cap(self):
        # 10ms cells against a 0.5s target: 50 would fit, cap is 16.
        assert next_batch_size(0.08, 8, target=0.5) == 16

    def test_expensive_cells_shrink_to_one(self):
        assert next_batch_size(4.0, 2, target=0.5) == 1

    def test_moderate_cells_land_in_between(self):
        # 0.1s cells: five of them fill the 0.5s target.
        assert next_batch_size(0.4, 4, target=0.5) == 5

    def test_instant_cells_do_not_divide_by_zero(self):
        assert next_batch_size(0.0, 4, target=0.5) == 16


class TestProcessBatch:
    def test_mixed_batch_settles_each_cell_on_its_own_terms(self):
        client = StubClient()
        docs = [
            task_doc("t1", CellSpec(key="a", fn=square, args=(2,))),
            task_doc("t2", CellSpec(key="nc", fn=square, args=(3,),
                                    cacheable=False)),
            task_doc("t3", CellSpec(key="crash", fn=boom, args=(1,))),
            {"task_id": "t4", "attempt": 1,
             "cell": {"key": "bad"}},  # undecodable
        ]
        outcomes = process_batch(client, docs)
        assert outcomes == {"t1": "computed", "t2": "computed",
                            "t3": "error", "t4": "error"}
        # Every result the worker sends is one it just computed.
        assert client.acked == [("t1", 4, "computed"), ("t2", 9, "computed")]
        # The crash retries; the wire-bad doc is terminal.
        assert [(t, r) for t, _e, r in client.nacked] \
            == [("t3", True), ("t4", False)]


class TestIdleNaps:
    """An idle worker naps ``poll/4`` plus a uniform draw from a window
    doubling from ``poll`` to ``4 * poll`` — core.backoff's schedule."""

    #: What the pre-BackoffState formula, ``poll * 0.25 + draw *
    #: min(poll * 2 ** min(streak, 4), 4 * poll)``, slept for
    #: random.Random(7), poll=0.1, idle streaks 0-6.
    PARENT_NAPS = [
        0.05738327648331624, 0.05516983478490039, 0.28537378921594153,
        0.05397451466701711, 0.23935280172267567, 0.17127556676503422,
        0.04819956990988272,
    ]

    def run_loop(self, monkeypatch, outcomes):
        answers = iter(outcomes)
        naps = []
        monkeypatch.setattr(worker_module.CoordinatorClient, "claim",
                            lambda self, max_tasks=1: next(answers))
        monkeypatch.setattr(worker_module, "process_batch",
                            lambda client, docs: {})
        monkeypatch.setattr(worker_module.time, "sleep", naps.append)
        worker_loop("http://127.0.0.1:9", "w0", poll=0.1,
                    rng=random.Random(7))
        return naps

    def test_naps_equal_the_parent_formula_draw_for_draw(self, monkeypatch):
        naps = self.run_loop(
            monkeypatch, [("idle", [])] * 7 + [("drained", [])])
        assert naps == self.PARENT_NAPS

    def test_a_claim_resets_the_window(self, monkeypatch):
        naps = self.run_loop(
            monkeypatch, [("idle", [])] * 3 + [("tasks", [{}])]
            + [("idle", [])] * 2 + [("drained", [])])
        rng = random.Random(7)
        windows = [0.1, 0.2, 0.4, 0.1, 0.2]
        assert naps == [0.025 + rng.random() * window for window in windows]
