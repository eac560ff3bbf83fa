"""The work queue as a state machine, against a model of its contract.

Hypothesis drives one :class:`~repro.dist.queue.TaskQueue` through
arbitrary interleavings of ``submit``, ``claim_many``, ``ack_many``,
``nack_many``, ``heartbeat``, ``reap_expired``, ``drain`` and clock
ticks (an injected clock: leases expire without sleeping), two
workers at once, and checks each step against a small model of the
documented semantics (module docstring of ``repro.dist.queue``):

* no task is lost: every submitted task is pending, leased or terminal,
  and the pending ones are exactly the queue's depth;
* none is settled twice: a terminal task never changes again, and its
  result is the first accepted ack's;
* ``max_attempts`` bounds every task: no task is leased more often, and
  the one that reaches it fails instead of re-entering the queue;
* a stale ack or nack (a task the worker does not hold) is reported and
  not applied;
* a heartbeat, explicit or piggybacked, extends each held lease by the
  window its claim asked for, never by the queue's default.
"""

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.dist.queue import (
    CLAIMED,
    DONE,
    FAILED,
    PENDING,
    TERMINAL,
    QueueError,
    TaskQueue,
)

WORKERS = st.sampled_from(["w0", "w1"])

#: Indexes the rules map onto task ids (:meth:`QueueMachine.task_id`).
INDEXES = st.integers(0, 12)


class QueueMachine(RuleBasedStateMachine):

    @initialize(lease=st.sampled_from([1.0, 2.5]),
                max_attempts=st.integers(1, 3))
    def start(self, lease, max_attempts):
        self.now = 0.0
        self.queue = TaskQueue(lease=lease, max_attempts=max_attempts,
                               clock=lambda: self.now)
        #: task id -> [state, worker, attempts, deadline, result, lease]
        self.model = {}
        self.pending = []  # task ids, FIFO
        self.draining = False
        self.settled = {}  # task id -> (state, result) when it settled
        self.results = 0

    # -- the model's transitions ------------------------------------------
    def extend(self, worker):
        """A heartbeat grants each held task the lease its claim asked
        for: a long lease is never cut back to the queue's default."""
        for entry in self.model.values():
            if entry[0] == CLAIMED and entry[1] == worker:
                entry[3] = self.now + entry[5]

    def reap(self):
        reaped = []
        for task_id, entry in self.model.items():
            if entry[0] == CLAIMED and entry[3] < self.now:
                entry[1] = entry[3] = None
                if entry[2] >= self.queue.max_attempts:
                    entry[0] = FAILED
                else:
                    entry[0] = PENDING
                    self.pending.append(task_id)
                reaped.append(task_id)
        return reaped

    def task_id(self, index):
        """The queue numbers tasks ``t0``, ``t1``, ...: ``index`` names
        one of them, or the next id, a task that does not exist yet."""
        return f"t{index % (len(self.model) + 1)}"

    def holds(self, worker, task_id):
        entry = self.model.get(task_id)
        return entry is not None and entry[0] == CLAIMED \
            and entry[1] == worker

    # -- rules --------------------------------------------------------------
    @rule(count=st.integers(1, 3))
    def submit(self, count):
        for _ in range(count):
            if self.draining:
                try:
                    self.queue.submit(None)
                except QueueError:
                    return
                raise AssertionError("a draining queue accepted a task")
            task = self.queue.submit(None)
            assert task.task_id == f"t{len(self.model)}"
            self.model[task.task_id] = [PENDING, None, 0, None, None, 0.0]
            self.pending.append(task.task_id)

    @rule(worker=WORKERS, count=st.integers(1, 4),
          lease=st.sampled_from([None, 0.5, 4.0]))
    def claim(self, worker, count, lease):
        self.reap()
        self.extend(worker)
        want, self.pending = self.pending[:count], self.pending[count:]
        window = self.queue.lease if lease is None else lease
        for task_id in want:
            entry = self.model[task_id]
            entry[:4] = [CLAIMED, worker, entry[2] + 1, self.now + window]
            entry[5] = window
        claimed = self.queue.claim_many(worker, count, lease=lease)
        assert [task.task_id for task in claimed] == want

    @rule(worker=WORKERS, indexes=st.lists(INDEXES, max_size=4))
    def ack(self, worker, indexes):
        acks, acked, stale = [], [], []
        for task_id in map(self.task_id, indexes):
            self.results += 1
            result = f"{task_id} by {worker} #{self.results}"
            acks.append((task_id, result, "computed"))
            if not self.holds(worker, task_id):
                stale.append(task_id)
                continue
            entry = self.model[task_id]
            entry[:5] = [DONE, None, entry[2], None, result]
            acked.append(task_id)
        self.extend(worker)
        assert self.queue.ack_many(worker, acks) == (acked, stale)

    @rule(worker=WORKERS,
          entries=st.lists(st.tuples(INDEXES, st.booleans()), max_size=4))
    def nack(self, worker, entries):
        nacks = [(self.task_id(index), requeue) for index, requeue in entries]
        states = {}
        for task_id, requeue in nacks:
            if not self.holds(worker, task_id):
                states[task_id] = "stale"
                continue
            entry = self.model[task_id]
            entry[1] = entry[3] = None
            if requeue and entry[2] < self.queue.max_attempts:
                entry[0] = PENDING
                self.pending.append(task_id)
            else:
                entry[0] = FAILED
            states[task_id] = entry[0]
        self.extend(worker)
        assert self.queue.nack_many(
            worker, [(task_id, "boom", requeue)
                     for task_id, requeue in nacks]) == states

    @rule(worker=WORKERS)
    def heartbeat(self, worker):
        held = sum(1 for task_id in self.model if self.holds(worker, task_id))
        self.extend(worker)
        assert self.queue.heartbeat(worker) == held

    @rule(seconds=st.sampled_from([0.25, 1.0, 2.5, 5.0]))
    def tick(self, seconds):
        self.now += seconds

    @rule()
    def reap_expired(self):
        want = self.reap()
        assert [task.task_id for task in self.queue.reap_expired()] == want

    @precondition(lambda self: not self.draining)
    @rule()
    def drain(self):
        self.draining = True
        self.queue.drain()

    # -- invariants ---------------------------------------------------------
    @invariant()
    def every_task_is_where_the_model_says(self):
        tasks = self.queue.tasks()
        assert [task.task_id for task in tasks] == list(self.model)
        for task in tasks:
            assert [task.state, task.worker, task.attempts, task.deadline,
                    task.result] == self.model[task.task_id][:5], task.task_id
        assert self.queue.depth() == len(self.pending)
        assert sorted(self.pending) == sorted(
            task_id for task_id, entry in self.model.items()
            if entry[0] == PENDING)
        assert self.queue.draining == self.draining

    @invariant()
    def no_task_is_lost(self):
        by_state = {}
        for task in self.queue.tasks():
            by_state[task.state] = by_state.get(task.state, 0) + 1
        assert sum(by_state.values()) == self.queue.stats.submitted
        assert by_state.get(PENDING, 0) == self.queue.depth()
        assert by_state.get(CLAIMED, 0) == self.queue.in_flight()
        assert self.queue.outstanding() == self.queue.depth() \
            + self.queue.in_flight()

    @invariant()
    def a_settled_task_never_changes(self):
        for task in self.queue.tasks():
            if task.state in TERMINAL:
                settled = self.settled.setdefault(
                    task.task_id, (task.state, task.result))
                assert (task.state, task.result) == settled, task.task_id
            else:
                assert task.task_id not in self.settled, task.task_id
        assert self.queue.stats.acks == sum(
            1 for task in self.queue.tasks() if task.state == DONE)

    @invariant()
    def attempts_stay_within_the_poison_bound(self):
        for task in self.queue.tasks():
            assert task.attempts <= self.queue.max_attempts
            if task.state == PENDING:
                assert task.attempts < self.queue.max_attempts


TestQueueMachine = QueueMachine.TestCase
