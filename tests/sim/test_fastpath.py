"""Fast-path kernel guarantees: ordering keys, the one-heap queue,
tombstone cancellation, timer withdrawal, and the carrier free list.

These tests pin the *observable* contract of the event list — the
``(time, priority, sequence)`` ordering and O(1) cancellation — so the
internals (packed keys, the heap, recycled carriers) can keep
evolving without changing scenario output.
"""

import gc
import inspect
import re

import pytest

from repro.core.errors import SimulationError
from repro.sim import Engine, Interrupt
from repro.sim.engine import (
    _CARRIER_POOL_MAX,
    _COMPACT_MIN,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
)
from repro.sim.events import Carrier, Timeout


@pytest.fixture
def engine():
    return Engine()


class TestOrderingKey:
    def test_urgent_beats_normal_at_same_instant(self, engine):
        order = []
        engine.timeout(0).callbacks.append(lambda e: order.append("normal"))
        engine.immediate(True, None, lambda e: order.append("urgent"),
                         priority=PRIORITY_URGENT)
        engine.run()
        assert order == ["urgent", "normal"]

    def test_urgent_does_not_jump_time(self, engine):
        """Priority only breaks ties: an urgent event later in time still
        waits for earlier normal events."""
        order = []
        engine.timeout(1.0).callbacks.append(lambda e: order.append("early"))

        def arm_late_urgent(event):
            order.append("now")
            # An urgent delivery at t=2 must not preempt t=1.
            engine._schedule(engine.event().succeed(), delay=2.0,
                             priority=PRIORITY_URGENT)

        engine.timeout(0).callbacks.append(arm_late_urgent)
        engine.run()
        assert order == ["now", "early"]

    def test_same_priority_same_time_is_fifo(self, engine):
        order = []
        for i in range(32):
            engine.immediate(True, i, lambda e: order.append(e.value),
                             priority=PRIORITY_URGENT)
        engine.run()
        assert order == list(range(32))

    def test_full_key_order_matches_sorted_triples(self, engine):
        """Dispatch order is exactly sorted (time, priority, seq)."""
        schedule = [
            (3.0, PRIORITY_NORMAL), (1.0, PRIORITY_URGENT),
            (1.0, PRIORITY_NORMAL), (0.0, PRIORITY_NORMAL),
            (3.0, PRIORITY_URGENT), (1.0, PRIORITY_URGENT),
            (0.0, PRIORITY_URGENT), (2.0, PRIORITY_NORMAL),
        ]
        fired = []
        for seq, (delay, priority) in enumerate(schedule):
            # A pre-resolved event scheduled by hand (what Timeout does,
            # but with an explicit priority).
            event = engine.event()
            event._ok = True
            event._value = seq
            engine._schedule(event, delay=delay, priority=priority)
            event.callbacks.append(lambda e: fired.append(e.value))
        engine.run()
        expected = sorted(
            range(len(schedule)),
            key=lambda i: (schedule[i][0], schedule[i][1], i),
        )
        assert fired == expected


class TestTwoTierQueue:
    """Named for the heap + sorted-run queue these cases were written
    against; what they observe is tier-free and holds for the one heap."""

    def test_peek_sees_both_tiers(self, engine):
        stop = engine.event()
        for i in range(32):
            engine.timeout(5.0 + i)
        engine.timeout(1.0).callbacks.append(lambda e: stop.succeed())
        engine.run(until=stop)
        # A backlog is left behind by the partial run; peek() must report
        # the global minimum once a nearer entry is scheduled.
        assert engine.peek() == pytest.approx(5.0)
        engine.timeout(0.5)
        assert engine.peek() == pytest.approx(engine.now + 0.5)

    def test_step_drains_both_tiers_in_order(self, engine):
        fired = []
        stop = engine.event()
        for i in range(32):
            engine.timeout(5.0 + i).callbacks.append(
                lambda e, i=i: fired.append(5.0 + i))
        engine.timeout(1.0).callbacks.append(lambda e: stop.succeed())
        engine.run(until=stop)
        engine.timeout(0.5).callbacks.append(lambda e: fired.append("fresh"))
        engine.step()  # the fresh entry is earlier than the whole backlog
        assert fired == ["fresh"]
        engine.step()  # now the backlog's head
        assert fired == ["fresh", 5.0]
        engine.run()
        assert fired == ["fresh"] + [5.0 + i for i in range(32)]

    def test_interleaved_run_calls_preserve_order(self, engine):
        fired = []
        for i in range(48):
            engine.timeout(float(i)).callbacks.append(
                lambda e, i=i: fired.append(i))
        engine.run(until=10.0)
        assert fired == list(range(11))
        for i in range(16):
            engine.timeout(10.5)  # lands between the leftovers
        engine.run()
        assert fired == list(range(48))


class TestLayoutGuard:
    """One binary heap, one dispatch loop (DESIGN.md §3.2): a source
    grep, as in tests/service/test_http.py — a second tier or a per-mode
    copy of the loop has to argue its way back in through
    docs/PERFORMANCE.md "Inside the event kernel"."""

    SOURCE = inspect.getsource(inspect.getmodule(Engine))

    def test_no_run_tier(self, engine):
        for gone in (r"_run\b", "_MIGRATE_MIN", "_pop_entry", r"\.sort\("):
            assert not re.search(gone, self.SOURCE), gone
        queues = [name for name, value in vars(engine).items()
                  if isinstance(value, list)]
        assert sorted(queues) == ["_carriers", "_heap"]

    def test_heappop_is_the_only_way_out(self):
        assert "heappop" in self.SOURCE
        assert not re.search(r"heap\.pop\(|del heap|heap\[-1\]", self.SOURCE)

    def test_one_callback_loop_per_dispatching_method(self):
        for method in (Engine.step, Engine.run, Engine.run_budgeted):
            body = inspect.getsource(method)
            assert body.count("for callback in callbacks") <= 1, method
        assert inspect.getsource(Engine.run).count("while ") == 1


class TestNegativeDelay:
    """One check and one message wherever a delay is taken (Engine._schedule,
    later, reserve) — written ``not delay >= 0`` so that NaN is
    refused with it."""

    MESSAGE = "cannot schedule into the past"

    def test_engine_timeout(self, engine):
        with pytest.raises(SimulationError, match=self.MESSAGE):
            engine.timeout(-1)

    def test_timeout_constructor(self, engine):
        with pytest.raises(SimulationError, match=self.MESSAGE):
            Timeout(engine, -0.5)

    def test_message_names_the_delay(self, engine):
        with pytest.raises(SimulationError, match=r"delay=-2\.5"):
            engine.timeout(-2.5)

    def test_nan_delay_is_refused(self, engine):
        engine.timeout(1.0)
        with pytest.raises(SimulationError, match=self.MESSAGE):
            engine.timeout(float("nan"))
        assert len(engine._heap) == 1 and engine.now == 0.0

    def test_nan_horizon_is_refused(self, engine):
        engine.timeout(1.0)
        with pytest.raises(SimulationError, match="is in the past"):
            engine.run(until=float("nan"))
        assert len(engine._heap) == 1 and engine.now == 0.0


class TestTombstoneCancellation:
    def test_interrupted_waiter_leaves_others_untouched(self, engine):
        barrier = engine.event()
        results = {}

        def waiter(tag):
            try:
                value = yield barrier
                results[tag] = value
            except Interrupt as interrupt:
                results[tag] = f"int:{interrupt.cause}"

        processes = [engine.process(waiter(i), name=f"w{i}") for i in range(6)]

        def storm():
            yield engine.timeout(1.0)
            processes[1].interrupt("a")
            processes[4].interrupt("b")
            yield engine.timeout(1.0)
            barrier.succeed("go")

        engine.process(storm())
        engine.run()
        assert results == {0: "go", 2: "go", 3: "go", 5: "go",
                           1: "int:a", 4: "int:b"}

    def test_detach_is_a_tombstone_not_a_removal(self, engine):
        """Interrupting a waiter nulls its slot in the target's callback
        list instead of shrinking it — the O(1) cancellation path."""
        barrier = engine.event()

        def waiter():
            try:
                yield barrier
            except Interrupt:
                pass

        process = engine.process(waiter())
        engine.run(until=0.0)
        assert len(barrier.callbacks) == 1
        process.interrupt()
        engine.step()  # deliver the interrupt: the waiter detaches
        assert barrier.callbacks == [None]
        barrier.succeed()
        engine.run()  # dispatch skips the tombstone without error

    def test_cancelled_timeout_discarded_on_pop(self, engine):
        """The interrupted sleeper's original timeout stays queued but its
        slot is dead; popping it later must not resume anyone."""
        wakes = []

        def sleeper():
            try:
                yield engine.timeout(10.0)
            except Interrupt:
                wakes.append(("interrupt", engine.now))
            yield engine.timeout(100.0)
            wakes.append(("late", engine.now))

        target = engine.process(sleeper())

        def interrupter():
            yield engine.timeout(1.0)
            target.interrupt()

        engine.process(interrupter())
        engine.run()
        assert wakes == [("interrupt", 1.0), ("late", 101.0)]


class TestTimerWithdrawal:
    def test_cancelled_timer_runs_no_callback(self, engine):
        fired = []
        timer = engine.timeout(5.0)
        timer.callbacks.append(fired.append)
        timer.cancel()
        assert timer.processed
        engine.run()
        assert fired == []

    def test_cancel_twice_is_a_no_op(self, engine):
        timer = engine.timeout(5.0)
        timer.cancel()
        timer.cancel()
        assert engine._withdrawn == 1

    def test_cancel_after_firing_is_a_no_op(self, engine):
        fired = []
        timer = engine.timeout(5.0, value="v")
        timer.callbacks.append(fired.append)
        engine.run()
        timer.cancel()
        assert fired == [timer] and timer.value == "v"
        assert engine._withdrawn == 0

    def test_step_passes_over_a_withdrawn_timer(self, engine):
        """``step()`` must treat ``callbacks is None`` like the inlined
        loop of ``run()`` does; ``run_budgeted`` is built on it."""
        engine.timeout(1.0).cancel()
        engine.timeout(2.0)
        engine.step()
        engine.step()
        assert engine.now == 2.0

    def test_withdrawn_timer_does_not_move_the_final_clock(self, engine):
        engine.timeout(1.0)
        engine.timeout(9.0).cancel()
        engine.run()
        assert engine.now == 1.0

    def test_rebuild_keeps_every_live_entry_in_order(self, engine):
        """Withdraw far more timers than the floor, interleaved with live
        ones, from inside a running dispatch loop."""
        order = []
        for i in range(4 * _COMPACT_MIN):
            engine.timeout(10.0 + i).callbacks.append(
                lambda e, i=i: order.append(i))
        engine.run(until=5.0)

        def churn():
            for _ in range(16 * _COMPACT_MIN):
                loser = engine.timeout(1000.0)
                yield engine.timeout(0.001)
                loser.cancel()

        engine.process(churn())
        engine.run()
        assert order == list(range(4 * _COMPACT_MIN))
        assert engine.now < 1000.0

    def test_finished_races_do_not_accumulate(self, engine):
        """N commands that each finish long before their deadline leave a
        bounded queue behind (not N stale timers), and, with the cyclic
        collector off, next to nothing for it to find: a finished process
        is freed by reference count."""
        from repro.simruntime import CommandRegistry, SimFtsh

        shell = SimFtsh(engine, CommandRegistry())
        n = 5_000
        script = "try for 1000000 seconds\n" + "  true\n" * 50 + "end"
        gc.collect()
        gc.disable()
        try:
            for _ in range(n // 50):
                assert shell.run(script).success
            queued = len(engine._heap)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert queued <= 2 * _COMPACT_MIN + 2
        assert unreachable < 100


class TestCarrierPool:
    def test_resume_path_recycles_carriers(self, engine):
        def hopper():
            for _ in range(5):
                yield engine.timeout(0)  # non-carrier resumes
        engine.run(until=engine.process(hopper()))
        assert engine._carriers, "bootstrap carrier should be pooled"
        pooled = engine._carriers[-1]
        event = engine.immediate(True, None, lambda e: None)
        assert event is pooled  # zero-alloc: reused, not reallocated

    def test_pool_is_bounded(self, engine):
        for _ in range(2 * _CARRIER_POOL_MAX):
            engine._recycle(Carrier(engine))
        assert len(engine._carriers) == _CARRIER_POOL_MAX

    def test_resume_path_keeps_the_bound(self, engine):
        """Process._resume recycles inline: twice the bound of processes
        bootstrapped in one instant hold that many carriers at once, and
        the pool keeps no more than the bound of them."""
        def hopper():
            yield engine.timeout(1)

        for _ in range(2 * _CARRIER_POOL_MAX):
            engine.process(hopper())
        engine.run()
        assert len(engine._carriers) == _CARRIER_POOL_MAX

    def test_failed_immediate_arrives_predefused(self, engine):
        seen = []
        error = RuntimeError("carried")
        engine.immediate(False, error, seen.append)
        engine.run()  # must not raise: the callback owns the failure
        assert seen and seen[0]._value is error

    def test_recycled_carrier_keeps_delivery_semantics(self, engine):
        """Values delivered through a recycled carrier are not smeared by
        earlier uses of the same object."""
        seen = []

        def chain(n):
            if n:
                engine.immediate(True, n, lambda e: (seen.append(e.value),
                                                     chain(n - 1)))
        chain(5)
        engine.run()
        assert seen == [5, 4, 3, 2, 1]
