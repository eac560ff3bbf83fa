"""Engine stepping, ordering, run() modes, and close()."""

import gc
import weakref

import pytest

from repro.core.errors import SimulationError
from repro.sim import Engine


@pytest.fixture
def engine():
    return Engine()


class TestClock:
    def test_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_custom_start(self):
        assert Engine(start_time=100.0).now == 100.0

    def test_time_advances_to_event(self, engine):
        engine.timeout(7.5)
        engine.run()
        assert engine.now == 7.5


class TestOrdering:
    def test_fifo_for_same_time(self, engine):
        order = []
        for i in range(10):
            engine.timeout(1.0).callbacks.append(lambda e, i=i: order.append(i))
        engine.run()
        assert order == list(range(10))

    def test_time_order(self, engine):
        order = []
        for delay in (5, 1, 3, 2, 4):
            engine.timeout(delay).callbacks.append(
                lambda e, d=delay: order.append(d)
            )
        engine.run()
        assert order == [1, 2, 3, 4, 5]


class TestRunModes:
    def test_run_to_exhaustion(self, engine):
        engine.timeout(1)
        engine.timeout(2)
        assert engine.run() is None
        assert engine.now == 2.0

    def test_run_until_time(self, engine):
        fired = []
        engine.timeout(1).callbacks.append(fired.append)
        engine.timeout(10).callbacks.append(fired.append)
        engine.run(until=5.0)
        assert engine.now == 5.0
        assert len(fired) == 1

    def test_run_until_time_inclusive(self, engine):
        fired = []
        engine.timeout(5).callbacks.append(fired.append)
        engine.run(until=5.0)
        assert len(fired) == 1

    def test_run_until_past_rejected(self, engine):
        engine.timeout(10)
        engine.run(until=5.0)
        with pytest.raises(SimulationError):
            engine.run(until=1.0)

    def test_run_until_event_returns_value(self, engine):
        timeout = engine.timeout(3, value="v")
        assert engine.run(until=timeout) == "v"

    def test_run_until_event_already_processed(self, engine):
        timeout = engine.timeout(1, value="v")
        engine.run()
        assert engine.run(until=timeout) == "v"

    def test_run_until_failed_event_raises(self, engine):
        event = engine.event()
        event.fail(RuntimeError("died"))
        with pytest.raises(RuntimeError):
            engine.run(until=event)

    def test_run_until_unreachable_event(self, engine):
        event = engine.event()  # never triggered
        engine.timeout(1)
        with pytest.raises(SimulationError):
            engine.run(until=event)

    def test_step_empty_queue_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.step()

    def test_peek(self, engine):
        assert engine.peek() == float("inf")
        engine.timeout(4)
        assert engine.peek() == 4.0


class TestClose:
    """A world that ends with processes still waiting lets go of them:
    each generator is finalized once, at ``close``, and the engine is
    then freed by reference count."""

    def test_releases_every_waiting_process(self):
        engine = Engine()
        finalized = []

        def on_timer():
            try:
                yield engine.timeout(100.0)
            finally:
                finalized.append("timer")

        def on_process(other):
            try:
                yield other
            finally:
                finalized.append("process")

        def on_withdrawn(timer):
            try:
                yield timer
            finally:
                finalized.append("withdrawn")

        def withdraw(timer):
            yield engine.timeout(1.0)
            timer.cancel()

        withdrawn = engine.timeout(50.0)
        engine.process(on_process(engine.process(on_timer())))
        engine.process(on_withdrawn(withdrawn))
        engine.process(withdraw(withdrawn))
        del withdrawn
        engine.run(until=10.0)
        assert finalized == []

        gc.disable()
        try:
            engine.close()
            assert finalized == ["timer", "process", "withdrawn"]  # start order
            engine.close()  # a second close is a no-op
            assert len(finalized) == 3
            with pytest.raises(SimulationError):
                engine.run(until=20.0)
            gone = weakref.ref(engine)
            del engine
            assert gone() is None
        finally:
            gc.enable()
        assert len(finalized) == 3

    def test_finished_processes_leave_nothing_to_detach(self, engine):
        def body():
            yield engine.timeout(1.0)

        engine.process(body())
        engine.run()
        assert not engine._live
        engine.close()
        assert engine.peek() == float("inf")
