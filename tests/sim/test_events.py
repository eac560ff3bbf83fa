"""Event lifecycle and conditions."""

import pytest

from repro.core.errors import SimulationError
from repro.sim import AllOf, AnyOf, Engine, Event, Timeout


@pytest.fixture
def engine():
    return Engine()


class TestEventLifecycle:
    def test_initial_state(self, engine):
        event = engine.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed(self, engine):
        event = engine.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_none_value(self, engine):
        event = engine.event()
        event.succeed()
        assert event.triggered
        assert event.value is None

    def test_double_trigger_rejected(self, engine):
        event = engine.event().succeed()
        with pytest.raises(SimulationError):
            event.succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("x"))

    def test_fail_requires_exception(self, engine):
        with pytest.raises(SimulationError):
            engine.event().fail("not an exception")

    def test_value_before_trigger_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.event().value
        with pytest.raises(SimulationError):
            engine.event().ok

    def test_callbacks_run_on_processing(self, engine):
        event = engine.event()
        seen = []
        event.callbacks.append(seen.append)
        event.succeed("v")
        assert not seen  # not yet processed
        engine.run()
        assert seen == [event]
        assert event.processed

    def test_undefused_failure_crashes_engine(self, engine):
        event = engine.event()
        event.fail(ValueError("boom"))
        with pytest.raises(ValueError):
            engine.run()

    def test_defused_failure_is_silent(self, engine):
        event = engine.event()
        event.fail(ValueError("boom"))
        event.defuse()
        engine.run()  # no raise


class TestTimeout:
    def test_fires_after_delay(self, engine):
        timeout = engine.timeout(5.0)
        engine.run()
        assert engine.now == 5.0
        assert timeout.processed

    def test_carries_value(self, engine):
        timeout = engine.timeout(1.0, value="payload")
        engine.run()
        assert timeout.value == "payload"

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.timeout(-1)

    def test_zero_delay(self, engine):
        timeout = engine.timeout(0)
        engine.run()
        assert engine.now == 0.0
        assert timeout.processed


class TestConditions:
    def test_all_of_waits_for_all(self, engine):
        a, b = engine.timeout(1, value="a"), engine.timeout(5, value="b")
        combo = engine.all_of([a, b])
        value = engine.run(until=combo)
        assert engine.now == 5.0
        assert value[a] == "a" and value[b] == "b"
        assert len(value) == 2

    def test_any_of_fires_on_first(self, engine):
        a, b = engine.timeout(1, value="a"), engine.timeout(5, value="b")
        combo = engine.any_of([a, b])
        value = engine.run(until=combo)
        assert engine.now == 1.0
        assert a in value and b not in value

    def test_empty_condition_succeeds_immediately(self, engine):
        combo = engine.all_of([])
        assert combo.triggered

    def test_condition_with_already_processed_event(self, engine):
        a = engine.timeout(1)
        engine.run()
        combo = engine.all_of([a])
        assert combo.triggered

    def test_condition_fails_if_member_fails(self, engine):
        a = engine.event()
        combo = engine.all_of([a])
        a.fail(RuntimeError("member died"))
        combo.defuse()
        engine.run()
        assert combo.triggered and not combo.ok

    def test_cross_engine_rejected(self, engine):
        other = Engine()
        with pytest.raises(SimulationError):
            engine.all_of([other.timeout(1)])

