"""``Engine.run_budgeted``: the sandbox's event-count and horizon caps."""

import pytest

from repro.core.errors import BudgetExceeded, SimulationError
from repro.sim import Engine
from repro.sim.engine import _COMPACT_MIN


@pytest.fixture
def engine():
    return Engine()


class TestRunBudgeted:
    def test_returns_value_and_event_count(self, engine):
        timeout = engine.timeout(3, value="v")
        value, events = engine.run_budgeted(timeout)
        assert value == "v"
        assert events == 1

    def test_counts_every_dispatched_event(self, engine):
        for delay in (1, 2):
            engine.timeout(delay)
        final = engine.timeout(3, value="v")
        _value, events = engine.run_budgeted(final)
        assert events == 3

    def test_event_budget_trips(self, engine):
        for delay in range(1, 10):
            engine.timeout(delay)
        final = engine.timeout(10, value="v")
        with pytest.raises(BudgetExceeded) as exc:
            engine.run_budgeted(final, max_events=3)
        assert exc.value.budget == "events"
        assert exc.value.limit == 3
        assert exc.value.events == 3
        # The engine stopped at the cap, not at the target event.
        assert engine.now <= 4.0

    def test_horizon_trips_before_dispatch(self, engine):
        final = engine.timeout(100, value="v")
        with pytest.raises(BudgetExceeded) as exc:
            engine.run_budgeted(final, horizon=50.0)
        assert exc.value.budget == "sim-time"
        # The over-horizon event was never dispatched.
        assert engine.now == 0.0
        assert exc.value.events == 0

    def test_a_trip_reports_the_events_dispatched(self, engine):
        for delay in (1, 2, 3):
            engine.timeout(delay)
        final = engine.timeout(100, value="v")
        with pytest.raises(BudgetExceeded) as exc:
            engine.run_budgeted(final, horizon=50.0)
        assert (exc.value.budget, exc.value.events) == ("sim-time", 3)
        with pytest.raises(BudgetExceeded) as exc:
            engine.run_budgeted(final, max_events=0)
        assert (exc.value.budget, exc.value.events) == ("events", 0)

    def test_unreachable_event_raises(self, engine):
        event = engine.event()  # never triggered
        engine.timeout(1)
        with pytest.raises(SimulationError):
            engine.run_budgeted(event, max_events=100)

    def test_failed_event_reraises(self, engine):
        event = engine.event()
        event.fail(RuntimeError("died"))
        engine.timeout(1, value=None)
        # Trigger processing of the failed event through the queue.
        with pytest.raises(RuntimeError):
            engine.run_budgeted(event)

    def test_already_processed_event_is_free(self, engine):
        timeout = engine.timeout(1, value="v")
        engine.run()
        value, events = engine.run_budgeted(timeout, max_events=0)
        assert value == "v"
        assert events == 0

    def test_budget_exceeded_is_simulation_error(self):
        # The service depends on this hierarchy to map budget trips to
        # failed outcomes rather than crashes.
        assert issubclass(BudgetExceeded, SimulationError)

    def test_within_budget_matches_run(self):
        plain, budgeted = Engine(), Engine()
        order_a, order_b = [], []
        for engine, order in ((plain, order_a), (budgeted, order_b)):
            for delay in (5, 1, 3):
                engine.timeout(delay).callbacks.append(
                    lambda e, d=delay, o=order: o.append(d))
        final_a = plain.timeout(6, value="done")
        final_b = budgeted.timeout(6, value="done")
        assert plain.run(until=final_a) == "done"
        value, events = budgeted.run_budgeted(
            final_b, max_events=100, horizon=100.0)
        assert value == "done"
        assert order_a == order_b
        assert events == 4


class TestWithdrawnTimers:
    """A withdrawn timer is one (empty) event if the run reaches it and
    none if it does not — exactly what the stale timer it replaces cost
    — so the count cannot depend on whether or when the queue is
    rebuilt."""

    def test_step_reaches_a_withdrawn_timer(self, engine):
        engine.timeout(1).cancel()
        final = engine.timeout(2, value="v")
        assert engine.run_budgeted(final) == ("v", 2)

    @staticmethod
    def churn(withdraw):
        """Far more than the rebuild floor of lost timers, half due
        before the run ends and half long after it."""
        engine = Engine()

        def racer():
            for i in range(8 * _COMPACT_MIN):
                loser = engine.timeout(1.0 if i % 2 else 1000.0)
                yield engine.timeout(0.001)
                if withdraw:
                    loser.cancel()
            yield engine.timeout(5.0)
            return "done"

        return engine, engine.process(racer())

    def test_count_is_the_stale_timer_count(self):
        plain, plain_process = self.churn(withdraw=False)
        engine, process = self.churn(withdraw=True)
        expected = plain.run_budgeted(plain_process)
        assert engine.run_budgeted(process) == expected
        # bootstrap + last sleep + the process' own event, one sleep per
        # lap, and the half of the lost timers due before the end.
        assert expected[1] == 3 + 8 * _COMPACT_MIN + 4 * _COMPACT_MIN
        # Outside the budgeted loop the same churn is compacted away.
        engine, process = self.churn(withdraw=True)
        engine.run(until=process)
        assert len(engine._heap) <= _COMPACT_MIN + 1

    def test_cap_trips_at_the_same_event(self):
        outcomes = []
        for withdraw in (False, True):
            engine, process = self.churn(withdraw)
            with pytest.raises(BudgetExceeded):
                engine.run_budgeted(process, max_events=6 * _COMPACT_MIN)
            outcomes.append(engine.now)
        assert outcomes[0] == outcomes[1]
