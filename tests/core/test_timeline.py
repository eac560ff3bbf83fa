"""Deadline stack and attempt budgets."""

import pytest

from repro.core.timeline import UNBOUNDED, AttemptBudget, DeadlineStack


class TestDeadlineStack:
    def test_empty_is_unbounded(self):
        stack = DeadlineStack()
        assert stack.effective() == UNBOUNDED
        assert not stack.expired(1e18)

    def test_push_returns_clipped(self):
        stack = DeadlineStack()
        assert stack.push(100.0) == 100.0
        # An inner limit beyond the outer is clipped to the outer.
        assert stack.push(500.0) == 100.0
        # An inner limit before the outer stands.
        assert stack.push(50.0) == 50.0

    def test_pop_restores(self):
        stack = DeadlineStack()
        stack.push(100.0)
        stack.push(50.0)
        stack.pop()
        assert stack.effective() == 100.0
        stack.pop()
        assert stack.effective() == UNBOUNDED

    def test_unbounded_inner(self):
        stack = DeadlineStack()
        stack.push(100.0)
        assert stack.push(UNBOUNDED) == 100.0

    def test_expired(self):
        stack = DeadlineStack()
        stack.push(100.0)
        assert not stack.expired(99.9)
        assert stack.expired(100.0)
        assert stack.expired(100.1)

    def test_remaining(self):
        stack = DeadlineStack()
        stack.push(100.0)
        assert stack.remaining(30.0) == 70.0
        assert stack.remaining(130.0) == -30.0

    def test_clip(self):
        stack = DeadlineStack()
        stack.push(100.0)
        assert stack.clip(5.0, now=10.0) == 5.0
        assert stack.clip(500.0, now=10.0) == 90.0
        assert stack.clip(5.0, now=100.0) == 0.0
        assert stack.clip(5.0, now=200.0) == 0.0  # never negative

    def test_len_and_iter(self):
        stack = DeadlineStack()
        stack.push(10.0)
        stack.push(5.0)
        assert len(stack) == 2
        assert list(stack) == [10.0, 5.0]

    def test_monotone_nonincreasing_invariant(self):
        stack = DeadlineStack()
        import random
        rng = random.Random(7)
        for _ in range(50):
            stack.push(rng.uniform(0, 1000))
        values = list(stack)
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestAttemptBudget:
    def test_unlimited(self):
        budget = AttemptBudget()
        for _ in range(100):
            budget.start_attempt()
        assert budget.may_retry(1e15)

    def test_attempt_limit(self):
        budget = AttemptBudget(max_attempts=3)
        for _ in range(3):
            assert budget.may_retry(0.0)
            budget.start_attempt()
        assert not budget.may_retry(0.0)

    def test_time_limit(self):
        budget = AttemptBudget(deadline=100.0)
        budget.start_attempt()
        assert budget.may_retry(99.0)
        assert not budget.may_retry(100.0)

    def test_both_limits_whichever_first(self):
        # "try for 1 hour or 3 times ... whichever expires first"
        budget = AttemptBudget(deadline=3600.0, max_attempts=3)
        budget.start_attempt()
        budget.start_attempt()
        budget.start_attempt()
        assert not budget.may_retry(10.0)          # attempts exhausted
        budget2 = AttemptBudget(deadline=3600.0, max_attempts=3)
        budget2.start_attempt()
        assert not budget2.may_retry(3600.0)       # time exhausted

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            AttemptBudget(max_attempts=0)
