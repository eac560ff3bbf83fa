"""Exponential backoff policy and state."""

import random

import pytest

from repro.core.backoff import (
    BackoffPolicy,
    BackoffState,
    NO_BACKOFF,
    PAPER_POLICY,
)
from repro.core.units import HOUR
from repro.service.http import TRANSPORT_BACKOFF


def fixed_random(value):
    return lambda: value


class TestPolicyValidation:
    def test_negative_base(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=-1)

    def test_factor_below_one(self):
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)

    def test_ceiling_below_base(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=10, ceiling=5)

    def test_bad_jitter_order(self):
        with pytest.raises(ValueError):
            BackoffPolicy(jitter_low=2.0, jitter_high=1.0)

    def test_negative_jitter(self):
        with pytest.raises(ValueError):
            BackoffPolicy(jitter_low=-0.5, jitter_high=1.0)


class TestPaperSchedule:
    """The paper: base 1 s, doubled each failure, capped at one hour,
    multiplied by a random factor in [1, 2)."""

    def test_base_is_one_second(self):
        assert PAPER_POLICY.base == 1.0

    def test_doubling(self):
        assert PAPER_POLICY.raw_delay(1) == 1.0
        assert PAPER_POLICY.raw_delay(2) == 2.0
        assert PAPER_POLICY.raw_delay(3) == 4.0
        assert PAPER_POLICY.raw_delay(11) == 1024.0

    def test_one_hour_cap(self):
        assert PAPER_POLICY.raw_delay(13) == HOUR
        assert PAPER_POLICY.raw_delay(100) == HOUR
        assert PAPER_POLICY.raw_delay(100000) == HOUR

    def test_jitter_bounds(self):
        low = PAPER_POLICY.delay(3, fixed_random(0.0))
        high = PAPER_POLICY.delay(3, fixed_random(0.999999))
        assert low == pytest.approx(4.0)
        assert 4.0 <= high < 8.0

    def test_max_delay(self):
        # The ceiling at the top of the jitter range, [1, 2).
        assert PAPER_POLICY.delay(64, fixed_random(1.0)) == 2 * HOUR

    def test_failures_must_be_positive(self):
        with pytest.raises(ValueError):
            PAPER_POLICY.raw_delay(0)


class TestNoBackoff:
    def test_always_zero(self):
        for failures in (1, 2, 10, 1000):
            assert NO_BACKOFF.delay(failures, fixed_random(0.5)) == 0.0


class TestBackoffState:
    def test_counts_failures(self):
        state = BackoffState(PAPER_POLICY)
        assert state.failures == 0
        state.next_delay(fixed_random(0.0))
        state.next_delay(fixed_random(0.0))
        assert state.failures == 2

    def test_delays_grow(self):
        state = BackoffState(PAPER_POLICY)
        delays = [state.next_delay(fixed_random(0.0)) for _ in range(5)]
        assert delays == [1.0, 2.0, 4.0, 8.0, 16.0]

    def test_reset(self):
        state = BackoffState(PAPER_POLICY)
        for _ in range(5):
            state.next_delay(fixed_random(0.0))
        state.reset()
        assert state.failures == 0
        assert state.next_delay(fixed_random(0.0)) == 1.0

    def test_next_delay_from_jitter(self):
        state = BackoffState(PAPER_POLICY)
        assert state.next_delay_from_jitter(0.0) == 1.0
        assert state.next_delay_from_jitter(0.5) == pytest.approx(3.0)  # 2 * 1.5
        assert state.failures == 2


class TestCustomPolicies:
    def test_non_doubling_factor(self):
        policy = BackoffPolicy(base=1.0, factor=3.0, ceiling=100.0)
        assert policy.raw_delay(3) == 9.0
        assert policy.raw_delay(10) == 100.0

    def test_zero_base_stays_zero(self):
        policy = BackoffPolicy(base=0.0, factor=2.0, ceiling=10.0)
        assert policy.raw_delay(50) == 0.0

    def test_huge_failure_count_no_overflow(self):
        # Must not compute 2**10**6 eagerly.
        assert PAPER_POLICY.raw_delay(10**6) == HOUR


class TestControlPlanePolicies:
    """The two schedules the repo's own clients run on: the unjittered
    transport retry of repro.service.http and the [0, 1)-jittered,
    4x-truncated idle nap of the dist worker."""

    IDLE = BackoffPolicy(base=0.1, ceiling=1.0,
                         jitter_low=0.0, jitter_high=1.0)

    def test_doubles_from_base(self):
        steady = BackoffPolicy(base=0.1, ceiling=10.0,
                               jitter_low=1.0, jitter_high=1.0)
        assert [steady.raw_delay(n) for n in range(1, 5)] \
            == [0.1, 0.2, 0.4, 0.8]
        assert [TRANSPORT_BACKOFF.delay(n, random.random)
                for n in range(1, 4)] == [0.05, 0.1, 0.2]

    def test_ceiling_holds_at_30_failures(self):
        assert TRANSPORT_BACKOFF.raw_delay(1) == 0.05
        assert TRANSPORT_BACKOFF.raw_delay(31) == 2.0
        assert TRANSPORT_BACKOFF.delay(31, fixed_random(1.0)) == 2.0
        assert self.IDLE.raw_delay(31) == 1.0

    def test_zero_low_jitter_stays_inside_the_window(self):
        rng = random.Random(2003)
        for failures in range(1, 9):
            window = self.IDLE.raw_delay(failures)
            for _ in range(50):
                assert 0.0 <= self.IDLE.delay(failures, rng.random) <= window

    def test_different_seeds_spread(self):
        """Two workers with different rngs must not sleep in lockstep —
        that is the whole point of the jitter."""
        a, b = random.Random(1), random.Random(2)
        assert [self.IDLE.delay(4, a.random) for _ in range(10)] \
            != [self.IDLE.delay(4, b.random) for _ in range(10)]
