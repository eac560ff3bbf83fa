"""Property tests for the backoff schedule."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backoff import BackoffPolicy

bases = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
ceilings = st.floats(min_value=10.0, max_value=10_000.0, allow_nan=False)

policies = st.builds(
    BackoffPolicy,
    base=bases,
    factor=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
    ceiling=ceilings,
    jitter_low=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    jitter_high=st.floats(min_value=1.0, max_value=3.0, allow_nan=False),
)

#: The dist worker's idle nap: a uniform draw over [0, window).
zero_low_policies = st.builds(
    BackoffPolicy, base=bases, ceiling=ceilings,
    jitter_low=st.just(0.0), jitter_high=st.just(1.0))


@given(policy=policies, failures=st.integers(min_value=1, max_value=10_000))
def test_raw_delay_never_exceeds_ceiling(policy, failures):
    assert policy.raw_delay(failures) <= policy.ceiling


@given(policy=policies, failures=st.integers(min_value=1, max_value=1000))
def test_raw_delay_monotone_nondecreasing(policy, failures):
    assert policy.raw_delay(failures) <= policy.raw_delay(failures + 1)


@given(
    policy=policies | zero_low_policies,
    failures=st.integers(min_value=1, max_value=1000),
    jitter=st.floats(min_value=0.0, max_value=0.999999, allow_nan=False),
)
def test_jittered_delay_within_band(policy, failures, jitter):
    raw = policy.raw_delay(failures)
    delay = policy.delay(failures, lambda: jitter)
    assert policy.jitter_low * raw - 1e-9 <= delay <= policy.jitter_high * raw + 1e-9
    assert delay <= policy.max_delay() + 1e-9


@given(failures=st.integers(min_value=1, max_value=60))
def test_paper_policy_closed_form(failures):
    """Below the cap, the paper schedule is exactly base * 2**(n-1)."""
    from repro.core.backoff import PAPER_POLICY

    expected = min(2.0 ** (failures - 1), PAPER_POLICY.ceiling)
    assert PAPER_POLICY.raw_delay(failures) == expected


@given(
    policy=policies,
    jitters=st.lists(
        st.floats(min_value=0.0, max_value=0.999999, allow_nan=False),
        min_size=1,
        max_size=30,
    ),
)
def test_state_total_wait_bounded(policy, jitters):
    """Cumulative wait after N failures is bounded by N * max_delay."""
    from repro.core.backoff import BackoffState

    state = BackoffState(policy)
    total = sum(state.next_delay(lambda j=j: j) for j in jitters)
    assert total <= len(jitters) * policy.max_delay() + 1e-6
    assert state.failures == len(jitters)
