"""Exponential backoff with randomized jitter — the heart of ftsh's ``try``.

The paper (section 4) specifies the policy exactly:

    "The base delay is one second, doubled after every failure, up to a
    maximum of one hour.  Each delay interval is multiplied by a random
    factor between one and two in order to distribute the expected values."

:class:`BackoffPolicy` is the immutable description of such a schedule and
:class:`BackoffState` is one client's progress through it.  Separating the
two lets thousands of simulated clients share a policy object while each
carries only an integer of state.

The jitter factor is drawn from a caller-supplied ``random()`` source so
simulations are reproducible; the multiplier is applied *after* capping,
matching the paper's wording (an attempt may therefore wait up to
``2 * ceiling``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .units import HOUR

#: Uniform [0, 1) source, e.g. ``random.random`` or a seeded stream.
RandomSource = Callable[[], float]


@dataclass(frozen=True, slots=True)
class BackoffPolicy:
    """An exponential backoff schedule.

    Attributes:
        base: first delay in seconds (paper: 1 s).
        factor: growth per failure (paper: 2).
        ceiling: cap on the un-jittered delay in seconds (paper: 1 h).
        jitter_low / jitter_high: the random multiplier is drawn
            uniformly from ``[jitter_low, jitter_high)`` (paper: [1, 2)).
    """

    base: float = 1.0
    factor: float = 2.0
    ceiling: float = HOUR
    jitter_low: float = 1.0
    jitter_high: float = 2.0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError(f"base must be >= 0, got {self.base}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if self.ceiling < self.base:
            raise ValueError(
                f"ceiling ({self.ceiling}) must be >= base ({self.base})"
            )
        if not (0 <= self.jitter_low <= self.jitter_high):
            raise ValueError(
                f"need 0 <= jitter_low <= jitter_high, got "
                f"[{self.jitter_low}, {self.jitter_high})"
            )

    def raw_delay(self, failures: int) -> float:
        """Un-jittered delay after ``failures`` consecutive failures (>= 1).

        ``failures=1`` yields ``base``; each further failure multiplies by
        ``factor`` until ``ceiling``.
        """
        if failures < 1:
            raise ValueError(f"failures must be >= 1, got {failures}")
        # Closed form with overflow guards: base * factor**(failures-1).
        if self.base == 0.0:
            return 0.0
        if self.factor == 1.0:
            return min(self.base, self.ceiling)
        exponent = failures - 1
        # Decide the cap in log space: base * factor**e overflows for large
        # e (and ceiling/base overflows for subnormal bases), but their
        # logarithms never do.
        import math

        log_delay = math.log(self.base) + exponent * math.log(self.factor)
        if log_delay >= math.log(self.ceiling) - 1e-12:
            return self.ceiling
        if exponent * math.log(self.factor) > 708.0:
            # factor**exponent alone would overflow (subnormal base keeping
            # the *product* small); fall back to the log-space value.
            return min(math.exp(log_delay), self.ceiling)
        return min(self.base * self.factor**exponent, self.ceiling)

    def delay(self, failures: int, random: RandomSource) -> float:
        """Jittered delay after ``failures`` consecutive failures."""
        return self.delay_from_jitter(failures, random())

    def delay_from_jitter(self, failures: int, jitter: float) -> float:
        """:meth:`delay` with its U[0,1) draw already made."""
        multiplier = self.jitter_low + (self.jitter_high - self.jitter_low) * jitter
        return self.raw_delay(failures) * multiplier


#: The schedule the paper specifies for ``try``.
PAPER_POLICY = BackoffPolicy(base=1.0, factor=2.0, ceiling=HOUR)

#: A schedule for aggressive clients: no delay at all ("fixed" discipline).
NO_BACKOFF = BackoffPolicy(base=0.0, factor=1.0, ceiling=0.0, jitter_low=0.0, jitter_high=0.0)


class BackoffState:
    """One client's progress through a :class:`BackoffPolicy`.

    Call :meth:`next_delay` after each failure and sleep that long; call
    :meth:`reset` after a success so the next failure starts at ``base``.

    ``on_delay``, if given, observes every delay this state hands out —
    the hook telemetry uses (e.g. a histogram's ``observe``) without the
    hot path paying for an isinstance check or registry lookup.
    """

    __slots__ = ("policy", "_failures", "on_delay")

    def __init__(
        self,
        policy: BackoffPolicy = PAPER_POLICY,
        on_delay: Callable[[float], None] | None = None,
    ) -> None:
        self.policy = policy
        self._failures = 0
        self.on_delay = on_delay

    @property
    def failures(self) -> int:
        """Consecutive failures since the last reset."""
        return self._failures

    def next_delay(self, random: RandomSource) -> float:
        """Record a failure and return how long to wait before retrying."""
        self._failures += 1
        delay = self.policy.delay(self._failures, random)
        if self.on_delay is not None:
            self.on_delay(delay)
        return delay

    def next_delay_from_jitter(self, jitter: float) -> float:
        """Like :meth:`next_delay` with a pre-drawn U[0,1) ``jitter`` value.

        Used by the sans-IO interpreter, which obtains randomness through
        a driver effect rather than calling a source itself.
        """
        self._failures += 1
        delay = self.policy.delay_from_jitter(self._failures, jitter)
        if self.on_delay is not None:
            self.on_delay(delay)
        return delay

    def reset(self) -> None:
        """Forget past failures (call after a success)."""
        self._failures = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BackoffState(failures={self._failures}, policy={self.policy})"
