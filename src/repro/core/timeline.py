"""Deadline algebra for nested ``try for`` limits.

A ``try for 30 minutes`` containing a ``try for 5 minutes`` gives the
inner block a deadline of ``min(now + 5min, outer_deadline)`` — the paper:
"The outer time limit of thirty minutes applies regardless of the depth of
nesting."  :class:`DeadlineStack` tracks the active limits; the effective
deadline at any moment is the minimum of the stack.

Deadlines are absolute times in whatever clock the driver uses (wall
seconds for the real runtime, virtual seconds for the simulator); the
algebra itself is clock-agnostic.
"""

from __future__ import annotations

from typing import Iterator

#: Sentinel meaning "no limit".
UNBOUNDED: float = float("inf")


class DeadlineStack:
    """A stack of absolute deadlines whose effective value is the minimum.

    Because an inner ``try`` can never extend an outer limit, pushing
    clips the new deadline to the current effective one, which makes
    :meth:`effective` O(1): the stack is non-increasing from bottom to top.
    """

    __slots__ = ("_stack",)

    def __init__(self) -> None:
        self._stack: list[float] = []

    def push(self, deadline: float) -> float:
        """Push ``deadline`` (absolute; may be ``UNBOUNDED``) and return the
        clipped, now-effective deadline."""
        clipped = min(deadline, self.effective())
        self._stack.append(clipped)
        return clipped

    def pop(self) -> float:
        """Pop and return the most recent deadline."""
        return self._stack.pop()

    def effective(self) -> float:
        """The earliest active deadline, or ``UNBOUNDED`` if none."""
        return self._stack[-1] if self._stack else UNBOUNDED

    def expired(self, now: float) -> bool:
        """True if the effective deadline has passed at time ``now``."""
        return now >= self.effective()

    def remaining(self, now: float) -> float:
        """Seconds until the effective deadline (may be negative or inf)."""
        return self.effective() - now

    def clip(self, duration: float, now: float) -> float:
        """Clip a desired sleep/timeout ``duration`` to the effective
        deadline; never negative."""
        return max(0.0, min(duration, self.remaining(now)))

    def __len__(self) -> int:
        return len(self._stack)

    def __iter__(self) -> Iterator[float]:
        return iter(self._stack)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DeadlineStack({self._stack!r})"


class AttemptBudget:
    """The retry budget of one ``try`` construct.

    A ``try`` may be limited by a time window, an attempt count, or both
    ("``try for 1 hour or 3 times``" — whichever expires first).  The
    budget answers one question: *may another attempt begin?*
    """

    __slots__ = ("deadline", "max_attempts", "attempts")

    def __init__(self, deadline: float = UNBOUNDED, max_attempts: int | None = None) -> None:
        if max_attempts is not None and max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.deadline = deadline
        self.max_attempts = max_attempts
        self.attempts = 0

    def start_attempt(self) -> None:
        """Record that an attempt is beginning."""
        self.attempts += 1

    def may_retry(self, now: float) -> bool:
        """True if another attempt may begin at time ``now``."""
        if self.max_attempts is not None and self.attempts >= self.max_attempts:
            return False
        return now < self.deadline

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AttemptBudget(deadline={self.deadline!r}, "
            f"max_attempts={self.max_attempts!r}, attempts={self.attempts})"
        )
