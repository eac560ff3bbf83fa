"""The clock abstraction: one instrumentation layer, two notions of time.

A clock is simply a zero-argument callable returning seconds as a float.
The interpreter is sans-IO and never reads a clock itself; whoever owns
the run installs the right one:

* the real runtime installs :func:`wall_clock` semantics via
  ``RealDriver.now`` (monotonic seconds since driver creation);
* the simulation installs :func:`engine_clock` (the virtual ``engine.now``).

This mirrors how :class:`~repro.core.shell_log.ShellLog` already stamps
events, so spans and log lines agree on what "now" means
within one run.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Engine

#: A source of "now", in seconds.  Monotone within one run.
Clock = Callable[[], float]


def zero_clock() -> float:
    """The default clock before a driver installs one: always 0.0."""
    return 0.0


def wall_clock(origin: float | None = None) -> Clock:
    """Monotonic wall-clock seconds since ``origin`` (default: now)."""
    start = time.monotonic() if origin is None else origin
    return lambda: time.monotonic() - start


def engine_clock(engine: "Engine") -> Clock:
    """The virtual clock of a simulation engine."""
    return lambda: engine.now
