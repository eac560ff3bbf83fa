"""A kernel file-descriptor table with exhaustion semantics.

The paper's first scenario turns on an *unmanaged* resource: "the source
of failures is frequently in some prosaic unmanaged resource such as free
file descriptors".  Unlike disk quota or CPU shares, the FD table is not
a queued resource — an ``open()``/``socket()`` with no free slot fails
immediately with EMFILE/ENFILE.  :class:`FDTable` therefore only offers
non-blocking allocation.

The Ethernet carrier-sense probe in Figure 1's script reads the free
count the way Linux exposes it (``/proc/sys/fs/file-nr``); see
:func:`repro.grid.condor.register_condor_commands`.
"""

from __future__ import annotations

from ..core.errors import SimulationError
from ..faults.config import validate_at_least, validate_non_negative
from ..sim.engine import Engine
from ..sim.monitor import TimeSeries


class FDTable:
    """System-wide file descriptor accounting."""

    def __init__(self, engine: Engine, capacity: int = 8192) -> None:
        validate_at_least("fd capacity", capacity, 1)
        self.engine = engine
        self.capacity = capacity
        self._used = 0
        #: Failed allocations (EMFILE events).
        self.failures = 0
        #: Peak simultaneous usage, for post-run analysis.
        self.peak_used = 0
        #: Optional recording of the free count at every change.
        self.series: TimeSeries | None = None

    @property
    def used(self) -> int:
        return self._used

    @property
    def free(self) -> int:
        return self.capacity - self._used

    def allocate(self, count: int) -> bool:
        """Claim ``count`` descriptors now; False (EMFILE) if unavailable."""
        validate_non_negative("fd allocation", count)
        if self._used + count > self.capacity:
            self.failures += 1
            return False
        self._used += count
        if self._used > self.peak_used:
            self.peak_used = self._used
        self._note()
        return True

    def refuses(self, count: int) -> bool:
        """True — counted as a failed allocation — if ``count`` would not
        fit now.  Claims nothing."""
        validate_non_negative("fd allocation", count)
        if self._used + count > self.capacity:
            self.failures += 1
            return True
        return False

    def release(self, count: int) -> None:
        """Return ``count`` descriptors."""
        validate_non_negative("fd release", count)
        if count > self._used:
            raise SimulationError(
                f"releasing {count} fds but only {self._used} are in use"
            )
        self._used -= count
        self._note()

    def _note(self) -> None:
        if self.series is not None:
            self.series.record(self.engine.now, self.free)
