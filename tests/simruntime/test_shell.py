"""SimFtsh's default log: a shell nobody configured runs in bounded memory."""

import tracemalloc

from repro.core.backoff import BackoffPolicy
from repro.core.shell_log import EventKind
from repro.sim import Engine
from repro.simruntime import CommandRegistry, SimFtsh

#: A fixed 10 ms between attempts, so every attempt is a backoff.
EVERY_10MS = BackoffPolicy(base=0.01, factor=1.0, ceiling=0.01,
                           jitter_low=1.0, jitter_high=1.0)


def failing_retries(attempts):
    """Peak traced bytes and the log of ``attempts`` failed attempts."""
    shell = SimFtsh(Engine(), CommandRegistry(), policy=EVERY_10MS)
    shell.run("try 2 times\n  false\nend\n")  # parse, compile, warm up
    tracemalloc.start()
    try:
        result = shell.run(f"try {attempts} times\n  false\nend\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.reason == f"try exhausted after {attempts} attempts"
    return peak, shell.log


class TestDefaultLogIsBounded:
    def test_peak_memory_does_not_grow_with_the_attempts(self):
        """Ten times the attempts, within 64 KiB of the same peak.  A
        log that kept its events would grow by one ``LogEvent`` per
        record, four records per attempt (~6 MB more at 10,000)."""
        small, _ = failing_retries(1_000)
        large, log = failing_retries(10_000)
        assert large < small + 64 * 1024
        assert len(log) == 0
        # The alarm stays exact: the warm-up's backoff plus 9,999.
        assert log.backoff_initiations() == 10_000
        assert log.count(EventKind.SCRIPT_RESULT) == 2
