"""The structured execution log."""

from repro.core.shell_log import (
    LOG_RESULTS,
    LOG_TRACE,
    TRANSCRIPT_EVENTS,
    EventKind,
    LogEvent,
    ShellLog,
)


def transcript(**kwargs):
    """A log that keeps every event, at every level."""
    return ShellLog(max_events=TRANSCRIPT_EVENTS, level=LOG_TRACE, **kwargs)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestRecording:
    def test_events_stamped_by_clock(self):
        log = transcript(clock=FakeClock())
        log.record(EventKind.COMMAND_START, "wget")
        log.record(EventKind.COMMAND_END, "wget")
        assert [e.time for e in log.events] == [1.0, 2.0]

    def test_default_clock_is_zero(self):
        log = transcript()
        log.record(EventKind.COMMAND_START)
        assert log.events[0].time == 0.0

    def test_counts(self):
        log = ShellLog(level=LOG_TRACE)
        for _ in range(3):
            log.record(EventKind.TRY_BACKOFF)
        log.record(EventKind.TRY_ATTEMPT)
        assert log.count(EventKind.TRY_BACKOFF) == 3
        assert log.backoff_initiations() == 3
        assert log.counts()[EventKind.TRY_ATTEMPT] == 1

    def test_len(self):
        log = transcript()
        log.record(EventKind.ASSIGNMENT)
        assert len(log) == 1


class TestCap:
    def test_events_dropped_past_cap(self):
        log = ShellLog(max_events=2, level=LOG_TRACE)
        for i in range(5):
            log.record(EventKind.ASSIGNMENT, str(i))
        assert len(log) == 2
        assert log.dropped == 3

    def test_summary_mentions_drops(self):
        log = ShellLog(max_events=1, level=LOG_TRACE)
        log.record(EventKind.ASSIGNMENT)
        log.record(EventKind.ASSIGNMENT)
        assert "dropped" in log.summary()

    def test_counts_stay_exact_past_the_cap(self):
        """The overload alarm must not saturate with the log: every
        count of a capped log equals the uncapped log's, at any level."""
        from repro.core.shell_log import LOG_COMMANDS, LOG_TRACE

        for level in (LOG_COMMANDS, LOG_TRACE):
            capped = ShellLog(max_events=5, level=level)
            uncapped = ShellLog(max_events=TRANSCRIPT_EVENTS, level=level)
            for kind in list(EventKind) * 7:
                capped.record(kind)
                uncapped.record(kind)
            assert len(capped) == 5
            assert capped.dropped == len(uncapped) - 5
            assert capped.counts() == uncapped.counts()
            assert all(capped.count(kind) == uncapped.count(kind)
                       for kind in EventKind)
            assert capped.backoff_initiations() == 7
            # The uncapped tally is what a scan of the events would say.
            assert all(uncapped.count(kind)
                       == sum(1 for e in uncapped.events if e.kind is kind)
                       for kind in EventKind)

    def test_zero_cap_keeps_nothing_and_counts_everything(self):
        """``max_events=0`` is a counter: no event is stored, and every
        count equals an uncapped log's at every level."""
        from repro.core.shell_log import LOG_COMMANDS, LOG_RESULTS, LOG_TRACE

        for level in (LOG_RESULTS, LOG_COMMANDS, LOG_TRACE):
            counter = ShellLog(max_events=0, level=level)
            uncapped = ShellLog(max_events=TRANSCRIPT_EVENTS, level=level)
            for kind in list(EventKind) * 3:
                counter.record(kind, "detail")
                uncapped.record(kind, "detail")
            assert len(counter) == 0
            assert counter.dropped == len(uncapped) > 0
            assert counter.counts() == uncapped.counts()
            assert all(counter.count(kind) == uncapped.count(kind)
                       for kind in EventKind)
            assert counter.backoff_initiations() == 3


class TestRendering:
    def test_summary_lists_kinds(self):
        log = ShellLog()
        log.record(EventKind.TRY_BACKOFF, "x")
        text = log.summary()
        assert "try-backoff" in text

    def test_dump_one_line_per_event(self):
        log = transcript()
        log.record(EventKind.COMMAND_START, "wget url")
        log.record(EventKind.COMMAND_END, "wget")
        assert len(log.dump().splitlines()) == 2

    def test_event_str(self):
        event = LogEvent(1.5, EventKind.COMMAND_START, "wget")
        assert "command-start" in str(event)
        assert "wget" in str(event)


class TestVerbosityLevels:
    def test_results_level_keeps_results_and_backoffs(self):
        """The results tier is the script's result plus the paper's
        overload alarm (§5): nothing per command, nothing per attempt."""
        from repro.core.shell_log import LOG_RESULTS

        log = ShellLog(level=LOG_RESULTS, max_events=TRANSCRIPT_EVENTS)
        for kind in EventKind:
            log.record(kind)
        assert [e.kind for e in log.events] == [
            EventKind.TRY_BACKOFF, EventKind.SCRIPT_RESULT]

    def test_commands_level_keeps_overload_signal(self):
        from repro.core.shell_log import LOG_COMMANDS

        log = ShellLog(level=LOG_COMMANDS)
        log.record(EventKind.TRY_BACKOFF)     # administrator signal: kept
        log.record(EventKind.TRY_ATTEMPT)     # per-attempt trace: dropped
        assert log.backoff_initiations() == 1
        assert log.count(EventKind.TRY_ATTEMPT) == 0

    def test_trace_keeps_everything(self):
        log = transcript()
        for kind in EventKind:
            log.record(kind)
        assert len(log) == len(list(EventKind))

    def test_the_default_is_a_counter_at_the_results_tier(self):
        """A log nobody configured keeps no event and counts the
        results tier: the script's result and the overload alarm."""
        log = ShellLog()
        for kind in list(EventKind) * 2:
            log.record(kind, "detail")
        assert (log.max_events, log.level) == (0, LOG_RESULTS)
        assert len(log) == 0 and log.dump() == ""
        assert log.counts() == {EventKind.TRY_BACKOFF: 2,
                                EventKind.SCRIPT_RESULT: 2}
        assert log.backoff_initiations() == 2

    def test_a_counter_claims_no_drops(self):
        """A counter keeps nothing by design, so its summary never says
        it dropped events past a cap; a capped transcript still does."""
        counter = ShellLog(level=LOG_TRACE)
        capped = ShellLog(max_events=1, level=LOG_TRACE)
        for kind in EventKind:
            counter.record(kind)
            capped.record(kind)
        assert counter.dropped == capped.dropped + 1 == len(EventKind)
        assert "dropped" not in counter.summary()
        assert f"dropped {len(EventKind) - 1} events" in capped.summary()
        assert (counter.summary().splitlines()
                == capped.summary().splitlines()[:-1])

    def test_filtered_events_do_not_count_as_dropped(self):
        from repro.core.shell_log import LOG_RESULTS

        log = ShellLog(level=LOG_RESULTS, max_events=1)
        log.record(EventKind.TRY_ATTEMPT)
        assert log.dropped == 0
