"""The structured execution log."""

from repro.core.shell_log import EventKind, LogEvent, ShellLog


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestRecording:
    def test_events_stamped_by_clock(self):
        log = ShellLog(clock=FakeClock())
        log.record(EventKind.COMMAND_START, "wget")
        log.record(EventKind.COMMAND_END, "wget")
        assert [e.time for e in log.events] == [1.0, 2.0]

    def test_default_clock_is_zero(self):
        log = ShellLog()
        log.record(EventKind.COMMAND_START)
        assert log.events[0].time == 0.0

    def test_counts(self):
        log = ShellLog()
        for _ in range(3):
            log.record(EventKind.TRY_BACKOFF)
        log.record(EventKind.TRY_ATTEMPT)
        assert log.count(EventKind.TRY_BACKOFF) == 3
        assert log.backoff_initiations() == 3
        assert log.counts()[EventKind.TRY_ATTEMPT] == 1

    def test_of_kind(self):
        log = ShellLog()
        log.record(EventKind.COMMAND_START, "a")
        log.record(EventKind.TRY_ATTEMPT, "b")
        log.record(EventKind.COMMAND_START, "c")
        details = [e.detail for e in log.of_kind(EventKind.COMMAND_START)]
        assert details == ["a", "c"]

    def test_len(self):
        log = ShellLog()
        log.record(EventKind.ASSIGNMENT)
        assert len(log) == 1


class TestCap:
    def test_events_dropped_past_cap(self):
        log = ShellLog(max_events=2)
        for i in range(5):
            log.record(EventKind.ASSIGNMENT, str(i))
        assert len(log) == 2
        assert log.dropped == 3

    def test_summary_mentions_drops(self):
        log = ShellLog(max_events=1)
        log.record(EventKind.ASSIGNMENT)
        log.record(EventKind.ASSIGNMENT)
        assert "dropped" in log.summary()

    def test_counts_stay_exact_past_the_cap(self):
        """The overload alarm must not saturate with the log: every
        count of a capped log equals the uncapped log's, at any level."""
        from repro.core.shell_log import LOG_COMMANDS, LOG_TRACE

        for level in (LOG_COMMANDS, LOG_TRACE):
            capped = ShellLog(max_events=5, level=level)
            uncapped = ShellLog(level=level)
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
                       == sum(1 for _ in uncapped.of_kind(kind))
                       for kind in EventKind)


class TestRendering:
    def test_summary_lists_kinds(self):
        log = ShellLog()
        log.record(EventKind.TRY_BACKOFF, "x")
        text = log.summary()
        assert "try-backoff" in text

    def test_dump_one_line_per_event(self):
        log = ShellLog()
        log.record(EventKind.COMMAND_START, "wget url")
        log.record(EventKind.COMMAND_END, "wget")
        assert len(log.dump().splitlines()) == 2

    def test_event_str(self):
        event = LogEvent(1.5, EventKind.COMMAND_START, "wget")
        assert "command-start" in str(event)
        assert "wget" in str(event)


class TestVerbosityLevels:
    def test_results_level_keeps_only_results(self):
        from repro.core.shell_log import LOG_RESULTS

        log = ShellLog(level=LOG_RESULTS)
        log.record(EventKind.COMMAND_START)
        log.record(EventKind.TRY_BACKOFF)
        log.record(EventKind.SCRIPT_RESULT)
        assert [e.kind for e in log.events] == [EventKind.SCRIPT_RESULT]

    def test_commands_level_keeps_overload_signal(self):
        from repro.core.shell_log import LOG_COMMANDS

        log = ShellLog(level=LOG_COMMANDS)
        log.record(EventKind.TRY_BACKOFF)     # administrator signal: kept
        log.record(EventKind.TRY_ATTEMPT)     # per-attempt trace: dropped
        assert log.backoff_initiations() == 1
        assert log.count(EventKind.TRY_ATTEMPT) == 0

    def test_trace_is_default_and_keeps_everything(self):
        log = ShellLog()
        for kind in EventKind:
            log.record(kind)
        assert len(log) == len(list(EventKind))

    def test_filtered_events_do_not_count_as_dropped(self):
        from repro.core.shell_log import LOG_RESULTS

        log = ShellLog(level=LOG_RESULTS, max_events=1)
        log.record(EventKind.TRY_ATTEMPT)
        assert log.dropped == 0
