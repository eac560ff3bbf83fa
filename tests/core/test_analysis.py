"""Post-mortem log analysis."""

import pytest

from repro.core.analysis import CommandStats, analyze
from repro.core.backoff import BackoffPolicy
from repro.core.shell_log import LOG_TRACE, TRANSCRIPT_EVENTS, ShellLog
from repro.sim import Engine
from repro.simruntime import CommandRegistry, SimFtsh

DETERMINISTIC = BackoffPolicy(jitter_low=1.0, jitter_high=1.0)


def run_script(script, **registry_cmds):
    engine = Engine()
    registry = CommandRegistry()
    for name, handler in registry_cmds.items():
        registry.add(name, handler)
    log = ShellLog(clock=lambda: engine.now, max_events=TRANSCRIPT_EVENTS,
                   level=LOG_TRACE)
    shell = SimFtsh(engine, registry, policy=DETERMINISTIC, log=log)
    shell.run(script)
    return analyze(log)


class TestCommandStats:
    def test_success_counting(self):
        analysis = run_script("echo a\necho b\ntrue")
        assert analysis.commands["echo"].runs == 2
        assert analysis.commands["echo"].succeeded == 2
        assert analysis.commands["true"].runs == 1

    def test_failure_rate(self):
        analysis = run_script("try 4 times\n  false\nend")
        stats = analysis.commands["false"]
        assert stats.runs == 4
        assert stats.failed == 4
        assert stats.failure_rate == 1.0

    def test_timeout_counting(self):
        def hang(ctx):
            yield ctx.engine.timeout(1e9)
            return 0

        analysis = run_script("try for 10 seconds\n  hang\nend", hang=hang)
        assert analysis.commands["hang"].timed_out == 1

    def test_durations_virtual(self):
        def slow(ctx):
            yield ctx.engine.timeout(7.0)
            return 0

        analysis = run_script("slow\nslow", slow=slow)
        assert analysis.commands["slow"].mean_duration == pytest.approx(7.0)

    def test_empty_stats(self):
        stats = CommandStats("x")
        assert stats.failure_rate == 0.0
        assert stats.mean_duration == 0.0


class TestTryAndBackoff:
    def test_attempt_accounting(self):
        analysis = run_script("try 3 times\n  false\nend")
        assert analysis.try_attempts == 3
        assert analysis.try_exhaustions == 1
        assert analysis.try_successes == 0

    def test_backoff_totals(self):
        analysis = run_script("try 4 times\n  false\nend")
        # deterministic jitter 1.0: delays 1 + 2 + 4 = 7
        assert analysis.backoff_count == 3
        assert analysis.backoff_total_wait == pytest.approx(7.0)
        assert analysis.backoff_max_wait == pytest.approx(4.0)

    def test_overload_signal(self):
        quiet = run_script("echo calm")
        assert not quiet.overloaded
        noisy = run_script("try 2 times\n  false\nend")
        assert noisy.overloaded

    def test_overload_needs_a_backoff_not_just_a_failure(self):
        """One failed attempt with no retry sleeps is not overload."""
        analysis = run_script("try 1 times\n  false\ncatch\n  success\nend")
        assert analysis.backoff_count == 0
        assert not analysis.overloaded

    def test_overload_from_succeeding_retries(self):
        """Backoffs count even when the try eventually succeeds (§5: the
        signal is contention, not final failure)."""
        state = {"calls": 0}

        def flaky(ctx):
            state["calls"] += 1
            return 0 if state["calls"] >= 3 else 1
            yield  # pragma: no cover

        analysis = run_script("try 5 times\n  flaky\nend", flaky=flaky)
        assert analysis.try_successes == 1
        assert analysis.backoff_count == 2
        assert analysis.overloaded

    def test_backoff_totals_respect_ceiling(self):
        """Waits are the *clipped* delays the client actually slept."""
        analysis = run_script("try 6 times every 1 second\n  false\nend")
        # `every`: five fixed 1 s waits, never exponential
        assert analysis.backoff_count == 5
        assert analysis.backoff_total_wait == pytest.approx(5.0)
        assert analysis.backoff_max_wait == pytest.approx(1.0)

    def test_catch_counted(self):
        analysis = run_script("try 1 times\n  false\ncatch\n  success\nend")
        assert analysis.catches_entered == 1


class TestBranchesAndResults:
    def test_forany_frequencies(self):
        def match(ctx):
            return 0 if ctx.args[0] == "c" else 1
            yield  # pragma: no cover

        analysis = run_script(
            "forany x in a b c\n  match ${x}\nend", match=match
        )
        assert analysis.branch_picks == {"x=a": 1, "x=b": 1, "x=c": 1}

    def test_script_results(self):
        analysis = run_script("failure")
        assert analysis.script_results == {"failure": 1}

    def test_report_text(self):
        analysis = run_script("try 2 times\n  false\nend")
        text = analysis.report()
        assert "OVERLOAD SIGNAL" in text
        assert "false" in text
        assert "backoff" in text

    def test_report_quiet_run(self):
        analysis = run_script("echo hi")
        text = analysis.report()
        assert "OVERLOAD" not in text


class TestNeedsATranscript:
    def test_a_counter_is_refused_not_reported_empty(self):
        """The default log keeps no event, so an analysis of it would
        read as a quiet run however loud the run was."""
        shell = SimFtsh(Engine(), CommandRegistry(), policy=DETERMINISTIC)
        shell.run("try 2 times\n  false\nend")
        assert shell.log.backoff_initiations() == 1
        with pytest.raises(ValueError, match="transcript"):
            analyze(shell.log)
