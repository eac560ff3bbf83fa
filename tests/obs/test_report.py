"""The post-mortem report: span stats, digests, rendered reports."""

import pytest

from repro.core.backoff import BackoffPolicy
from repro.obs.api import Observability
from repro.obs.exporters import read_spans_jsonl, write_spans_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    SpanTally,
    digest,
    main,
    render_report,
    span_stats,
)
from repro.obs.spans import STATUS_FAILED, STATUS_OK, STATUS_TIMEOUT, Tracer
from repro.sim import Engine
from repro.simruntime import CommandRegistry, SimFtsh

DETERMINISTIC = BackoffPolicy(jitter_low=1.0, jitter_high=1.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def build_trace():
    """script > try > 2 attempts (+1 command each) + 1 backoff."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    root = tracer.start("script", "script")
    trial = tracer.start("try", "try", parent=root, line=1)
    for index, status in enumerate((STATUS_FAILED, STATUS_OK)):
        attempt = tracer.start(f"attempt:{index + 1}", "attempt", parent=trial)
        cmd = tracer.start("command:sh", "command", parent=attempt)
        clock.now += 1.0 + index  # commands take 1 s then 2 s
        tracer.finish(cmd, status)
        tracer.finish(attempt, status)
        if status == STATUS_FAILED:
            sleep = tracer.start("backoff:1", "backoff", parent=trial,
                                 delay=4.0)
            clock.now += 4.0
            tracer.finish(sleep, STATUS_OK)
    tracer.finish(trial, STATUS_OK)
    tracer.finish(root, STATUS_OK)
    return tracer


class TestSpanStats:
    def test_counts_by_kind(self):
        stats = span_stats(build_trace())
        assert stats["attempt"].count == 2
        assert stats["attempt"].ok == 1
        assert stats["attempt"].failed == 1
        assert stats["command"].count == 2
        assert stats["backoff"].count == 1

    def test_durations(self):
        stats = span_stats(build_trace())
        assert stats["command"].total_duration == pytest.approx(3.0)
        assert stats["command"].mean_duration == pytest.approx(1.5)
        assert stats["command"].max_duration == pytest.approx(2.0)

    def test_timeout_bucket(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        span = tracer.start("command:slow", "command")
        tracer.finish(span, STATUS_TIMEOUT)
        assert span_stats(tracer)["command"].timeout == 1

    def test_empty(self):
        assert span_stats(Tracer()) == {}


class TestDigest:
    def test_slowest_commands_ranked(self):
        trace = digest(build_trace())
        assert [s.duration for s in trace.slowest_commands] == [2.0, 1.0]

    def test_deepest_tries(self):
        trace = digest(build_trace())
        ((span, attempts),) = trace.deepest_tries
        assert span.kind == "try"
        assert attempts == 2

    def test_backoff_totals(self):
        trace = digest(build_trace())
        assert trace.backoff_initiations == 1
        assert trace.backoff_total_wait == pytest.approx(4.0)

    def test_limit(self):
        trace = digest(build_trace(), limit=1)
        assert len(trace.slowest_commands) == 1


class TestRenderReport:
    def test_sections_present(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total").inc(3)
        registry.gauge("free_fds").set(9)
        hist = registry.histogram("wait_seconds")
        hist.observe(1.0)
        text = render_report(tracer=build_trace(), registry=registry)
        assert "ftsh telemetry report" in text
        assert "OVERLOAD SIGNAL" in text  # one backoff initiation
        assert "slowest commands" in text
        assert "deepest tries" in text
        assert "jobs_total = 3" in text
        assert "free_fds = 9" in text
        assert "wait_seconds count=1" in text

    def test_quiet_run_has_no_overload(self):
        tracer = Tracer()
        span = tracer.start("script", "script")
        tracer.finish(span, STATUS_OK)
        assert "OVERLOAD" not in render_report(tracer=tracer)

    def test_works_on_plain_span_lists(self):
        spans = list(build_trace())
        assert "spans (kind" in render_report(tracer=spans)


class TestMain:
    def test_summarizes_archived_log(self, tmp_path, capsys):
        path = str(tmp_path / "run.spans.jsonl")
        write_spans_jsonl(build_trace(), path)
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "ftsh telemetry report" in out
        assert "command" in out

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/run.spans.jsonl"]) == 2
        assert "cannot read" in capsys.readouterr().err


def run_script(script, **registry_cmds):
    """Run ``script`` in virtual time; the run's telemetry."""
    engine = Engine()
    registry = CommandRegistry()
    for name, handler in registry_cmds.items():
        registry.add(name, handler)
    obs = Observability()
    SimFtsh(engine, registry, policy=DETERMINISTIC, obs=obs).run(script)
    return obs


def run_digest(script, **registry_cmds):
    return digest(run_script(script, **registry_cmds).tracer)


class TestCommandTable:
    def test_success_counting(self):
        trace = run_digest("echo a\necho b\ntrue")
        assert trace.commands["echo"].count == 2
        assert trace.commands["echo"].ok == 2
        assert trace.commands["true"].count == 1

    def test_failure_rate(self):
        stats = run_digest("try 4 times\n  false\nend").commands["false"]
        assert stats.count == 4
        assert stats.failed == 4
        assert stats.failure_rate == 1.0

    def test_timeout_counting(self):
        def hang(ctx):
            yield ctx.engine.timeout(1e9)
            return 0

        trace = run_digest("try for 10 seconds\n  hang\nend", hang=hang)
        assert trace.commands["hang"].timeout == 1
        assert trace.commands["hang"].failure_rate == 1.0

    def test_durations_virtual(self):
        def slow(ctx):
            yield ctx.engine.timeout(7.0)
            return 0

        trace = run_digest("slow\nslow", slow=slow)
        assert trace.commands["slow"].mean_duration == pytest.approx(7.0)

    def test_empty_tally(self):
        stats = SpanTally("x")
        assert stats.failure_rate == 0.0
        assert stats.mean_duration == 0.0


class TestTryAndBackoff:
    def test_attempt_accounting(self):
        kinds = run_digest("try 3 times\n  false\nend").kinds
        assert kinds["attempt"].count == 3
        assert kinds["attempt"].failed == 3
        assert (kinds["try"].count, kinds["try"].failed) == (1, 1)

    def test_backoff_totals(self):
        obs = run_script("try 4 times\n  false\nend")
        trace = digest(obs.tracer)
        # deterministic jitter 1.0: delays 1 + 2 + 4 = 7
        assert trace.backoff_initiations == 3
        assert trace.backoff_total_wait == pytest.approx(7.0)
        assert trace.backoff_max_wait == pytest.approx(4.0)
        assert "total_wait=7.000s max_wait=4.000s" in render_report(obs.tracer)

    def test_overload_signal(self):
        assert "OVERLOAD" not in render_report(run_script("echo calm").tracer)
        noisy = run_script("try 2 times\n  false\nend")
        assert "OVERLOAD SIGNAL" in render_report(noisy.tracer)

    def test_overload_needs_a_backoff_not_just_a_failure(self):
        """One failed attempt with no retry sleeps is not overload."""
        obs = run_script("try 1 times\n  false\ncatch\n  success\nend")
        assert digest(obs.tracer).backoff_initiations == 0
        assert "OVERLOAD" not in render_report(obs.tracer)

    def test_overload_from_succeeding_retries(self):
        """Backoffs count even when the try eventually succeeds (§5: the
        signal is contention, not final failure)."""
        state = {"calls": 0}

        def flaky(ctx):
            state["calls"] += 1
            return 0 if state["calls"] >= 3 else 1
            yield  # pragma: no cover

        obs = run_script("try 5 times\n  flaky\nend", flaky=flaky)
        trace = digest(obs.tracer)
        assert trace.kinds["try"].ok == 1
        assert trace.backoff_initiations == 2
        assert "OVERLOAD SIGNAL" in render_report(obs.tracer)

    def test_backoff_totals_respect_ceiling(self):
        """Waits are the *clipped* delays the client actually slept."""
        trace = run_digest("try 6 times every 1 second\n  false\nend")
        # `every`: five fixed 1 s waits, never exponential
        assert trace.backoff_initiations == 5
        assert trace.backoff_total_wait == pytest.approx(5.0)
        assert trace.backoff_max_wait == pytest.approx(1.0)

    def test_catch_counted(self):
        trace = run_digest("try 1 times\n  false\ncatch\n  success\nend")
        assert trace.kinds["catch"].count == 1


class TestBranchesAndResults:
    def test_forany_frequencies(self):
        def match(ctx):
            return 0 if ctx.args[0] == "c" else 1
            yield  # pragma: no cover

        obs = run_script("forany x in a b c\n  match ${x}\nend", match=match)
        assert digest(obs.tracer).forany_picks == {"x=a": 1, "x=b": 1, "x=c": 1}
        text = render_report(obs.tracer)
        assert "forany picks (var=value times):" in text
        assert [line.split() for line in text.splitlines()
                if line.strip().startswith("x=")] == [
                    ["x=a", "1"], ["x=b", "1"], ["x=c", "1"]]

    def test_script_results(self):
        script = run_digest("failure").kinds["script"]
        assert (script.count, script.failed) == (1, 1)

    def test_report_text(self):
        text = render_report(run_script("try 2 times\n  false\nend").tracer)
        assert "OVERLOAD SIGNAL" in text
        assert "backoff" in text
        assert "commands (name runs ok fail timeout fail% mean-s):" in text
        row = next(line for line in text.splitlines()
                   if line.split()[:1] == ["false"])
        assert row.split()[1:6] == ["2", "0", "2", "0", "100.0"]

    def test_report_quiet_run(self):
        text = render_report(run_script("echo hi").tracer)
        assert "OVERLOAD" not in text
        assert "forany picks" not in text


class TestReadsSpansNotTheLog:
    def test_a_counter_log_still_gets_a_full_report(self):
        """The default log keeps no event; the spans still hold the run."""
        obs = Observability()
        shell = SimFtsh(Engine(), CommandRegistry(), policy=DETERMINISTIC,
                        obs=obs)
        shell.run("try 2 times\n  false\nend")
        assert shell.log.max_events == 0 and not shell.log.events
        trace = digest(obs.tracer)
        assert trace.kinds["attempt"].count == 2
        assert trace.backoff_initiations == shell.log.backoff_initiations()

    def test_live_and_reloaded_spans_render_alike(self, tmp_path):
        """``--analyze`` live and ``python -m repro.obs.report`` on the
        run's span file print the same span sections."""
        def match(ctx):
            return 0 if ctx.args[0] == "b" else 1
            yield  # pragma: no cover

        obs = run_script(
            "forany x in a b\n  try 3 times\n    match ${x}\n  end\nend",
            match=match)
        path = str(tmp_path / "run.spans.jsonl")
        write_spans_jsonl(obs.tracer, path)
        live = render_report(tracer=obs.tracer)
        assert render_report(tracer=read_spans_jsonl(path)) == live
        assert "x=b" in live and "max_wait=" in live
