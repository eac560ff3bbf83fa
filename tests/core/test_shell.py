"""The Ftsh front-end: parse/run API, inherited deadlines, results."""

import os
import time

import pytest

from repro.core import Ftsh, FtshSyntaxError
from repro.core.backoff import BackoffPolicy
from repro.core.realruntime import DEADLINE_ENV, RealDriver
from repro.core.shell_log import (
    LOG_TRACE,
    TRANSCRIPT_EVENTS,
    EventKind,
    ShellLog,
)

FAST = BackoffPolicy(base=0.05, factor=2.0, ceiling=0.2,
                     jitter_low=1.0, jitter_high=1.0)


@pytest.fixture
def shell():
    return Ftsh(driver=RealDriver(term_grace=0.2), policy=FAST)


class TestParse:
    def test_parse_is_static(self):
        script = Ftsh.parse("echo hi")
        assert script.body.body

    def test_parse_error(self):
        with pytest.raises(FtshSyntaxError):
            Ftsh.parse("try 5 times\n  cmd\n")  # missing end

    def test_run_accepts_parsed_script(self, shell):
        script = Ftsh.parse("sh -c 'exit 0'")
        assert shell.run(script).success

    def test_run_accepts_text(self, shell):
        assert shell.run("sh -c 'exit 0'").success


class TestRunResult:
    def test_success_fields(self, shell):
        result = shell.run("x=1")
        assert result.success and bool(result)
        assert result.reason is None
        assert result.variables == {"x": "1"}
        assert result.elapsed >= 0.0
        assert not result.timed_out and not result.cancelled

    def test_failure_fields(self, shell):
        result = shell.run("failure")
        assert not result.success and not bool(result)
        assert result.reason

    def test_log_attached(self, shell):
        log = ShellLog(max_events=TRANSCRIPT_EVENTS, level=LOG_TRACE)
        result = shell.run("x=1", log=log)
        assert result.log is log
        assert len(result.log.events) > 0

    def test_each_run_gets_a_fresh_counter(self, shell):
        first = shell.run("x=1").log
        second = shell.run("x=1").log
        assert first is not second
        assert len(first) == len(second) == 0
        assert first.count(EventKind.SCRIPT_RESULT) == 1

    def test_runs_are_isolated(self, shell):
        shell.run("x=1")
        result = shell.run("echo ${x}")
        assert not result.success  # x not carried across runs


class TestInheritedDeadline:
    def test_env_deadline_bounds_run(self, shell, monkeypatch):
        monkeypatch.setenv(DEADLINE_ENV, str(time.time() + 0.5))
        started = time.monotonic()
        result = shell.run("sleep 30")
        assert not result.success
        assert time.monotonic() - started < 5.0

    def test_expired_env_deadline(self, shell, monkeypatch):
        monkeypatch.setenv(DEADLINE_ENV, str(time.time() - 100))
        result = shell.run("sh -c 'exit 0'")
        assert not result.success
        assert result.timed_out

    def test_garbage_env_ignored(self, shell, monkeypatch):
        monkeypatch.setenv(DEADLINE_ENV, "not-a-number")
        assert shell.run("sh -c 'exit 0'").success

    def test_opt_out(self, monkeypatch):
        monkeypatch.setenv(DEADLINE_ENV, str(time.time() - 100))
        shell = Ftsh(driver=RealDriver(), policy=FAST, honor_deadline_env=False)
        assert shell.run("sh -c 'exit 0'").success
