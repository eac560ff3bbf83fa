"""Variable spooling: large values live on disk per user policy."""

import os

import pytest

from repro.core import Ftsh
from repro.core.backoff import BackoffPolicy
from repro.core.realruntime import RealDriver
from repro.core.variables import Scope, SpoolPolicy

FAST = BackoffPolicy(base=0.05, factor=2.0, ceiling=0.2,
                     jitter_low=1.0, jitter_high=1.0)


class TestScopeSpooling:
    def test_small_values_stay_in_memory(self, tmp_path):
        scope = Scope(spool=SpoolPolicy(str(tmp_path), threshold=100))
        scope.set("x", "small")
        assert scope.get("x") == "small"
        assert os.listdir(tmp_path) == []

    def test_large_values_hit_disk(self, tmp_path):
        scope = Scope(spool=SpoolPolicy(str(tmp_path), threshold=10))
        payload = "z" * 1000
        scope.set("big", payload)
        assert len(os.listdir(tmp_path)) == 1
        assert scope.get("big") == payload

    def test_children_inherit_policy(self, tmp_path):
        scope = Scope(spool=SpoolPolicy(str(tmp_path), threshold=10))
        child = scope.child()
        child.set("big", "w" * 50)
        assert len(os.listdir(tmp_path)) == 1
        assert child.get("big") == "w" * 50

    def test_flatten_reads_back(self, tmp_path):
        scope = Scope(spool=SpoolPolicy(str(tmp_path), threshold=10))
        scope.set("big", "v" * 50)
        scope.set("small", "s")
        flat = scope.flatten()
        assert flat["big"] == "v" * 50
        assert flat["small"] == "s"

    def test_overwrite_spilled_value(self, tmp_path):
        scope = Scope(spool=SpoolPolicy(str(tmp_path), threshold=10))
        scope.set("x", "a" * 50)
        scope.set("x", "short")
        assert scope.get("x") == "short"

    def test_no_policy_no_files(self, tmp_path):
        scope = Scope()
        scope.set("big", "q" * 10_000_000)
        assert scope.get("big") == "q" * 10_000_000


class TestShellIntegration:
    def test_capture_spools_large_output(self, tmp_path):
        shell = Ftsh(
            driver=RealDriver(term_grace=0.2),
            policy=FAST,
            spool=SpoolPolicy(str(tmp_path), threshold=100),
        )
        result = shell.run('sh -c "yes x | head -n 1000" -> big')
        assert result.success
        assert len(result.variables["big"]) >= 1900
        assert len(os.listdir(tmp_path)) == 1

    def test_spooled_value_usable_as_stdin(self, tmp_path):
        shell = Ftsh(
            driver=RealDriver(term_grace=0.2),
            policy=FAST,
            spool=SpoolPolicy(str(tmp_path), threshold=10),
        )
        result = shell.run(
            'sh -c "yes y | head -n 100" -> data\n'
            "cat -< data -> copy"
        )
        assert result.success
        assert result.variables["copy"] == result.variables["data"]


class TestLogLevelIntegration:
    def test_shell_log_level_forwarded(self):
        from repro.core.shell_log import (
            LOG_RESULTS,
            TRANSCRIPT_EVENTS,
            EventKind,
            ShellLog,
        )

        shell = Ftsh(driver=RealDriver(term_grace=0.2), policy=FAST)
        result = shell.run("sh -c 'exit 0'", log=ShellLog(
            max_events=TRANSCRIPT_EVENTS, level=LOG_RESULTS))
        kinds = {e.kind for e in result.log.events}
        assert kinds == {EventKind.SCRIPT_RESULT}

    def test_cli_log_level(self, tmp_path):
        from repro.cli import main

        log = tmp_path / "run.log"
        assert main(["--log-level", "results", "--log", str(log),
                     "-c", "sh -c 'exit 0'"]) == 0
        assert "command-start" not in log.read_text()

    def test_cli_spool_dir(self, tmp_path):
        from repro.cli import main

        spool = tmp_path / "spool"
        code = main([
            "--spool-dir", str(spool),
            "-c", 'sh -c "yes s | head -n 100000" -> huge',
        ])
        assert code == 0
        assert spool.exists() and len(os.listdir(spool)) == 1
