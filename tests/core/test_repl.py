"""The interactive REPL: multi-line entry, persistent state, directives."""

import io

import pytest

from repro.core.backoff import BackoffPolicy
from repro.core.realruntime import RealDriver
from repro.repl import Repl
from repro.tokens_depth import block_depth

FAST = BackoffPolicy(base=0.05, factor=2.0, ceiling=0.2,
                     jitter_low=1.0, jitter_high=1.0)


def run_session(text):
    stdin = io.StringIO(text)
    stdout = io.StringIO()
    repl = Repl(driver=RealDriver(term_grace=0.2), policy=FAST,
                stdin=stdin, stdout=stdout, prompt=False)
    code = repl.run()
    return code, stdout.getvalue(), repl


class TestBlockDepth:
    @pytest.mark.parametrize(
        "text,depth",
        [
            ("echo hi", 0),
            ("try 5 times", 1),
            ("try 5 times\n  cmd\nend", 0),
            ("try 5 times\n  forany x in a b", 2),
            ("if ${x} .lt. 1\n  cmd\nelse", 1),
            ("function f", 1),
            ("echo try", 0),            # keyword not in statement position
            ("end", -1),                 # stray end goes negative
            ("try 5 times # end", 1),    # comment does not close
        ],
    )
    def test_depth(self, text, depth):
        assert block_depth(text) == depth


class TestSessions:
    def test_single_statements(self):
        code, output, _ = run_session("x=1\necho ${x} -> y\n")
        assert code == 0
        assert output.count("ok") == 2

    def test_multiline_construct(self):
        code, output, repl = run_session(
            "try 2 times\n  sh -c 'exit 0'\nend\n"
        )
        assert code == 0
        assert "ok" in output

    def test_state_persists(self):
        code, output, repl = run_session(
            "x=persist\n"
            "echo ${x} -> out\n"
        )
        assert repl.scope.get("out") == "persist"

    def test_functions_persist(self):
        code, output, repl = run_session(
            "function f\n  echo from-f -> v\nend\n"
            "f\n"
        )
        assert code == 0
        assert repl.scope.get("v") == "from-f"

    def test_failure_reported(self):
        code, output, _ = run_session("failure\n")
        assert "failed:" in output

    def test_syntax_error_reported_and_recovers(self):
        code, output, _ = run_session("cmd ${9bad}\nx=1\n")
        assert "syntax error" in output
        assert "ok" in output  # the next entry still ran

    def test_nest_too_deep_to_parse_keeps_the_session(self):
        # Straight into execute(): the line reader re-lexes the whole
        # entry per line, minutes for the 8,001 lines of this one.
        depth = 4000
        _, _, repl = run_session("")
        nest = "try 2 times\n" * depth + "cmd\n" + "end\n" * depth
        assert repl.execute(nest) is False
        assert ("syntax error: nesting too deep to parse"
                in repl.stdout.getvalue())
        assert repl.execute("x=1\n") is True  # the next entry still runs

    def test_eof_exits_cleanly(self):
        code, output, _ = run_session("")
        assert code == 0


class TestDirectives:
    def test_quit(self):
        code, output, _ = run_session(":q\nx=never\n")
        assert code == 0
        assert "ok" not in output

    def test_vars(self):
        _, output, _ = run_session("a=1\n:vars\n:q\n")
        assert "a='1'" in output

    def test_log_summary(self):
        _, output, _ = run_session("a=1\n:log\n:q\n")
        assert "execution log summary" in output

    def test_analyze(self):
        _, output, _ = run_session("sh -c 'exit 0'\n:analyze\n:q\n")
        assert "post-mortem" in output

    def test_help_and_unknown(self):
        _, output, _ = run_session(":help\n:wat\n:q\n")
        assert ":vars" in output
        assert "unknown directive" in output


class TestCliFlag:
    def test_interactive_flag(self, monkeypatch, capsys):
        import sys

        from repro.cli import main

        monkeypatch.setattr(sys, "stdin", io.StringIO("x=1\n:q\n"))
        assert main(["-i"]) == 0
