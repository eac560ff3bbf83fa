"""The interactive REPL: multi-line entry, persistent state, directives."""

import io

import pytest
from hypothesis import given, settings, strategies as st

import repro.repl
from repro.core.backoff import BackoffPolicy
from repro.core.errors import FtshSyntaxError
from repro.core.realruntime import RealDriver
from repro.repl import EntryDepth, Repl, block_depth

FAST = BackoffPolicy(base=0.05, factor=2.0, ceiling=0.2,
                     jitter_low=1.0, jitter_high=1.0)


def run_session(text):
    stdin = io.StringIO(text)
    stdout = io.StringIO()
    repl = Repl(driver=RealDriver(term_grace=0.2), policy=FAST,
                stdin=stdin, stdout=stdout, prompt=False)
    code = repl.run()
    return code, stdout.getvalue(), repl


DEPTH_CASES = [
    ("echo hi", 0),
    ("try 5 times", 1),
    ("try 5 times\n  cmd\nend", 0),
    ("try 5 times\n  forany x in a b", 2),
    ("if ${x} .lt. 1\n  cmd\nelse", 1),
    ("function f", 1),
    ("echo try", 0),            # keyword not in statement position
    ("end", -1),                 # stray end goes negative
    ("try 5 times # end", 1),    # comment does not close
]


class TestBlockDepth:
    @pytest.mark.parametrize("text,depth", DEPTH_CASES)
    def test_depth(self, text, depth):
        assert block_depth(text) == depth


def assert_incremental_depth_matches(text):
    """EntryDepth fed line by line agrees with block_depth(whole text so
    far) on every prefix: same depth, same open quote, same hard error."""
    entry = EntryDepth()
    lines = []
    for line in text.split("\n"):
        lines.append(line)
        try:
            expected = block_depth("\n".join(lines))
        except FtshSyntaxError as exc:
            if "unterminated" in str(exc):
                assert entry.feed(line) is False
                continue
            with pytest.raises(FtshSyntaxError):
                entry.feed(line)
            return  # the reader hands the entry to execute() here
        assert entry.feed(line) is True
        assert entry.depth == expected


#: Line shapes that stress the seam between physical lines: quotes and
#: ``${`` left open or closed mid-line, keywords in and out of statement
#: position, comments, separators, a dangling backslash.
LINE_SHAPES = [
    "try 5 times", "end", "echo hi", "", "  ", "else", "echo try",
    "forany x in a b", "if ${x} .lt. 1", "function f", "# end",
    "try 1 times # end", "x=1 ; end", "try 1 times ; cmd ; end",
    'echo "open', 'close" ; end', "echo 'it", "s' end", "end' try",
    'echo "a \\', "echo ${un", "closed}", "x}", "echo \\", "echo \\\\",
    'echo "', "'", '"', "end # '",
]


class TestIncrementalDepth:
    @pytest.mark.parametrize(
        "text",
        [text for text, _ in DEPTH_CASES] + [
            "x=1\necho ${x} -> y\n",
            "try 2 times\n  sh -c 'exit 0'\nend\n",
            "function f\n  echo from-f -> v\nend\nf\n",
            "cmd ${9bad}\nx=1\n",
            "echo 'a\nend\ntry' ; try 1 times\nend",
            'echo "never closed\nend\n',
        ],
    )
    def test_existing_cases(self, text):
        assert_incremental_depth_matches(text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.sampled_from(LINE_SHAPES)
        | st.text(alphabet="tryend \"'\\#;${}x", max_size=12),
        max_size=10))
    def test_any_line_sequence(self, lines):
        assert_incremental_depth_matches("\n".join(lines))

    def test_long_paste_is_lexed_once(self, monkeypatch):
        # Counted, not timed: every character of the paste may reach the
        # lexer twice at most (it reaches it once; re-lexing the whole
        # entry per line would hand over ~2,000x the paste).
        depth = 2000
        paste = "try 2 times\n" * depth + "cmd\n" + "end\n" * depth
        lexed = 0
        real_tokenize = repro.repl.tokenize

        def counting_tokenize(text):
            nonlocal lexed
            lexed += len(text)
            return real_tokenize(text)

        monkeypatch.setattr(repro.repl, "tokenize", counting_tokenize)
        repl = Repl(stdin=io.StringIO(paste), stdout=io.StringIO(),
                    prompt=False)
        assert repl._read_entry() == paste.rstrip("\n")
        assert lexed <= 2 * len(paste)
        assert repl._read_entry() is None


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
        # Straight into execute(): what is pinned here is the parser's
        # recursion limit, not the line reader.
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
