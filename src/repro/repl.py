"""An interactive read-eval loop for the fault tolerant shell.

::

    $ ftsh -i
    ftsh> x=world
    ok
    ftsh> try 3 times
    ....>     echo hello ${x} -> out
    ....> end
    ok
    ftsh> echo ${out}
    hello world
    ok

State persists across entries: variables, function definitions, and the
execution log (``:log`` shows a summary, ``:analyze`` the post-mortem
digest).  Multi-line constructs are detected lexically — the prompt
continues until every ``try``/``forany``/``forall``/``if``/``function``
has its ``end``.  Detection tokenizes (so quoting and comments are
respected) and recognizes openers only in statement position — exactly
the parser's keyword rule — which keeps ``echo try`` from opening a
phantom block.
"""

from __future__ import annotations

import sys
from typing import IO, Optional

from .core.analysis import analyze
from .core.backoff import BackoffPolicy, PAPER_POLICY
from .core.errors import FtshSyntaxError
from .core.interpreter import Interpreter
from .core.lexer import tokenize
from .core.parser import parse
from .core.realruntime import RealDriver
from .core.shell_log import LOG_TRACE, TRANSCRIPT_EVENTS, ShellLog
from .core.timeline import UNBOUNDED
from .core.tokens import TokenKind
from .core.variables import Scope

PROMPT = "ftsh> "
CONTINUATION = "....> "

_OPENERS = frozenset({"try", "forany", "forall", "if", "function"})
_CLOSER = "end"


def block_depth(text: str) -> int:
    """Open-block count at end of ``text``; may raise FtshSyntaxError for
    lexically unterminated input (unclosed quotes)."""
    depth = 0
    at_statement_start = True
    for token in tokenize(text):
        if token.kind is TokenKind.NEWLINE:
            at_statement_start = True
            continue
        if token.kind is TokenKind.EOF:
            break
        if token.kind is TokenKind.WORD and at_statement_start:
            keyword = token.word.keyword()
            if keyword in _OPENERS:
                depth += 1
            elif keyword == _CLOSER:
                depth -= 1
        at_statement_start = False
    return depth


class EntryDepth:
    """``block_depth`` of a growing entry, fed one physical line at a time.

    A line that lexes cleanly ends at a token boundary in statement
    position, so the depth of what follows adds to it.  Only the pending
    *logical* line — physical lines joined by a still-open quote — is
    ever lexed, which keeps an n-line paste at O(n) characters lexed.
    """

    def __init__(self) -> None:
        self.depth = 0
        self._pending: list[str] = []

    def feed(self, line: str) -> bool:
        """Add a line; False while a quote it leaves open may legally
        span lines.  Hard lexical errors raise FtshSyntaxError."""
        self._pending.append(line)
        try:
            self.depth += block_depth("\n".join(self._pending))
        except FtshSyntaxError as exc:
            if "unterminated" in str(exc):
                return False
            raise
        self._pending.clear()
        return True


class Repl:
    """One interactive session; IO injectable for testing."""

    def __init__(
        self,
        driver: Optional[RealDriver] = None,
        policy: BackoffPolicy = PAPER_POLICY,
        stdin: Optional[IO[str]] = None,
        stdout: Optional[IO[str]] = None,
        prompt: bool = True,
        lint: bool = True,
    ) -> None:
        self.driver = driver or RealDriver()
        self.policy = policy
        self.stdin = stdin or sys.stdin
        self.stdout = stdout or sys.stdout
        self.prompt = prompt
        self.lint = lint
        self.scope = Scope()
        #: Shared by every entry of the session; holds function definitions.
        self.functions: dict = {}
        #: A transcript: ``:analyze`` reads its events.
        self.log = ShellLog(clock=self.driver.now,
                            max_events=TRANSCRIPT_EVENTS, level=LOG_TRACE)

    # ------------------------------------------------------------------
    def _emit(self, text: str) -> None:
        self.stdout.write(text + "\n")
        self.stdout.flush()

    def _read_entry(self) -> Optional[str]:
        """Read one complete construct (or None at EOF)."""
        lines: list[str] = []
        entry = EntryDepth()
        while True:
            if self.prompt:
                self.stdout.write(PROMPT if not lines else CONTINUATION)
                self.stdout.flush()
            line = self.stdin.readline()
            if line == "":
                return "\n".join(lines) if lines else None
            lines.append(line.rstrip("\n"))
            try:
                complete = entry.feed(lines[-1]) and entry.depth <= 0
            except FtshSyntaxError:
                complete = True  # hard lexical error: let execute() report it
            if complete:
                return "\n".join(lines)

    # ------------------------------------------------------------------
    def execute(self, text: str) -> bool:
        """Run one entry against the persistent state; True on success."""
        try:
            script = parse(text, "<repl>")
        except FtshSyntaxError as exc:
            self._emit(f"syntax error: {exc}")
            return False
        except RecursionError:
            self._emit("syntax error: nesting too deep to parse")
            return False
        if self.lint:
            self._lint_entry(script, text)
        interpreter = Interpreter(
            scope=self.scope,
            policy=self.policy,
            log=self.log,
            functions=self.functions,
        )
        outcome = self.driver.run(
            interpreter.execute(script, UNBOUNDED))
        if outcome is None:
            self._emit("ok")
            return True
        self._emit(f"failed: {outcome}")
        return False

    def _lint_entry(self, script, text: str) -> None:
        """Lint-on-load: warn about discipline smells, never block.

        Names already bound in the session (variables and functions) are
        assumed defined so cross-entry references do not cry wolf.
        """
        from .lint.engine import LintConfig, lint_script

        known = set(self.scope.flatten()) | set(self.functions)
        diagnostics = lint_script(
            script, text, source_name="<repl>",
            config=LintConfig(assume_defined=frozenset(known)),
        )
        for diag in diagnostics:
            self._emit(f"lint: {diag.gcc()}")

    def handle_directive(self, line: str) -> bool:
        """``:``-commands; returns False when the session should end."""
        command = line.strip()
        if command in (":q", ":quit", ":exit"):
            return False
        if command == ":log":
            self._emit(self.log.summary())
        elif command == ":analyze":
            self._emit(analyze(self.log).report())
        elif command == ":vars":
            for name, value in sorted(self.scope.flatten().items()):
                self._emit(f"{name}={value!r}")
        elif command == ":help":
            self._emit(":q quit · :vars variables · :log summary · "
                       ":analyze post-mortem")
        else:
            self._emit(f"unknown directive {command!r} (:help)")
        return True

    # ------------------------------------------------------------------
    def run(self) -> int:
        """The loop; returns an exit status."""
        while True:
            entry = self._read_entry()
            if entry is None:
                if self.prompt:
                    self._emit("")
                return 0
            stripped = entry.strip()
            if not stripped:
                continue
            if stripped.startswith(":"):
                if not self.handle_directive(stripped):
                    return 0
                continue
            self.execute(entry)
