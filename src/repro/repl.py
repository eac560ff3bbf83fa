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
has its ``end``.
"""

from __future__ import annotations

import sys
from typing import IO, Optional

from .core.analysis import analyze
from .core.backoff import BackoffPolicy, PAPER_POLICY
from .core.compile import compile_script
from .core.errors import FtshSyntaxError
from .core.interpreter import Interpreter
from .core.parser import parse
from .core.realruntime import RealDriver
from .core.shell_log import ShellLog
from .core.timeline import UNBOUNDED
from .core.variables import Scope
from .tokens_depth import block_depth

PROMPT = "ftsh> "
CONTINUATION = "....> "


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
        #: Shared by every entry of the session; holds FunctionPlans.
        self.functions: dict = {}
        self.log = ShellLog(clock=self.driver.now)

    # ------------------------------------------------------------------
    def _emit(self, text: str) -> None:
        self.stdout.write(text + "\n")
        self.stdout.flush()

    def _read_entry(self) -> Optional[str]:
        """Read one complete construct (or None at EOF)."""
        lines: list[str] = []
        while True:
            if self.prompt:
                self.stdout.write(PROMPT if not lines else CONTINUATION)
                self.stdout.flush()
            line = self.stdin.readline()
            if line == "":
                return "\n".join(lines) if lines else None
            lines.append(line.rstrip("\n"))
            text = "\n".join(lines)
            try:
                depth = block_depth(text)
            except FtshSyntaxError as exc:
                if "unterminated" in str(exc):
                    # an open quote may legally span lines — keep reading
                    continue
                return text  # hard lexical error: let execute() report it
            if depth <= 0:
                return text

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
            interpreter.execute(compile_script(script), UNBOUNDED))
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
