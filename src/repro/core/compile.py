"""AST→plan compiler: flat execution plans shared by both runtimes.

``parse_cached`` already amortises lexing and parsing, but the evaluator
still re-walked the AST on every statement, every ``try`` attempt and
every ``forall`` branch: isinstance dispatch, per-part word joins, dict
lookups per variable expansion, and span/log detail strings built even
when telemetry is off.  This module compiles a parsed
:class:`~repro.core.ast_nodes.Script` once into an immutable
:class:`ScriptPlan` of compact op records:

* words and expression operands are pre-split into a constant head and
  ``(variable name, literal tail)`` pairs — an all-constant argv is
  expanded (and its log string joined) exactly once, at compile time;
* every variable has one copy, in the
  :class:`~repro.core.variables.Scope` the ops are handed: reads are
  ``scope.get``, writes ``scope.set/append/unset``, so ``flatten()``,
  spooling, ``forall`` child scopes and REPL persistence need no second
  path (campaign scripts read a variable on one command in eleven —
  docs/PERFORMANCE.md "What each specialisation serves");
* ``try`` windows, attempt budgets and ``every`` overrides are
  precomputed so the retry loop re-enters a plan, not a tree walk;
* group / forany / forall bodies are flattened into op tuples, and
  ``success`` atoms (no-ops) are dropped at compile time.

The plan dispatches over the *same* sans-IO effect protocol with the
same error semantics, log events, spans and metrics as the tree-walking
evaluator — the equivalence suite asserts identical ShellLog streams —
but skips span-name and log-detail construction when the observability
context is disabled or the log level filters the event.

``compile_cached`` sits beside ``parse_cached``: it is keyed by AST
identity (``parse_cached`` returns shared ``Script`` objects), holding a
strong reference to the script so an id() can never be reused while its
entry is alive.  Plans are the only runtime a shell dispatches over;
the tree-walking evaluator stays in :mod:`~repro.core.interpreter` as the
reference the equivalence suites compare against.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Generator, NamedTuple, Optional

from . import ast_nodes as ast
from .backoff import BackoffState
from .effects import (
    CommandResult,
    Effect,
    GetRandom,
    GetTime,
    ParallelBranch,
    ParallelResult,
    RunCommand,
    RunParallel,
    Sleep,
    SleepResult,
)
from .errors import (
    FtshCancelled,
    FtshFailure,
    FtshRuntimeError,
    FtshTimeout,
)
from .expressions import _NUMERIC, _STRING, _to_number, truthy
from .interpreter import MAX_FUNCTION_DEPTH, ZERO_PROGRESS_QUANTUM
from .shell_log import LOG_COMMANDS, LOG_TRACE, EventKind
from .timeline import UNBOUNDED
from .tokens import VarRef, Word
from .variables import Scope

EvalGen = Generator[Effect, Any, None]

#: Field-less effects carry no state, so one instance serves every yield —
#: drivers dispatch on type, never on identity or mutation.
_GET_TIME = GetTime()
_GET_RANDOM = GetRandom()
#: Raw allocator for the hot-path RunCommand construction: the dataclass
#: __init__ burns time on keyword plumbing for fields the static-capture
#: path always sets explicitly anyway.
_RC_NEW = RunCommand.__new__


# ----------------------------------------------------------------------
# Compiled words and expressions
# ----------------------------------------------------------------------
class CompiledWord:
    """A word template pre-split into a constant head and substitutions."""

    __slots__ = ("head", "subs", "quoted")

    def __init__(self, head: str, subs: tuple, quoted: bool) -> None:
        #: The literal text before the first substitution — the whole
        #: word when ``subs`` is empty.
        self.head = head
        #: ``(variable name, literal text after it)`` pairs, in order.
        self.subs = subs
        self.quoted = quoted

    def expand(self, scope: Scope) -> str:
        """Raises UndefinedVariableError exactly like the tree-walking
        expansion."""
        text = self.head
        for name, tail in self.subs:
            text += scope.get(name) + tail
        return text


def _compile_word(word: Word) -> CompiledWord:
    head = ""
    subs: list[tuple[str, str]] = []
    quoted = False
    for part in word.parts:
        if part.quoted:
            quoted = True
        if isinstance(part, VarRef):
            subs.append((part.name, ""))
        elif subs:
            name, tail = subs[-1]
            subs[-1] = (name, tail + part.text)
        else:
            head += part.text
    return CompiledWord(head, tuple(subs), quoted)


class _CmpNum:
    __slots__ = ("fn", "op", "lhs", "rhs")

    def __init__(self, fn, op: str, lhs: CompiledWord, rhs: CompiledWord) -> None:
        self.fn = fn
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def eval(self, scope: Scope) -> bool:
        # Expansion order and the operand-conversion order both match the
        # tree-walking evaluator, so the *first* failure is the same one.
        lhs = self.lhs.expand(scope)
        rhs = self.rhs.expand(scope)
        return self.fn(_to_number(lhs, self.op), _to_number(rhs, self.op))


class _CmpStr:
    __slots__ = ("fn", "lhs", "rhs")

    def __init__(self, fn, lhs: CompiledWord, rhs: CompiledWord) -> None:
        self.fn = fn
        self.lhs = lhs
        self.rhs = rhs

    def eval(self, scope: Scope) -> bool:
        return self.fn(self.lhs.expand(scope), self.rhs.expand(scope))


class _TruthExpr:
    __slots__ = ("operand",)

    def __init__(self, operand: CompiledWord) -> None:
        self.operand = operand

    def eval(self, scope: Scope) -> bool:
        return truthy(self.operand.expand(scope))


class _NotExpr:
    __slots__ = ("operand",)

    def __init__(self, operand) -> None:
        self.operand = operand

    def eval(self, scope: Scope) -> bool:
        return not self.operand.eval(scope)


class _DefinedExpr:
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def eval(self, scope: Scope) -> bool:
        return self.name in scope


class _BoolExpr:
    __slots__ = ("is_or", "lhs", "rhs")

    def __init__(self, is_or: bool, lhs, rhs) -> None:
        self.is_or = is_or
        self.lhs = lhs
        self.rhs = rhs

    def eval(self, scope: Scope) -> bool:
        # Both sides always evaluate (order-independent failure behaviour),
        # exactly like expressions.evaluate.
        lhs = self.lhs.eval(scope)
        rhs = self.rhs.eval(scope)
        return (lhs or rhs) if self.is_or else (lhs and rhs)


def _compile_expr(expr: ast.Expr):
    if isinstance(expr, ast.Comparison):
        lhs = _compile_word(expr.lhs)
        rhs = _compile_word(expr.rhs)
        numeric = _NUMERIC.get(expr.op)
        if numeric is not None:
            return _CmpNum(numeric, expr.op, lhs, rhs)
        return _CmpStr(_STRING[expr.op], lhs, rhs)
    if isinstance(expr, ast.Truth):
        return _TruthExpr(_compile_word(expr.operand))
    if isinstance(expr, ast.Not):
        return _NotExpr(_compile_expr(expr.operand))
    if isinstance(expr, ast.Defined):
        return _DefinedExpr(expr.name)
    if isinstance(expr, ast.BoolOp):
        return _BoolExpr(expr.op == ".or.",
                         _compile_expr(expr.lhs),
                         _compile_expr(expr.rhs))
    raise TypeError(f"unknown expression node: {expr!r}")  # pragma: no cover


class _CompiledRedirect:
    """One redirection with its dispatch decisions made at compile time."""

    __slots__ = ("to_variable", "is_input", "appends", "merges_stderr",
                 "name", "target")

    def __init__(self, redirect: ast.Redirect) -> None:
        self.to_variable = redirect.to_variable
        self.is_input = redirect.is_input
        self.appends = redirect.appends
        self.merges_stderr = redirect.merges_stderr
        if self.to_variable:
            self.name = redirect.target.literal_text() or ""
            self.target: Optional[CompiledWord] = None
        else:
            self.name = ""
            self.target = _compile_word(redirect.target)


# ----------------------------------------------------------------------
# Plan ops
# ----------------------------------------------------------------------
# Each op exposes run(interp, scope).  Ops that never yield effects
# (assignment, atoms, function definition) return None; the rest return
# an effect generator the group drives with `yield from`.  This keeps
# straight-line variable work free of generator overhead.


class GroupPlan:
    __slots__ = ("ops",)

    #: Class marker: run() returns an effect generator (sync ops say False).
    yields = True

    def __init__(self, ops: tuple) -> None:
        self.ops = ops

    def run(self, interp, scope: Scope) -> EvalGen:
        for op in self.ops:
            gen = op.run(interp, scope)
            if gen is not None:
                yield from gen


class AssignOp:
    __slots__ = ("name", "value", "line")

    yields = False

    def __init__(self, name: str, value: CompiledWord, line: int) -> None:
        self.name = name
        self.value = value
        self.line = line

    def run(self, interp, scope: Scope) -> None:
        value = self.value.expand(scope)
        scope.set(self.name, value)
        log = interp.log
        if log.level >= LOG_TRACE:
            log.record(EventKind.ASSIGNMENT, f"{self.name}={value!r}", self.line)
        return None


class FailureOp:
    __slots__ = ("line",)

    yields = False

    def __init__(self, line: int) -> None:
        self.line = line

    def run(self, interp, scope: Scope) -> None:
        if interp.log.level >= LOG_COMMANDS:
            interp.log.record(EventKind.FAILURE_ATOM, line=self.line)
        raise FtshFailure("failure atom")


class FunctionPlan:
    """A compiled function body registered under its name at run time."""

    __slots__ = ("name", "body")

    def __init__(self, name: str, body: GroupPlan) -> None:
        self.name = name
        self.body = body


class FuncDefOp:
    __slots__ = ("plan",)

    yields = False

    def __init__(self, plan: FunctionPlan) -> None:
        self.plan = plan

    def run(self, interp, scope: Scope) -> None:
        interp.functions[self.plan.name] = self.plan
        return None


def _call_function(interp, scope: Scope, plan: FunctionPlan,
                   argv: list[str], line: int, has_redirects: bool) -> EvalGen:
    """Compiled twin of Interpreter.call_function (same stack discipline)."""
    if has_redirects:
        raise FtshFailure(f"cannot redirect function call {plan.name!r}")
    if interp._call_depth >= MAX_FUNCTION_DEPTH:
        raise FtshFailure(f"function recursion deeper than {MAX_FUNCTION_DEPTH}")
    bindings = {"0": argv[0], "#": str(len(argv) - 1)}
    for index, arg in enumerate(argv[1:], start=1):
        bindings[str(index)] = arg
    saved = {name: scope.lookup(name) for name in bindings}
    for name, value in bindings.items():
        scope.set(name, value)
    interp._call_depth += 1
    obs_on = interp._obs_on
    if obs_on:
        tracer = interp.obs.tracer
        span = tracer.start(f"function:{plan.name}", "function",
                            parent=interp._span, line=line or None)
        caller_span, interp._span = interp._span, span
    try:
        yield from plan.body.run(interp, scope)
        if obs_on:
            tracer.finish(span, "ok")
    except FtshFailure:
        if obs_on:
            tracer.finish(span, "failed")
        raise
    except FtshTimeout:
        if obs_on:
            tracer.finish(span, "timeout")
        raise
    except BaseException:
        if obs_on:
            tracer.finish(span, "cancelled")
        raise
    finally:
        if obs_on:
            interp._span = caller_span
        interp._call_depth -= 1
        for name, previous in saved.items():
            if previous is None:
                scope.unset(name)  # was unbound before the call
            else:
                scope.set(name, previous)


class CommandOp:
    __slots__ = ("template", "const_argv", "const_joined", "redirects",
                 "has_redirects", "static_capture", "capture_flag",
                 "merge_flag", "capture_name_static", "capture_append_static",
                 "line")

    yields = True

    def __init__(self, words: tuple[CompiledWord, ...],
                 redirects: tuple[_CompiledRedirect, ...], line: int) -> None:
        #: Argv template: plain str for constant words (elision already
        #: applied), CompiledWord for words needing expansion.  An empty
        #: unquoted constant word compiles away entirely.
        template: list = []
        for word in words:
            if word.subs:
                template.append(word)
            elif word.head or word.quoted:
                template.append(word.head)
        self.template = tuple(template)
        self.redirects = redirects
        self.has_redirects = bool(redirects)
        self.line = line
        if all(item.__class__ is str for item in template):
            self.const_argv: Optional[tuple[str, ...]] = tuple(template)
            self.const_joined: Optional[str] = " ".join(template)
        else:
            self.const_argv = None
            self.const_joined = None
        # Redirect sets that touch no scope/filesystem value at dispatch
        # time (only variable *captures*) collapse into constructor
        # arguments for the effect: replaying them per run is pure waste.
        self.static_capture = all(
            r.to_variable and not r.is_input for r in redirects)
        capture_name = None
        capture_append = False
        merge = False
        if self.static_capture:
            for r in redirects:
                capture_name = r.name
                capture_append = r.appends
                merge = r.merges_stderr
        self.capture_flag = self.static_capture and bool(redirects)
        self.merge_flag = merge
        self.capture_name_static = capture_name
        self.capture_append_static = capture_append

    def run(self, interp, scope: Scope) -> EvalGen:
        const_argv = self.const_argv
        if const_argv is not None:
            if not const_argv:
                raise FtshFailure("command expanded to nothing")
            argv = list(const_argv)
            joined = self.const_joined
        else:
            argv = []
            for item in self.template:
                if item.__class__ is str:
                    argv.append(item)
                else:
                    text = item.expand(scope)
                    if text or item.quoted:
                        argv.append(text)
            if not argv:
                raise FtshFailure("command expanded to nothing")
            joined = None
        name = argv[0]
        if name in interp.functions:
            yield from _call_function(interp, scope, interp.functions[name],
                                      argv, self.line, self.has_redirects)
            return

        stack = interp.deadlines._stack  # effective(), inlined for the hot path
        deadline = stack[-1] if stack else UNBOUNDED
        if self.static_capture:
            effect = _RC_NEW(RunCommand)
            effect.argv = argv
            effect.stdin_data = None
            effect.stdin_file = None
            effect.stdout_file = None
            effect.stdout_append = False
            effect.merge_stderr = self.merge_flag
            effect.capture = self.capture_flag
            effect.deadline = deadline
            capture_name = self.capture_name_static
            capture_append = self.capture_append_static
        else:
            effect = RunCommand(argv=argv, deadline=deadline)
            capture_name = None
            capture_append = False
            for redirect in self.redirects:
                if redirect.to_variable:
                    if redirect.is_input:  # -<
                        effect.stdin_data = scope.get(redirect.name)
                        effect.stdin_file = None
                    else:  # -> ->> ->& ->>&
                        capture_name = redirect.name
                        capture_append = redirect.appends
                        effect.capture = True
                        effect.merge_stderr = redirect.merges_stderr
                        effect.stdout_file = None
                else:
                    target = redirect.target.expand(scope)
                    if redirect.is_input:  # <
                        effect.stdin_file = target
                        effect.stdin_data = None
                    else:  # > >> >& >>&
                        effect.stdout_file = target
                        effect.stdout_append = redirect.appends
                        effect.merge_stderr = redirect.merges_stderr
                        effect.capture = False
                        capture_name = None

        log = interp.log
        commands_on = log.level >= LOG_COMMANDS
        if commands_on:
            if joined is None:
                joined = " ".join(argv)
            log.record(EventKind.COMMAND_START, joined, self.line)
        obs_on = interp._obs_on
        if obs_on:
            tracer = interp.obs.tracer
            span = tracer.start(f"command:{name}", "command", parent=interp._span,
                                argv=joined if joined is not None else " ".join(argv),
                                line=self.line or None)
        try:
            result: CommandResult = yield effect
        except BaseException:
            if obs_on:
                tracer.finish(span, "cancelled")
            raise
        if result.timed_out:
            if commands_on:
                log.record(EventKind.COMMAND_TIMEOUT, joined, self.line)
            if obs_on:
                tracer.finish(span, "timeout", detail=result.detail or None)
            # The stack cannot change while the command runs (only this
            # interpreter pushes/pops), so the precomputed deadline is
            # still the effective one.
            raise FtshTimeout(deadline, f"{name} hit time limit")
        if result.exit_code != 0:
            if commands_on:
                log.record(
                    EventKind.COMMAND_FAILED,
                    f"{joined} exited {result.exit_code} {result.detail}".rstrip(),
                    self.line,
                )
            if obs_on:
                tracer.finish(span, "failed", exit_code=result.exit_code,
                              detail=result.detail or None)
            raise FtshFailure(f"{name} exited {result.exit_code}")
        if capture_name is not None:
            text = (result.output or "").rstrip("\n")
            if capture_append:
                scope.append(capture_name, text)
            else:
                scope.set(capture_name, text)
        if commands_on:
            log.record(EventKind.COMMAND_END, name, self.line)
        if obs_on:
            tracer.finish(span, "ok")


class TryOp:
    """The plan runtime's one retry loop (tree-walk twin: ``_try_attempts``).

    When the body is a single :class:`CommandOp` with no dynamic
    redirects (only variable captures, or none) — ``try ... / one command
    [-> var] / end``, the paper's canonical retry shape — the loop drives
    the command inline: no per-attempt body generator, no delegation
    frame under the effect send, and the attempt-failure ``FtshFailure``
    — which this loop would catch immediately — is never materialised.
    Any other body is one ``yield from`` at the top of the attempt.
    Every log event, span, metric and effect in the sequence is the same
    on both branches; the equivalence suite pins that.
    """

    __slots__ = ("duration", "attempts", "every", "body", "cmd", "catch", "line")

    yields = True

    def __init__(self, limits: ast.TryLimits, body,
                 catch: Optional[GroupPlan], line: int) -> None:
        #: Window / budget / fixed-delay parameters, precomputed (the
        #: parser already normalised units to seconds).
        self.duration = limits.duration
        self.attempts = limits.attempts
        self.every = limits.every
        self.body = body
        #: The body when the loop may drive it inline, else None.
        self.cmd: Optional[CommandOp] = (
            body if body.__class__ is CommandOp and body.static_capture
            else None)
        self.catch = catch
        self.line = line

    def run(self, interp, scope: Scope) -> EvalGen:
        now = yield _GET_TIME
        log = interp.log
        level = log.level
        trace_on = level >= LOG_TRACE
        commands_on = level >= LOG_COMMANDS
        obs_on = interp._obs_on
        if obs_on:
            tracer = interp.obs.tracer
            span = tracer.start(
                "try", "try", parent=interp._span, line=self.line or None,
                limit_seconds=self.duration, limit_attempts=self.attempts,
            )
            enclosing, interp._span = interp._span, span
        else:
            tracer = None
            span = None
        deadlines = interp.deadlines
        cmd = self.cmd
        if cmd is None:
            body_run = self.body.run
        else:
            const_argv = cmd.const_argv
            template = cmd.template
            capture_name = cmd.capture_name_static
            capture_append = cmd.capture_append_static
            capture_flag = cmd.capture_flag
            merge_flag = cmd.merge_flag
            cmd_line = cmd.line
            functions = interp.functions
        try:
            # AttemptBudget and DeadlineStack.clip are inlined here: after
            # our push, the stack top IS `clipped` between attempts (the
            # stack is non-increasing), so clip(delay, now) reduces to
            # max(0, min(delay, clipped - now)) — and an inlined command,
            # which never pushes, runs under `clipped` too.
            wanted = UNBOUNDED if self.duration is None else now + self.duration
            clipped = deadlines.push(wanted)
            max_attempts = self.attempts
            if max_attempts is not None and max_attempts < 1:
                raise ValueError(
                    f"max_attempts must be >= 1, got {max_attempts}")
            every = self.every
            line = self.line
            backoff = BackoffState(interp.policy)
            succeeded = False
            attempts = 0
            attempt_start = now
            try:
                while True:
                    attempts += 1
                    if trace_on:
                        log.record(EventKind.TRY_ATTEMPT,
                                   f"attempt {attempts}", line)
                    if obs_on:
                        attempt_span = tracer.start(
                            f"attempt:{attempts}", "attempt", parent=span
                        )
                        interp._span = attempt_span
                    # `failed` stands in for the FtshFailure a delegated
                    # body raises across the frame boundary.
                    failed = False
                    try:
                        if cmd is None:
                            yield from body_run(interp, scope)
                        else:
                            if const_argv is not None:
                                argv = list(const_argv)
                                joined = cmd.const_joined
                            else:
                                argv = []
                                for item in template:
                                    if item.__class__ is str:
                                        argv.append(item)
                                    else:
                                        text = item.expand(scope)
                                        if text or item.quoted:
                                            argv.append(text)
                                joined = None
                            if not argv:
                                failed = True  # "command expanded to nothing"
                            elif argv[0] in functions:
                                yield from _call_function(
                                    interp, scope, functions[argv[0]], argv,
                                    cmd_line, cmd.has_redirects)
                                # Function returned: the attempt succeeded.
                            else:
                                name = argv[0]
                                effect = _RC_NEW(RunCommand)
                                effect.argv = argv
                                effect.stdin_data = None
                                effect.stdin_file = None
                                effect.stdout_file = None
                                effect.stdout_append = False
                                effect.merge_stderr = merge_flag
                                effect.capture = capture_flag
                                effect.deadline = clipped
                                if commands_on:
                                    if joined is None:
                                        joined = " ".join(argv)
                                    log.record(EventKind.COMMAND_START,
                                               joined, cmd_line)
                                if obs_on:
                                    cmd_span = tracer.start(
                                        f"command:{name}", "command",
                                        parent=interp._span,
                                        argv=joined if joined is not None
                                        else " ".join(argv),
                                        line=cmd_line or None)
                                try:
                                    result = yield effect
                                except BaseException:
                                    if obs_on:
                                        tracer.finish(cmd_span, "cancelled")
                                    raise
                                if result.timed_out:
                                    if commands_on:
                                        log.record(EventKind.COMMAND_TIMEOUT,
                                                   joined, cmd_line)
                                    if obs_on:
                                        tracer.finish(cmd_span, "timeout",
                                                      detail=result.detail or None)
                                    raise FtshTimeout(clipped,
                                                      f"{name} hit time limit")
                                if result.exit_code != 0:
                                    if commands_on:
                                        log.record(
                                            EventKind.COMMAND_FAILED,
                                            f"{joined} exited {result.exit_code} "
                                            f"{result.detail}".rstrip(),
                                            cmd_line,
                                        )
                                    if obs_on:
                                        tracer.finish(cmd_span, "failed",
                                                      exit_code=result.exit_code,
                                                      detail=result.detail or None)
                                    failed = True
                                else:
                                    if capture_name is not None:
                                        text = (result.output or "").rstrip("\n")
                                        if capture_append:
                                            scope.append(capture_name, text)
                                        else:
                                            scope.set(capture_name, text)
                                    if commands_on:
                                        log.record(EventKind.COMMAND_END,
                                                   name, cmd_line)
                                    if obs_on:
                                        tracer.finish(cmd_span, "ok")
                        if not failed:
                            succeeded = True
                            if obs_on:
                                tracer.finish(attempt_span, "ok")
                            if commands_on:
                                log.record(EventKind.TRY_SUCCESS,
                                           f"after {attempts}", line)
                            break
                        if obs_on:
                            tracer.finish(attempt_span, "failed")
                    except FtshFailure:
                        if obs_on:
                            tracer.finish(attempt_span, "failed")
                    except FtshTimeout as timeout:
                        if obs_on:
                            tracer.finish(attempt_span, "timeout")
                        if timeout.deadline < clipped:
                            raise  # belongs to an enclosing try
                        break  # our own window expired mid-attempt
                    except BaseException:
                        if obs_on:
                            tracer.finish(attempt_span, "cancelled")
                        raise
                    finally:
                        if obs_on:
                            interp._span = span
                    now = yield _GET_TIME
                    if (max_attempts is not None and attempts >= max_attempts) \
                            or now >= clipped:
                        break  # budget exhausted (inlined may_retry)
                    if every is not None:
                        delay = every
                    else:
                        jitter = yield _GET_RANDOM
                        delay = backoff.next_delay_from_jitter(jitter)
                    if delay <= 0 and now <= attempt_start:
                        # Zero-delay retry of a zero-time attempt would
                        # livelock a virtual clock; minimal quantum.
                        delay = ZERO_PROGRESS_QUANTUM
                    attempt_start = now
                    remaining = clipped - now
                    if delay > remaining:
                        delay = remaining
                    if delay > 0:
                        # The overload alarm: logged at every level.
                        log.record(
                            EventKind.TRY_BACKOFF,
                            f"failure {backoff.failures}: waiting {delay:.3f}s",
                            line,
                            value=delay,
                        )
                        if obs_on:
                            sleep_span = tracer.start(
                                f"backoff:{attempts}", "backoff",
                                parent=span, delay=delay,
                            )
                        try:
                            sleep_result: SleepResult = yield Sleep(delay, clipped)
                        except BaseException:
                            if obs_on:
                                tracer.finish(sleep_span, "cancelled")
                            raise
                        if obs_on:
                            tracer.finish(sleep_span, "ok", slept=sleep_result.slept)
                        if sleep_result.timed_out:
                            break
                        attempt_start = now + sleep_result.slept
            finally:
                deadlines.pop()
                if not succeeded:
                    if commands_on:
                        log.record(EventKind.TRY_EXHAUSTED,
                                   f"after {attempts} attempts", line)
            if succeeded:
                if obs_on:
                    tracer.finish(span, "ok", attempts=attempts)
                return
            yield from self._after_exhausted(interp, scope, attempts, span,
                                             tracer, obs_on, commands_on, log)
        except FtshTimeout:
            if obs_on:
                tracer.finish(span, "timeout")
            raise
        except FtshFailure:
            if obs_on:
                tracer.finish(span, "failed")
            raise
        except BaseException:
            if obs_on:
                tracer.finish(span, "cancelled")
            raise
        finally:
            if obs_on:
                interp._span = enclosing

    def _after_exhausted(self, interp, scope: Scope, attempts: int, span,
                         tracer, obs_on: bool, commands_on: bool, log) -> EvalGen:
        # Exhausted.  The expired deadline is already popped, so the
        # catch block runs under the *enclosing* limits only.  (Cold
        # path: the extra generator frame only exists once exhaustion is
        # certain.)
        if self.catch is not None:
            if commands_on:
                log.record(EventKind.CATCH_ENTERED, line=self.line)
            if obs_on:
                catch_span = tracer.start("catch", "catch", parent=span,
                                          line=self.line or None)
                interp._span = catch_span
            try:
                yield from self.catch.run(interp, scope)
                if obs_on:
                    tracer.finish(catch_span, "ok")
            except FtshFailure:
                if obs_on:
                    tracer.finish(catch_span, "failed")
                raise
            except FtshTimeout:
                if obs_on:
                    tracer.finish(catch_span, "timeout")
                raise
            except BaseException:
                if obs_on:
                    tracer.finish(catch_span, "cancelled")
                raise
            finally:
                if obs_on:
                    interp._span = span
            if obs_on:
                tracer.finish(span, "ok", attempts=attempts, caught=True)
            return
        if obs_on:
            tracer.finish(span, "failed", attempts=attempts)
        raise FtshFailure(f"try exhausted after {attempts} attempts")


class ForAnyOp:
    __slots__ = ("var", "values", "body", "line")

    yields = True

    def __init__(self, var: str, values: tuple[CompiledWord, ...],
                 body: GroupPlan, line: int) -> None:
        self.var = var
        self.values = values
        self.body = body
        self.line = line

    def run(self, interp, scope: Scope) -> EvalGen:
        log = interp.log
        trace_on = log.level >= LOG_TRACE
        obs_on = interp._obs_on
        if obs_on:
            tracer = interp.obs.tracer
            span = tracer.start(f"forany:{self.var}", "forany",
                                parent=interp._span, line=self.line or None,
                                alternatives=len(self.values))
            enclosing, interp._span = interp._span, span
        last_failure: Optional[FtshFailure] = None
        try:
            for value_word in self.values:
                value = value_word.expand(scope)
                scope.set(self.var, value)
                if trace_on:
                    log.record(EventKind.FORANY_PICK,
                               f"{self.var}={value}", self.line)
                if obs_on:
                    alt_span = tracer.start(f"alt:{value}", "alt", parent=span)
                    interp._span = alt_span
                try:
                    yield from self.body.run(interp, scope)
                    if obs_on:
                        tracer.finish(alt_span, "ok")
                        tracer.finish(span, "ok", winner=value)
                    return  # winner; the variable keeps the successful value
                except FtshFailure as failure:
                    if obs_on:
                        tracer.finish(alt_span, "failed")
                    last_failure = failure
                except FtshTimeout:
                    if obs_on:
                        tracer.finish(alt_span, "timeout")
                    raise
                except BaseException:
                    if obs_on:
                        tracer.finish(alt_span, "cancelled")
                    raise
                finally:
                    if obs_on:
                        interp._span = span
            reason = last_failure.reason if last_failure else "no alternatives"
            if obs_on:
                tracer.finish(span, "failed")
            raise FtshFailure(f"forany exhausted all alternatives (last: {reason})")
        except FtshTimeout:
            if obs_on:
                tracer.finish(span, "timeout")
            raise
        except BaseException:
            if obs_on:
                tracer.finish(span, "cancelled")
            raise
        finally:
            if obs_on:
                interp._span = enclosing


def _run_branch(interp, body: GroupPlan, scope: Scope) -> EvalGen:
    """A forall branch body as its own effect generator."""
    yield from body.run(interp, scope)


class ForAllOp:
    __slots__ = ("var", "values", "body", "line")

    yields = True

    def __init__(self, var: str, values: tuple[CompiledWord, ...],
                 body: GroupPlan, line: int) -> None:
        self.var = var
        self.values = values
        self.body = body
        self.line = line

    def run(self, interp, scope: Scope) -> EvalGen:
        log = interp.log
        trace_on = log.level >= LOG_TRACE
        obs_on = interp._obs_on
        if obs_on:
            tracer = interp.obs.tracer
            span = tracer.start(f"forall:{self.var}", "forall",
                                parent=interp._span, line=self.line or None,
                                branches=len(self.values))
        else:
            tracer = None
            span = None
        cls = interp.__class__
        branch_spans = []
        branches: list[ParallelBranch] = []
        for position, value_word in enumerate(self.values):
            value = value_word.expand(scope)
            branch_scope = scope.child()
            branch_scope.set(self.var, value)
            if obs_on:
                branch_span = tracer.start(f"branch:{self.var}={value}",
                                           "branch", parent=span)
            else:
                branch_span = None
            branch_spans.append(branch_span)
            branch = cls(branch_scope, interp.policy, interp.log,
                         functions=interp.functions,
                         obs=interp.obs, span_parent=branch_span)
            # Branches inherit the current effective deadline as their base.
            branch.deadlines.push(interp.deadlines.effective())
            generator = _run_branch(branch, self.body, branch_scope)
            branches.append(
                ParallelBranch(f"{self.var}={value}#{position}", generator))
            if trace_on:
                log.record(EventKind.FORALL_SPAWN,
                           f"{self.var}={value}", self.line)

        try:
            result: ParallelResult = yield RunParallel(
                branches, deadline=interp.deadlines.effective()
            )
        except BaseException:
            if obs_on:
                for branch_span in branch_spans:
                    tracer.finish(branch_span, "cancelled")
                tracer.finish(span, "cancelled")
            raise
        if len(result.outcomes) != len(branches):
            if obs_on:
                tracer.finish(span, "failed")
            raise FtshRuntimeError(
                f"driver returned {len(result.outcomes)} outcomes for "
                f"{len(branches)} branches"
            )
        timeout: Optional[FtshTimeout] = None
        failure: Optional[BaseException] = None
        for outcome, branch_span in zip(result.outcomes, branch_spans):
            if outcome is None:
                if obs_on:
                    tracer.finish(branch_span, "ok")
                continue
            if isinstance(outcome, FtshTimeout):
                # Escaped every try inside the branch: belongs to one of
                # *our* enclosing scopes; keep the earliest.
                if obs_on:
                    tracer.finish(branch_span, "timeout")
                if timeout is None or outcome.deadline < timeout.deadline:
                    timeout = outcome
            elif isinstance(outcome, FtshCancelled):
                if obs_on:
                    tracer.finish(branch_span, "cancelled")
                failure = failure or outcome
            elif isinstance(outcome, FtshFailure):
                if obs_on:
                    tracer.finish(branch_span, "failed")
                failure = failure or outcome
            else:
                if obs_on:
                    tracer.finish(branch_span, "failed")
                    tracer.finish(span, "failed")
                raise outcome  # driver bug or interpreter defect: surface it
        if timeout is not None:
            if obs_on:
                tracer.finish(span, "timeout")
            raise timeout
        if failure is not None:
            if obs_on:
                tracer.finish(span, "failed")
            raise FtshFailure(f"forall branch failed: {failure}")
        if obs_on:
            tracer.finish(span, "ok")


class IfOp:
    __slots__ = ("condition", "then", "orelse", "line")

    yields = True

    def __init__(self, condition, then: GroupPlan,
                 orelse: Optional[GroupPlan], line: int) -> None:
        self.condition = condition
        self.then = then
        self.orelse = orelse
        self.line = line

    def run(self, interp, scope: Scope) -> EvalGen:
        verdict = self.condition.eval(scope)
        log = interp.log
        if log.level >= LOG_TRACE:
            log.record(EventKind.CONDITION, str(verdict), self.line)
        if verdict:
            yield from self.then.run(interp, scope)
        elif self.orelse is not None:
            yield from self.orelse.run(interp, scope)


# ----------------------------------------------------------------------
# The plan itself
# ----------------------------------------------------------------------
class ScriptPlan:
    """A compiled script: a flat op tree."""

    __slots__ = ("body", "source_name")

    def __init__(self, body: GroupPlan, source_name: str) -> None:
        self.body = body
        self.source_name = source_name

    def execute(self, interp, overall_deadline: float = UNBOUNDED) -> EvalGen:
        """Evaluate under ``interp`` — the twin of Interpreter._execute_top."""
        return _execute_plan(self, interp, overall_deadline)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = self.body
        ops = len(body.ops) if isinstance(body, GroupPlan) else 1
        return f"<ScriptPlan {self.source_name!r} ops={ops}>"


def _execute_plan(plan: ScriptPlan, interp, overall_deadline: float) -> EvalGen:
    interp.deadlines.push(overall_deadline)
    log = interp.log
    obs_on = interp._obs_on
    if obs_on:
        tracer = interp.obs.tracer
        span = tracer.start("script", "script", parent=interp._span)
        outer, interp._span = interp._span, span
    try:
        yield from plan.body.run(interp, interp.scope)
        log.record(EventKind.SCRIPT_RESULT, "success")
        if obs_on:
            tracer.finish(span, "ok")
    except FtshFailure as failure:
        log.record(EventKind.SCRIPT_RESULT, f"failure: {failure.reason}")
        if obs_on:
            tracer.finish(span, "failed", reason=failure.reason)
        raise
    except FtshTimeout as timeout:
        log.record(EventKind.SCRIPT_RESULT, f"timeout: {timeout.reason}")
        if obs_on:
            tracer.finish(span, "timeout", reason=timeout.reason)
        raise
    except BaseException:
        if obs_on:
            tracer.finish(span, "cancelled")
        raise
    finally:
        if obs_on:
            interp._span = outer
        interp.deadlines.pop()


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------
def _compile_group(group: ast.Group):
    ops = []
    for statement in group.body:
        op = _compile_statement(statement)
        if op is not None:  # `success` atoms compile away
            ops.append(op)
    if len(ops) == 1 and ops[0].yields:
        # A single-statement body needs no group wrapper: the op's run()
        # is already the effect generator, saving one delegation frame on
        # every retry attempt (`try ... / one command / end` is the
        # paper's canonical shape).
        return ops[0]
    return GroupPlan(tuple(ops))


def _compile_statement(node: ast.Statement):
    if isinstance(node, ast.Command):
        words = tuple(_compile_word(word) for word in node.words)
        redirects = tuple(_CompiledRedirect(r) for r in node.redirects)
        return CommandOp(words, redirects, node.line)
    if isinstance(node, ast.Assignment):
        return AssignOp(node.name, _compile_word(node.value), node.line)
    if isinstance(node, ast.Try):
        body = _compile_group(node.body)
        catch = _compile_group(node.catch) if node.catch is not None else None
        return TryOp(node.limits, body, catch, node.line)
    if isinstance(node, ast.ForAny):
        return ForAnyOp(node.var,
                        tuple(_compile_word(word) for word in node.values),
                        _compile_group(node.body), node.line)
    if isinstance(node, ast.ForAll):
        return ForAllOp(node.var,
                        tuple(_compile_word(word) for word in node.values),
                        _compile_group(node.body), node.line)
    if isinstance(node, ast.If):
        orelse = _compile_group(node.orelse) if node.orelse is not None else None
        return IfOp(_compile_expr(node.condition),
                    _compile_group(node.then), orelse, node.line)
    if isinstance(node, ast.FailureAtom):
        return FailureOp(node.line)
    if isinstance(node, ast.SuccessAtom):
        return None
    if isinstance(node, ast.FunctionDef):
        return FuncDefOp(FunctionPlan(node.name, _compile_group(node.body)))
    raise FtshRuntimeError(f"unknown statement node: {node!r}")  # pragma: no cover


def compile_script(script: ast.Script) -> ScriptPlan:
    """Compile a parsed script into an immutable execution plan."""
    return ScriptPlan(_compile_group(script.body), script.source_name)


# ----------------------------------------------------------------------
# compile_cached: the LRU beside parse_cached
# ----------------------------------------------------------------------
class CompileCacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int


_CACHE_MAX = 256
_cache: "OrderedDict[int, tuple[ast.Script, ScriptPlan]]" = OrderedDict()
_cache_lock = threading.Lock()
_cache_hits = 0
_cache_misses = 0


def compile_cached(script: ast.Script) -> ScriptPlan:
    """Compile with an identity-keyed LRU.

    ``parse_cached`` returns shared ``Script`` objects, so identity is the
    natural (and cheapest) key; each entry pins its script, so an ``id``
    cannot be recycled while the entry lives.
    """
    global _cache_hits, _cache_misses
    key = id(script)
    with _cache_lock:
        entry = _cache.get(key)
        if entry is not None and entry[0] is script:
            _cache.move_to_end(key)
            _cache_hits += 1
            return entry[1]
    plan = compile_script(script)
    with _cache_lock:
        _cache_misses += 1
        _cache[key] = (script, plan)
        _cache.move_to_end(key)
        while len(_cache) > _CACHE_MAX:
            _cache.popitem(last=False)
    return plan


def compile_cache_info() -> CompileCacheInfo:
    with _cache_lock:
        return CompileCacheInfo(_cache_hits, _cache_misses, _CACHE_MAX, len(_cache))


def compile_cache_clear() -> None:
    global _cache_hits, _cache_misses
    with _cache_lock:
        _cache.clear()
        _cache_hits = 0
        _cache_misses = 0
