"""The ftsh evaluator: a sans-IO generator over the effect protocol.

``Interpreter.execute(script)`` returns a generator.  Drive it by sending
effect results back for each yielded effect (see
:mod:`repro.core.effects`).  The generator finishes normally on success
and raises :class:`FtshFailure` / :class:`FtshTimeout` on failure —
exactly the success-or-failure semantics of an ftsh procedure.

Key semantic rules implemented here (paper §4):

* A group fails fast: the first failing statement aborts the rest.
* ``try`` retries its body with exponential backoff (base 1 s, doubling,
  1 h cap, jitter in [1,2)) until the time window and/or attempt budget
  is exhausted; then the ``catch`` block (if any) decides the outcome,
  else the try fails.
* Nested ``try`` deadlines clip: an inner limit never extends an outer
  one.  A timeout unwinds to the ``try`` whose deadline expired; each
  ``try`` converts *its own* expiry into plain failure and re-raises
  outer expiries.
* ``forany`` tries alternatives in order until one succeeds; the loop
  variable keeps the winning value afterwards.
* ``forall`` runs all alternatives in parallel; the first failure
  cancels the remaining branches and fails the construct.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from . import ast_nodes as ast
from .backoff import BackoffPolicy, BackoffState, PAPER_POLICY
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
from ..obs.api import NULL_OBS
from ..obs.spans import Span
from .expressions import evaluate as evaluate_expr
from .shell_log import EventKind, ShellLog
from .timeline import UNBOUNDED, AttemptBudget, DeadlineStack
from .variables import Scope, expand_word, expand_words

EvalGen = Generator[Effect, Any, None]

#: Minimal retry delay imposed when an attempt failed without consuming
#: any time under a zero-delay policy — prevents livelock (see eval_try).
ZERO_PROGRESS_QUANTUM = 0.001

#: Guard against runaway recursive ftsh functions.
MAX_FUNCTION_DEPTH = 64


class Interpreter:
    """Evaluates one script (or one ``forall`` branch) against a scope."""

    def __init__(
        self,
        scope: Optional[Scope] = None,
        policy: BackoffPolicy = PAPER_POLICY,
        log: Optional[ShellLog] = None,
        functions: Optional[dict[str, ast.FunctionDef]] = None,
        obs: Any = NULL_OBS,
        span_parent: Optional[Span] = None,
    ) -> None:
        self.scope = scope if scope is not None else Scope()
        self.policy = policy
        self.log = log if log is not None else ShellLog()
        self.deadlines = DeadlineStack()
        #: Functions registered so far; shared with forall branches.
        self.functions: dict[str, ast.FunctionDef] = (
            functions if functions is not None else {}
        )
        self._call_depth = 0
        #: Telemetry context (tracer + metrics); NULL_OBS no-ops when off.
        self.obs = obs
        #: The span new spans nest under (a forall branch starts under
        #: its branch span; a top-level script starts at the root).
        self._span: Optional[Span] = span_parent
        #: Fast guard the compiled plans use to skip span-name
        #: construction entirely when telemetry is disabled.
        self._obs_on = bool(getattr(obs, "enabled", True))

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def execute(self, script: Any, overall_deadline: float = UNBOUNDED) -> EvalGen:
        """Evaluate a whole script, optionally under a global deadline.

        ``script`` is either a parsed :class:`~repro.core.ast_nodes.Script`
        (tree-walked) or a compiled
        :class:`~repro.core.compile.ScriptPlan` (plan-dispatched); both
        speak the same effect protocol with identical semantics.
        """
        if isinstance(script, ast.Script):
            return self._execute_top(script.body, overall_deadline)
        return script.execute(self, overall_deadline)

    def _execute_top(self, body: ast.Group, overall_deadline: float) -> EvalGen:
        self.deadlines.push(overall_deadline)
        tracer = self.obs.tracer
        span = tracer.start("script", "script", parent=self._span)
        outer, self._span = self._span, span
        try:
            yield from self.eval_group(body)
            self.log.record(EventKind.SCRIPT_RESULT, "success")
            tracer.finish(span, "ok")
        except FtshFailure as failure:
            self.log.record(EventKind.SCRIPT_RESULT, f"failure: {failure.reason}")
            tracer.finish(span, "failed", reason=failure.reason)
            raise
        except FtshTimeout as timeout:
            self.log.record(EventKind.SCRIPT_RESULT, f"timeout: {timeout.reason}")
            tracer.finish(span, "timeout", reason=timeout.reason)
            raise
        except BaseException:
            tracer.finish(span, "cancelled")
            raise
        finally:
            self._span = outer
            self.deadlines.pop()

    # ------------------------------------------------------------------
    # Statement dispatch
    # ------------------------------------------------------------------
    def eval_group(self, group: ast.Group) -> EvalGen:
        for statement in group.body:
            yield from self.eval_statement(statement)

    def eval_statement(self, node: ast.Statement) -> EvalGen:
        if isinstance(node, ast.Command):
            yield from self.eval_command(node)
        elif isinstance(node, ast.Assignment):
            yield from self.eval_assignment(node)
        elif isinstance(node, ast.Try):
            yield from self.eval_try(node)
        elif isinstance(node, ast.ForAny):
            yield from self.eval_forany(node)
        elif isinstance(node, ast.ForAll):
            yield from self.eval_forall(node)
        elif isinstance(node, ast.If):
            yield from self.eval_if(node)
        elif isinstance(node, ast.FailureAtom):
            self.log.record(EventKind.FAILURE_ATOM, line=node.line)
            raise FtshFailure("failure atom")
        elif isinstance(node, ast.SuccessAtom):
            return
        elif isinstance(node, ast.FunctionDef):
            self.functions[node.name] = node
        else:  # pragma: no cover - parser produces no other nodes
            raise FtshRuntimeError(f"unknown statement node: {node!r}")

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def eval_assignment(self, node: ast.Assignment) -> EvalGen:
        value = expand_word(node.value, self.scope)
        self.scope.set(node.name, value)
        self.log.record(EventKind.ASSIGNMENT, f"{node.name}={value!r}", node.line)
        return
        yield  # pragma: no cover - makes this a generator

    def eval_command(self, node: ast.Command) -> EvalGen:
        argv = expand_words(node.words, self.scope)
        if not argv:
            raise FtshFailure("command expanded to nothing")
        if argv[0] in self.functions:
            yield from self.call_function(self.functions[argv[0]], argv, node)
            return
        tracer = self.obs.tracer

        effect = RunCommand(argv=argv, deadline=self.deadlines.effective())
        capture_var: str | None = None
        capture_append = False
        for redirect in node.redirects:
            if redirect.to_variable:
                name = redirect.target.literal_text() or ""
                if redirect.is_input:  # -<
                    effect.stdin_data = self.scope.get(name)
                    effect.stdin_file = None
                else:  # -> ->> ->& ->>&
                    capture_var = name
                    capture_append = redirect.appends
                    effect.capture = True
                    effect.merge_stderr = redirect.merges_stderr
                    effect.stdout_file = None
            else:
                target = expand_word(redirect.target, self.scope)
                if redirect.is_input:  # <
                    effect.stdin_file = target
                    effect.stdin_data = None
                else:  # > >> >& >>&
                    effect.stdout_file = target
                    effect.stdout_append = redirect.appends
                    effect.merge_stderr = redirect.merges_stderr
                    effect.capture = False
                    capture_var = None

        self.log.record(EventKind.COMMAND_START, " ".join(argv), node.line)
        span = tracer.start(f"command:{argv[0]}", "command", parent=self._span,
                            argv=" ".join(argv), line=node.line or None)
        try:
            result: CommandResult = yield effect
        except BaseException:
            # FtshCancelled thrown in at the yield (losing forall branch),
            # or generator teardown: the command did not report a result.
            tracer.finish(span, "cancelled")
            raise
        if result.timed_out:
            self.log.record(EventKind.COMMAND_TIMEOUT, " ".join(argv), node.line)
            tracer.finish(span, "timeout", detail=result.detail or None)
            raise FtshTimeout(self.deadlines.effective(), f"{argv[0]} hit time limit")
        if result.exit_code != 0:
            self.log.record(
                EventKind.COMMAND_FAILED,
                f"{' '.join(argv)} exited {result.exit_code} {result.detail}".rstrip(),
                node.line,
            )
            tracer.finish(span, "failed", exit_code=result.exit_code,
                          detail=result.detail or None)
            raise FtshFailure(f"{argv[0]} exited {result.exit_code}")
        if capture_var is not None:
            text = (result.output or "").rstrip("\n")
            if capture_append:
                self.scope.append(capture_var, text)
            else:
                self.scope.set(capture_var, text)
        self.log.record(EventKind.COMMAND_END, argv[0], node.line)
        tracer.finish(span, "ok")

    def call_function(
        self, function: ast.FunctionDef, argv: list[str], node: ast.Command
    ) -> EvalGen:
        """Invoke a defined function with positionals bound for the call.

        Positionals shadow existing bindings and are restored afterwards
        (stack discipline, so recursion works); every other variable
        write goes to the shared scope, shell-style.  Redirections on a
        function call are not supported — a function is not a process.
        """
        if node.redirects:
            raise FtshFailure(
                f"cannot redirect function call {function.name!r}"
            )
        if self._call_depth >= MAX_FUNCTION_DEPTH:
            raise FtshFailure(
                f"function recursion deeper than {MAX_FUNCTION_DEPTH}"
            )
        bindings = {"0": argv[0], "#": str(len(argv) - 1)}
        for index, arg in enumerate(argv[1:], start=1):
            bindings[str(index)] = arg
        saved = {name: self.scope.lookup(name) for name in bindings}
        for name, value in bindings.items():
            self.scope.set(name, value)
        self._call_depth += 1
        tracer = self.obs.tracer
        span = tracer.start(f"function:{function.name}", "function",
                            parent=self._span, line=node.line or None)
        caller_span, self._span = self._span, span
        try:
            yield from self.eval_group(function.body)
            tracer.finish(span, "ok")
        except FtshFailure:
            tracer.finish(span, "failed")
            raise
        except FtshTimeout:
            tracer.finish(span, "timeout")
            raise
        except BaseException:
            tracer.finish(span, "cancelled")
            raise
        finally:
            self._span = caller_span
            self._call_depth -= 1
            for name, previous in saved.items():
                if previous is None:
                    self.scope.unset(name)  # was unbound before the call
                else:
                    self.scope.set(name, previous)

    # ------------------------------------------------------------------
    # try / catch
    # ------------------------------------------------------------------
    def eval_try(self, node: ast.Try) -> EvalGen:
        now = yield GetTime()
        tracer = self.obs.tracer
        span = tracer.start(
            "try", "try", parent=self._span, line=node.line or None,
            limit_seconds=node.limits.duration,
            limit_attempts=node.limits.attempts,
        )
        enclosing, self._span = self._span, span
        try:
            succeeded, attempts = yield from self._try_attempts(node, now, span)
            if succeeded:
                tracer.finish(span, "ok", attempts=attempts)
                return

            # Exhausted.  The expired deadline is already popped, so the
            # catch block runs under the *enclosing* limits only.
            if node.catch is not None:
                self.log.record(EventKind.CATCH_ENTERED, line=node.line)
                catch_span = tracer.start("catch", "catch", parent=span,
                                          line=node.line or None)
                self._span = catch_span
                try:
                    yield from self.eval_group(node.catch)
                    tracer.finish(catch_span, "ok")
                except FtshFailure:
                    tracer.finish(catch_span, "failed")
                    raise
                except FtshTimeout:
                    tracer.finish(catch_span, "timeout")
                    raise
                except BaseException:
                    tracer.finish(catch_span, "cancelled")
                    raise
                finally:
                    self._span = span
                tracer.finish(span, "ok", attempts=attempts, caught=True)
                return
            tracer.finish(span, "failed", attempts=attempts)
            raise FtshFailure(f"try exhausted after {attempts} attempts")
        except FtshTimeout:
            tracer.finish(span, "timeout")
            raise
        except FtshFailure:
            tracer.finish(span, "failed")
            raise
        except BaseException:
            tracer.finish(span, "cancelled")
            raise
        finally:
            self._span = enclosing

    def _try_attempts(
        self, node: ast.Try, now: float, span: Optional[Span]
    ) -> Generator[Effect, Any, tuple[bool, int]]:
        """The retry loop of one ``try``: returns (succeeded, attempts).

        Re-raises timeouts belonging to enclosing windows; converts this
        try's own expiry into ``(False, n)`` so the caller can run the
        catch block.
        """
        wanted = UNBOUNDED if node.limits.duration is None else now + node.limits.duration
        clipped = self.deadlines.push(wanted)
        budget = AttemptBudget(deadline=clipped, max_attempts=node.limits.attempts)
        backoff = BackoffState(self.policy)
        succeeded = False
        attempt_start = now
        tracer = self.obs.tracer
        try:
            while True:
                budget.start_attempt()
                self.log.record(
                    EventKind.TRY_ATTEMPT, f"attempt {budget.attempts}", node.line
                )
                attempt_span = tracer.start(
                    f"attempt:{budget.attempts}", "attempt", parent=span
                )
                self._span = attempt_span
                try:
                    yield from self.eval_group(node.body)
                    succeeded = True
                    tracer.finish(attempt_span, "ok")
                    self.log.record(EventKind.TRY_SUCCESS, f"after {budget.attempts}", node.line)
                    return True, budget.attempts
                except FtshFailure:
                    tracer.finish(attempt_span, "failed")
                except FtshTimeout as timeout:
                    tracer.finish(attempt_span, "timeout")
                    if timeout.deadline < clipped:
                        raise  # belongs to an enclosing try
                    break  # our own window expired mid-attempt
                except BaseException:
                    tracer.finish(attempt_span, "cancelled")
                    raise
                finally:
                    self._span = span
                now = yield GetTime()
                if not budget.may_retry(now):
                    break
                if node.limits.every is not None:
                    delay = node.limits.every
                else:
                    jitter = yield GetRandom()
                    delay = backoff.next_delay_from_jitter(jitter)
                if delay <= 0 and now <= attempt_start:
                    # A zero-delay retry of an attempt that consumed no time
                    # would loop forever in a virtual clock (and spin a CPU
                    # in a real one).  Impose a minimal scheduling quantum.
                    delay = ZERO_PROGRESS_QUANTUM
                attempt_start = now
                delay = self.deadlines.clip(delay, now)
                if delay > 0:
                    self.log.record(
                        EventKind.TRY_BACKOFF,
                        f"failure {backoff.failures}: waiting {delay:.3f}s",
                        node.line,
                        value=delay,
                    )
                    sleep_span = tracer.start(
                        f"backoff:{budget.attempts}", "backoff", parent=span,
                        delay=delay,
                    )
                    try:
                        sleep_result: SleepResult = yield Sleep(delay, clipped)
                    except BaseException:
                        tracer.finish(sleep_span, "cancelled")
                        raise
                    tracer.finish(sleep_span, "ok", slept=sleep_result.slept)
                    if sleep_result.timed_out:
                        break
                    attempt_start = now + sleep_result.slept
        finally:
            self.deadlines.pop()
            if not succeeded:
                self.log.record(
                    EventKind.TRY_EXHAUSTED, f"after {budget.attempts} attempts", node.line
                )
        return False, budget.attempts

    # ------------------------------------------------------------------
    # forany / forall
    # ------------------------------------------------------------------
    def eval_forany(self, node: ast.ForAny) -> EvalGen:
        tracer = self.obs.tracer
        span = tracer.start(f"forany:{node.var}", "forany", parent=self._span,
                            line=node.line or None,
                            alternatives=len(node.values))
        enclosing, self._span = self._span, span
        last_failure: FtshFailure | None = None
        try:
            for value_word in node.values:
                value = expand_word(value_word, self.scope)
                self.scope.set(node.var, value)
                self.log.record(EventKind.FORANY_PICK, f"{node.var}={value}", node.line)
                alt_span = tracer.start(f"alt:{value}", "alt", parent=span)
                self._span = alt_span
                try:
                    yield from self.eval_group(node.body)
                    tracer.finish(alt_span, "ok")
                    tracer.finish(span, "ok", winner=value)
                    return  # winner; node.var keeps the successful value
                except FtshFailure as failure:
                    tracer.finish(alt_span, "failed")
                    last_failure = failure
                except FtshTimeout:
                    tracer.finish(alt_span, "timeout")
                    raise
                except BaseException:
                    tracer.finish(alt_span, "cancelled")
                    raise
                finally:
                    self._span = span
            reason = last_failure.reason if last_failure else "no alternatives"
            tracer.finish(span, "failed")
            raise FtshFailure(f"forany exhausted all alternatives (last: {reason})")
        except FtshTimeout:
            tracer.finish(span, "timeout")
            raise
        except BaseException:
            # finish() is idempotent, so an earlier ok/failed verdict sticks.
            tracer.finish(span, "cancelled")
            raise
        finally:
            self._span = enclosing

    def eval_forall(self, node: ast.ForAll) -> EvalGen:
        tracer = self.obs.tracer
        span = tracer.start(f"forall:{node.var}", "forall", parent=self._span,
                            line=node.line or None, branches=len(node.values))
        branch_spans: list[Optional[Span]] = []
        branches: list[ParallelBranch] = []
        for index, value_word in enumerate(node.values):
            value = expand_word(value_word, self.scope)
            branch_scope = self.scope.child()
            branch_scope.set(node.var, value)
            branch_span = tracer.start(f"branch:{node.var}={value}", "branch",
                                       parent=span)
            branch_spans.append(branch_span)
            branch = Interpreter(branch_scope, self.policy, self.log,
                                 functions=self.functions,
                                 obs=self.obs, span_parent=branch_span)
            # Branches inherit the current effective deadline as their base.
            branch.deadlines.push(self.deadlines.effective())
            generator = branch._branch_body(node.body)
            branches.append(ParallelBranch(f"{node.var}={value}#{index}", generator))
            self.log.record(EventKind.FORALL_SPAWN, f"{node.var}={value}", node.line)

        try:
            result: ParallelResult = yield RunParallel(
                branches, deadline=self.deadlines.effective()
            )
        except BaseException:
            for branch_span in branch_spans:
                tracer.finish(branch_span, "cancelled")
            tracer.finish(span, "cancelled")
            raise
        if len(result.outcomes) != len(branches):
            tracer.finish(span, "failed")
            raise FtshRuntimeError(
                f"driver returned {len(result.outcomes)} outcomes for "
                f"{len(branches)} branches"
            )
        timeout: FtshTimeout | None = None
        failure: BaseException | None = None
        for outcome, branch_span in zip(result.outcomes, branch_spans):
            if outcome is None:
                tracer.finish(branch_span, "ok")
                continue
            if isinstance(outcome, FtshTimeout):
                # Escaped every try inside the branch, so it belongs to one
                # of *our* enclosing scopes; keep the earliest.
                tracer.finish(branch_span, "timeout")
                if timeout is None or outcome.deadline < timeout.deadline:
                    timeout = outcome
            elif isinstance(outcome, FtshCancelled):
                tracer.finish(branch_span, "cancelled")
                failure = failure or outcome
            elif isinstance(outcome, FtshFailure):
                tracer.finish(branch_span, "failed")
                failure = failure or outcome
            else:
                tracer.finish(branch_span, "failed")
                tracer.finish(span, "failed")
                raise outcome  # driver bug or interpreter defect: surface it
        if timeout is not None:
            tracer.finish(span, "timeout")
            raise timeout
        if failure is not None:
            tracer.finish(span, "failed")
            raise FtshFailure(f"forall branch failed: {failure}")
        tracer.finish(span, "ok")

    def _branch_body(self, body: ast.Group) -> EvalGen:
        """Evaluate a forall branch body (run as its own effect generator)."""
        yield from self.eval_group(body)

    # ------------------------------------------------------------------
    # if / else
    # ------------------------------------------------------------------
    def eval_if(self, node: ast.If) -> EvalGen:
        verdict = evaluate_expr(node.condition, self.scope)
        self.log.record(EventKind.CONDITION, str(verdict), node.line)
        if verdict:
            yield from self.eval_group(node.then)
        elif node.orelse is not None:
            yield from self.eval_group(node.orelse)
