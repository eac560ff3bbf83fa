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

There is one evaluator, and the parsed tree is its plan: what does not
change between runs (a command's constant argv and log string, the
capture its redirects ask for, a ``try`` body that is one command) was computed
when the parser made the node (:mod:`repro.core.ast_nodes`).  Span
names and log details are built only when telemetry is on
(``_obs_on``) and the log level keeps the event: a campaign shell
builds neither.
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
from .expressions import evaluate
from .shell_log import LOG_COMMANDS, LOG_TRACE, EventKind, ShellLog
from .timeline import UNBOUNDED, DeadlineStack
from .variables import Scope

EvalGen = Generator[Effect, Any, None]

#: Minimal retry delay imposed when an attempt failed without consuming
#: any time under a zero-delay policy — prevents livelock (see eval_try).
ZERO_PROGRESS_QUANTUM = 0.001

#: Guard against runaway recursive ftsh functions.
MAX_FUNCTION_DEPTH = 64

#: Field-less effects carry no state, so one instance serves every yield:
#: drivers dispatch on type, never on identity or mutation.
_GET_TIME = GetTime()
_GET_RANDOM = GetRandom()
#: Raw allocator for the static-capture RunCommand: the dataclass
#: ``__init__`` spends its time on keyword plumbing for fields that path
#: sets explicitly anyway.
_RC_NEW = RunCommand.__new__


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
        #: With telemetry off no span is started, named or finished.
        self._obs_on = bool(getattr(obs, "enabled", True))

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def execute(self, script: ast.Script,
                overall_deadline: float = UNBOUNDED) -> EvalGen:
        """Evaluate a whole script, optionally under a global deadline."""
        return self._execute_top(script.body, overall_deadline)

    def _execute_top(self, body: ast.Group, overall_deadline: float) -> EvalGen:
        self.deadlines.push(overall_deadline)
        log = self.log
        obs_on = self._obs_on
        if obs_on:
            tracer = self.obs.tracer
            span = tracer.start("script", "script", parent=self._span)
            outer, self._span = self._span, span
        try:
            yield from self.eval_group(body)
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
                self._span = outer
            self.deadlines.pop()

    # ------------------------------------------------------------------
    # Statement dispatch
    # ------------------------------------------------------------------
    def eval_group(self, group: ast.Group) -> EvalGen:
        body = group.body
        if len(body) == 1:
            # A one-statement body is that statement's generator: one
            # frame per nesting level, so every nest the parser admits
            # runs, and a retried body costs no delegation frame.
            return self.eval_statement(body[0])
        return self._eval_sequence(body)

    def _eval_sequence(self, body: tuple) -> EvalGen:
        for statement in body:
            yield from self.eval_statement(statement)

    def eval_statement(self, node: ast.Statement) -> EvalGen:
        """The statement's effect generator, returned, not delegated to.

        A statement with no effects runs here and returns ``()``; the
        caller ``yield from``s the result at once either way, so it
        cannot tell the two apart.
        """
        kind = node.__class__
        if kind is ast.Command:
            return self.eval_command(node)
        if kind is ast.Try:
            return self.eval_try(node)
        if kind is ast.ForAny:
            return self.eval_forany(node)
        if kind is ast.If:
            return self.eval_if(node)
        if kind is ast.ForAll:
            return self.eval_forall(node)
        if kind is ast.Assignment:
            self.eval_assignment(node)
        elif kind is ast.FailureAtom:
            if self.log.level >= LOG_COMMANDS:
                self.log.record(EventKind.FAILURE_ATOM, line=node.line)
            raise FtshFailure("failure atom")
        elif kind is ast.FunctionDef:
            self.functions[node.name] = node
        elif kind is not ast.SuccessAtom:  # pragma: no cover
            raise FtshRuntimeError(f"unknown statement node: {node!r}")
        return ()

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def eval_assignment(self, node: ast.Assignment) -> None:
        value = node.value.expand(self.scope)
        self.scope.set(node.name, value)
        if self.log.level >= LOG_TRACE:
            self.log.record(EventKind.ASSIGNMENT, f"{node.name}={value!r}",
                            node.line)

    def eval_command(self, node: ast.Command) -> EvalGen:
        scope = self.scope
        const_argv = node.const_argv
        if const_argv is not None:
            argv = list(const_argv)
            joined = node.const_joined
        else:
            argv = _expand(node.template, scope)
            joined = None
        if not argv:
            raise FtshFailure("command expanded to nothing")
        name = argv[0]
        if name in self.functions:
            yield from self.call_function(self.functions[name], argv, node)
            return

        stack = self.deadlines._stack  # effective(), inlined for the hot path
        deadline = stack[-1] if stack else UNBOUNDED
        if node.static_capture:
            effect = _RC_NEW(RunCommand)
            effect.argv = argv
            effect.stdin_data = None
            effect.stdin_file = None
            effect.stdout_file = None
            effect.stdout_append = False
            effect.merge_stderr = node.merge_flag
            effect.capture = node.capture_flag
            effect.deadline = deadline
            capture_name = node.capture_name
            capture_append = node.capture_append
        else:
            effect = RunCommand(argv=argv, deadline=deadline)
            capture_name = None
            capture_append = False
            for redirect in node.redirects:
                if redirect.to_variable:
                    if redirect.is_input:  # -<
                        effect.stdin_data = scope.get(redirect.var_name)
                        effect.stdin_file = None
                    else:  # -> ->> ->& ->>&
                        capture_name = redirect.var_name
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

        log = self.log
        commands_on = log.level >= LOG_COMMANDS
        if commands_on:
            if joined is None:
                joined = " ".join(argv)
            log.record(EventKind.COMMAND_START, joined, node.line)
        obs_on = self._obs_on
        if obs_on:
            tracer = self.obs.tracer
            span = tracer.start(f"command:{name}", "command", parent=self._span,
                                argv=joined if joined is not None else " ".join(argv),
                                line=node.line or None)
        try:
            result: CommandResult = yield effect
        except BaseException:
            # FtshCancelled thrown in at the yield (losing forall branch),
            # or generator teardown: the command did not report a result.
            if obs_on:
                tracer.finish(span, "cancelled")
            raise
        if result.timed_out:
            if commands_on:
                log.record(EventKind.COMMAND_TIMEOUT, joined, node.line)
            if obs_on:
                tracer.finish(span, "timeout", detail=result.detail or None)
            # Only this interpreter pushes or pops, so the deadline the
            # command ran under is still the effective one.
            raise FtshTimeout(deadline, f"{name} hit time limit")
        if result.exit_code != 0:
            if commands_on:
                log.record(
                    EventKind.COMMAND_FAILED,
                    f"{joined} exited {result.exit_code} {result.detail}".rstrip(),
                    node.line,
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
            log.record(EventKind.COMMAND_END, name, node.line)
        if obs_on:
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
        obs_on = self._obs_on
        if obs_on:
            tracer = self.obs.tracer
            span = tracer.start(f"function:{function.name}", "function",
                                parent=self._span, line=node.line or None)
            caller_span, self._span = self._span, span
        try:
            yield from self.eval_group(function.body)
            if obs_on:
                tracer.finish(span, "ok")
        except BaseException as exc:
            if obs_on:
                tracer.finish(span, _verdict(exc))
            raise
        finally:
            if obs_on:
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
        """The one retry loop.

        When the body is a single static-capture command
        (``node.inline``: ``try … / one command [-> var] / end``, the
        paper's canonical retry shape) the loop drives it inline: no
        per-attempt body generator, no delegation frame under the effect
        send, and the attempt-failure ``FtshFailure`` this loop would
        catch at once is never raised.  Any other body is one
        ``yield from`` at the top of the attempt.  Both branches emit the
        same log events, spans and effects.
        """
        now = yield _GET_TIME
        log = self.log
        level = log.level
        trace_on = level >= LOG_TRACE
        commands_on = level >= LOG_COMMANDS
        obs_on = self._obs_on
        limits = node.limits
        if obs_on:
            tracer = self.obs.tracer
            span = tracer.start(
                "try", "try", parent=self._span, line=node.line or None,
                limit_seconds=limits.duration, limit_attempts=limits.attempts,
            )
            enclosing, self._span = self._span, span
        else:
            tracer = None
            span = None
        deadlines = self.deadlines
        scope = self.scope
        cmd = node.inline
        if cmd is not None:
            const_argv = cmd.const_argv
            capture_name = cmd.capture_name
            capture_append = cmd.capture_append
            capture_flag = cmd.capture_flag
            merge_flag = cmd.merge_flag
            cmd_line = cmd.line
            functions = self.functions
        try:
            max_attempts = limits.attempts
            if max_attempts is not None and max_attempts < 1:
                raise ValueError(
                    f"max_attempts must be >= 1, got {max_attempts}")
            # After our push the stack top IS `clipped` between attempts
            # (the stack is non-increasing), so clipping a delay to the
            # effective deadline is max(0, min(delay, clipped - now)),
            # and an inlined command, which never pushes, runs under
            # `clipped` too.
            wanted = UNBOUNDED if limits.duration is None else now + limits.duration
            clipped = deadlines.push(wanted)
            every = limits.every
            line = node.line
            backoff = BackoffState(self.policy)
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
                        self._span = attempt_span
                    # `failed` stands in for the FtshFailure a delegated
                    # body raises across the frame boundary.
                    failed = False
                    try:
                        if cmd is None:
                            yield from self.eval_group(node.body)
                        else:
                            if const_argv is not None:
                                argv = list(const_argv)
                                joined = cmd.const_joined
                            else:
                                argv = _expand(cmd.template, scope)
                                joined = None
                            if not argv:
                                failed = True  # "command expanded to nothing"
                            elif argv[0] in functions:
                                yield from self.call_function(
                                    functions[argv[0]], argv, cmd)
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
                                        parent=self._span,
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
                            self._span = span
                    now = yield _GET_TIME
                    if (max_attempts is not None and attempts >= max_attempts) \
                            or now >= clipped:
                        break  # the attempt budget or the window is spent
                    if every is not None:
                        delay = every
                    else:
                        jitter = yield _GET_RANDOM
                        delay = backoff.next_delay_from_jitter(jitter)
                    if delay <= 0 and now <= attempt_start:
                        # A zero-delay retry of an attempt that consumed no
                        # time would loop forever in a virtual clock (and
                        # spin a CPU in a real one): impose a quantum.
                        delay = ZERO_PROGRESS_QUANTUM
                    attempt_start = now
                    remaining = clipped - now
                    if delay > remaining:
                        delay = remaining
                    if delay > 0:
                        # The overload alarm: logged at every level.
                        log.record(
                            EventKind.TRY_BACKOFF,
                            f"failure {attempts}: waiting {delay:.3f}s",
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
                if not succeeded and commands_on:
                    log.record(EventKind.TRY_EXHAUSTED,
                               f"after {attempts} attempts", line)
            if succeeded:
                if obs_on:
                    tracer.finish(span, "ok", attempts=attempts)
                return
            yield from self._after_exhausted(node, attempts, span, tracer,
                                             obs_on, commands_on)
        except BaseException as exc:
            if obs_on:
                tracer.finish(span, _verdict(exc))
            raise
        finally:
            if obs_on:
                self._span = enclosing

    def _after_exhausted(self, node: ast.Try, attempts: int, span, tracer,
                         obs_on: bool, commands_on: bool) -> EvalGen:
        # The expired deadline is already popped, so the catch block runs
        # under the *enclosing* limits only.  (Cold path: this frame only
        # exists once exhaustion is certain.)
        if node.catch is None:
            if obs_on:
                tracer.finish(span, "failed", attempts=attempts)
            raise FtshFailure(f"try exhausted after {attempts} attempts")
        if commands_on:
            self.log.record(EventKind.CATCH_ENTERED, line=node.line)
        if obs_on:
            catch_span = tracer.start("catch", "catch", parent=span,
                                      line=node.line or None)
            self._span = catch_span
        try:
            yield from self.eval_group(node.catch)
            if obs_on:
                tracer.finish(catch_span, "ok")
        except BaseException as exc:
            if obs_on:
                tracer.finish(catch_span, _verdict(exc))
            raise
        finally:
            if obs_on:
                self._span = span
        if obs_on:
            tracer.finish(span, "ok", attempts=attempts, caught=True)

    # ------------------------------------------------------------------
    # forany / forall
    # ------------------------------------------------------------------
    def eval_forany(self, node: ast.ForAny) -> EvalGen:
        scope = self.scope
        log = self.log
        trace_on = log.level >= LOG_TRACE
        obs_on = self._obs_on
        if obs_on:
            tracer = self.obs.tracer
            span = tracer.start(f"forany:{node.var}", "forany",
                                parent=self._span, line=node.line or None,
                                alternatives=len(node.values))
            enclosing, self._span = self._span, span
        # The reason, not the failure: its traceback holds this frame.
        last_reason = "no alternatives"
        try:
            for value_word in node.values:
                value = value_word.expand(scope)
                scope.set(node.var, value)
                if trace_on:
                    log.record(EventKind.FORANY_PICK,
                               f"{node.var}={value}", node.line)
                if obs_on:
                    alt_span = tracer.start(f"alt:{value}", "alt", parent=span)
                    self._span = alt_span
                try:
                    yield from self.eval_group(node.body)
                    if obs_on:
                        tracer.finish(alt_span, "ok")
                        tracer.finish(span, "ok", winner=value)
                    return  # winner; node.var keeps the successful value
                except FtshFailure as failure:
                    if obs_on:
                        tracer.finish(alt_span, "failed")
                    last_reason = failure.reason
                except BaseException as exc:
                    if obs_on:
                        tracer.finish(alt_span, _verdict(exc))
                    raise
                finally:
                    if obs_on:
                        self._span = span
            if obs_on:
                tracer.finish(span, "failed")
            raise FtshFailure(f"forany exhausted all alternatives (last: {last_reason})")
        except BaseException as exc:
            # finish() is idempotent, so an earlier ok/failed verdict
            # sticks; a failure to expand a value cancels the span.
            if obs_on:
                tracer.finish(span, "timeout" if isinstance(exc, FtshTimeout)
                              else "cancelled")
            raise
        finally:
            if obs_on:
                self._span = enclosing

    def eval_forall(self, node: ast.ForAll) -> EvalGen:
        trace_on = self.log.level >= LOG_TRACE
        obs_on = self._obs_on
        tracer = self.obs.tracer
        span = branch_span = None
        if obs_on:
            span = tracer.start(f"forall:{node.var}", "forall",
                                parent=self._span, line=node.line or None,
                                branches=len(node.values))
        branch_spans: list[Optional[Span]] = []
        branches: list[ParallelBranch] = []
        for index, value_word in enumerate(node.values):
            value = value_word.expand(self.scope)
            branch_scope = self.scope.child()
            branch_scope.set(node.var, value)
            if obs_on:
                branch_span = tracer.start(f"branch:{node.var}={value}",
                                           "branch", parent=span)
                branch_spans.append(branch_span)
            branch = Interpreter(branch_scope, self.policy, self.log,
                                 functions=self.functions,
                                 obs=self.obs, span_parent=branch_span)
            # Branches inherit the current effective deadline as their base.
            branch.deadlines.push(self.deadlines.effective())
            generator = branch._branch_body(node.body)
            branches.append(ParallelBranch(f"{node.var}={value}#{index}", generator))
            if trace_on:
                self.log.record(EventKind.FORALL_SPAWN, f"{node.var}={value}",
                                node.line)

        try:
            result: ParallelResult = yield RunParallel(
                branches, deadline=self.deadlines.effective()
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
        for index, outcome in enumerate(result.outcomes):
            status = "ok"
            if outcome is None:
                pass
            elif isinstance(outcome, FtshTimeout):
                # Escaped every try inside the branch, so it belongs to one
                # of *our* enclosing scopes; keep the earliest.
                status = "timeout"
                if timeout is None or outcome.deadline < timeout.deadline:
                    timeout = outcome
            elif isinstance(outcome, (FtshCancelled, FtshFailure)):
                status = _verdict(outcome)
                failure = failure or outcome
            else:
                if obs_on:
                    tracer.finish(branch_spans[index], "failed")
                    tracer.finish(span, "failed")
                raise outcome  # driver bug or interpreter defect: surface it
            if obs_on:
                tracer.finish(branch_spans[index], status)
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

    def _branch_body(self, body: ast.Group) -> EvalGen:
        """Evaluate a forall branch body (run as its own effect generator)."""
        yield from self.eval_group(body)

    # ------------------------------------------------------------------
    # if / else
    # ------------------------------------------------------------------
    def eval_if(self, node: ast.If) -> EvalGen:
        verdict = evaluate(node.condition, self.scope)
        if self.log.level >= LOG_TRACE:
            self.log.record(EventKind.CONDITION, str(verdict), node.line)
        if verdict:
            yield from self.eval_group(node.then)
        elif node.orelse is not None:
            yield from self.eval_group(node.orelse)


def _expand(template: tuple, scope: Scope) -> list[str]:
    """Expand a command's argv template; a word that expands to "" is
    dropped unless it was quoted (shell-style elision, so
    ``$maybe_flag`` can legitimately vanish)."""
    argv = []
    for item in template:
        if item.__class__ is str:
            argv.append(item)
        else:
            text = item.expand(scope)
            if text or item.quoted:
                argv.append(text)
    return argv


def _verdict(exc: BaseException) -> str:
    """The status a span closes with when ``exc`` unwinds through it."""
    if isinstance(exc, FtshFailure):
        return "failed"
    if isinstance(exc, FtshTimeout):
        return "timeout"
    return "cancelled"
