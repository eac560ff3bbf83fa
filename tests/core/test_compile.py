"""``repro.core.compile``: compiled plans must be observationally
identical to the tree-walking evaluator.

The contract under test is strict: for any script and any deterministic
driver, tree-walk and compiled execution produce the same outcome, the
same :class:`ShellLog` event stream (at every log level), the same span
tree, and the same final variable bindings.  The suite drives both
modes over hand-written edge-case scripts, every shipped ``.ftsh``
file, and Hypothesis-generated nested try/forany/forall scripts.
"""

import inspect
import itertools
import pathlib
import re
from collections import deque

import pytest

import repro
from repro.cli import main as ftsh_main
from repro.core.compile import (
    compile_cached,
    compile_script,
)
from repro.core.effects import (
    CommandResult,
    GetRandom,
    GetTime,
    ParallelResult,
    RunCommand,
    RunParallel,
    Sleep,
    SleepResult,
)
from repro.core.interpreter import Interpreter
from repro.core.parser import parse
from repro.core.shell import Ftsh
from repro.core.shell_log import (
    LOG_COMMANDS,
    LOG_RESULTS,
    LOG_TRACE,
    TRANSCRIPT_EVENTS,
    ShellLog,
)
from repro.core.variables import Scope
from repro.obs.api import NULL_OBS, Observability
from repro.repl import Repl
from repro.simruntime.shell import SimFtsh

ROOT = pathlib.Path(__file__).resolve().parents[2]
SHIPPED = sorted(
    list((ROOT / "examples").glob("**/*.ftsh"))
    + list((ROOT / "tests" / "lint" / "fixtures").glob("**/*.ftsh"))
)

#: Every construct the compiler special-cases, in one script: retries
#: with captures, try-for windows, forany/forall fan-out, functions,
#: expressions, catch blocks, and a window expiring mid-command.
KITCHEN_SINK = """
greeting=hello
mode=fast
try 4 times every 1 second
    flaky ${greeting} --retries 0 -> body
end
try for 12 seconds
    wobble ${mode} -> wob
end
forany host in alpha beta gamma
    probe ${host} -> picked
end
forall node in n1 n2 n3
    work ${node} -> result
end
function greet
    echo "$1 of ${#}" -> out
end
greet world extra
if ${greeting} .eql. hello .and. ${wob} .eql. steady
    success
else
    failure
end
try 2 times every 1 second
    always_fails -> never
catch
    cleanup -> cleaned
end
try for 3 seconds every 1 second
    slowpoke -> slow
catch
    success
end
"""

#: Edge cases of the fused single-command try loop: a function call in
#: the body, an empty argv from an empty variable, a nested window
#: timing out, and exhaustion without a catch.
FUSED_EDGES = """
function fetchit
    flaky inner-$1 -> got
end
try 5 times every 1 second
    fetchit alpha
end
e=
try 2 times every 1 second
    ${e}
catch
    cleanup -> cleaned
end
try for 30 seconds
    try for 2 seconds every 1 second
        slowpoke -> s
    end
    after_inner -> a
end
try 3 times every 1 second
    always_fails -> x
end
"""


#: The plan / tree-walker boundary: what plans hand to the tree-walker
#: (an assignment, a function definition, a ``forall``) inside and
#: beside what they run themselves.  A ``forall`` whose branches run a
#: ``try`` under a plan-level window that expires; a function called
#: from an inlined single-command ``try`` and from a ``forany``
#: alternative; an assignment read by the next compiled command; and a
#: condition with an undefined operand, then one with a non-numeric
#: operand, whose reason ends the script.
MIXED_BOUNDARY = """
function fetch
    flaky inner-$1 -> got
end
try 5 times every 1 second
    fetch alpha
end
forany host in alpha beta
    fetch ${host}
    probe ${host} -> picked
end
tag=v-${picked}
work ${tag} -> worked
try for 3 seconds
    forall node in n1 n2
        try 4 times every 1 second
            always_fails ${node} -> x
        end
    end
catch
    cleanup ${tag} -> cleaned
end
try 2 times every 1 second
    if ${nope} .eq. 1
        success
    end
catch
    mode=abc
end
forany kind in numeric text
    if ${kind} .eql. text
        if ${mode} .lt. 3
            success
        end
    else
        failure
    end
end
"""


class ScriptedDriver:
    """Deterministic sans-IO driver over a virtual clock.

    Command behaviour is keyed by argv[0]: ``flaky``/``wobble`` fail a
    fixed number of times then succeed, ``probe`` succeeds only for one
    host, ``always_fails`` never succeeds, ``slowpoke`` burns virtual
    time past any small window, everything else succeeds immediately.
    """

    def __init__(self, fail_first=None):
        self.t = 0.0
        self.rand = itertools.cycle([0.31, 0.72, 0.11, 0.93, 0.55])
        self.counts = {}
        #: Optional {command name: failures before first success}
        #: override used by the sweep and the Hypothesis property.
        self.fail_first = fail_first

    def behavior(self, name, n, effect):
        if self.fail_first is not None:
            limit = self.fail_first.get(name, 0)
            if n < limit:
                return (1, "", False)
            return (0, f"out:{' '.join(effect.argv)}", False)
        if name == "flaky":
            return (1, "", False) if n < 2 else (0, f"payload-{n}", False)
        if name == "wobble":
            return (1, "", False) if n < 3 else (0, "steady", False)
        if name == "probe":
            host = effect.argv[1]
            return ((0, f"ok-{host}", False) if host == "beta"
                    else (1, "", False))
        if name == "always_fails":
            return (1, "", False)
        if name == "slowpoke":
            self.t += 5.0
            return (0, "late", True)
        return (0, f"out:{' '.join(effect.argv)}", False)

    def handle(self, effect):
        if isinstance(effect, GetTime):
            return self.t
        if isinstance(effect, GetRandom):
            return next(self.rand)
        if isinstance(effect, Sleep):
            end = min(self.t + effect.duration, effect.deadline)
            slept = max(0.0, end - self.t)
            timed_out = end < self.t + effect.duration
            self.t = max(self.t, end)
            return SleepResult(slept, timed_out)
        if isinstance(effect, RunCommand):
            name = effect.argv[0]
            n = self.counts.get(name, 0)
            self.counts[name] = n + 1
            exit_code, output, timed_out = self.behavior(name, n, effect)
            self.t += 0.25
            return CommandResult(
                exit_code, output if effect.capture else None, timed_out,
                detail=f"sim:{name}")
        if isinstance(effect, RunParallel):
            return self.run_parallel(effect)
        raise AssertionError(f"unknown effect {effect!r}")

    def run_parallel(self, effect):
        # Round-robin the branches so interleaving is deterministic.
        branches = effect.branches
        outcomes = [None] * len(branches)
        inbox = [("next", None)] * len(branches)
        live = deque(range(len(branches)))
        while live:
            i = live.popleft()
            gen = branches[i].generator
            kind, value = inbox[i]
            try:
                sub = next(gen) if kind == "next" else gen.send(value)
            except StopIteration:
                continue
            except BaseException as exc:
                outcomes[i] = exc
                continue
            inbox[i] = ("send", self.handle(sub))
            live.append(i)
        return ParallelResult(outcomes)

    def drive(self, gen):
        try:
            effect = next(gen)
            while True:
                effect = gen.send(self.handle(effect))
        except StopIteration:
            return ("ok", None)
        except BaseException as exc:
            return ("raise", f"{type(exc).__name__}: {exc}")


def observe(text, compiled, level=LOG_TRACE, with_obs=False,
            fail_first=None):
    """Run one mode and return its full observable surface."""
    script = parse(text)
    target = compile_script(script) if compiled else script
    scope = Scope()
    log = ShellLog(max_events=TRANSCRIPT_EVENTS, level=level)
    obs = Observability() if with_obs else NULL_OBS
    interp = Interpreter(scope, log=log, obs=obs)
    driver = ScriptedDriver(fail_first=fail_first)
    log.clock = lambda: driver.t
    if with_obs:
        obs.tracer.clock = lambda: driver.t
    outcome = driver.drive(interp.execute(target))
    events = [(e.time, e.kind, e.detail, e.line, e.value)
              for e in log.events]
    spans = []
    if with_obs:
        for span in obs.tracer.spans:
            spans.append((span.name, span.kind, span.status, span.start,
                          span.end,
                          tuple(sorted((span.attrs or {}).items()))))
    return outcome, events, spans, dict(sorted(scope.flatten().items()))


def assert_equivalent(text, **kwargs):
    tree = observe(text, compiled=False, **kwargs)
    compiled = observe(text, compiled=True, **kwargs)
    assert tree == compiled


class TestDeepEquivalence:
    """Both runtimes agree at every log level, with and without obs."""

    @pytest.mark.parametrize("text", [KITCHEN_SINK, FUSED_EDGES, MIXED_BOUNDARY],
                             ids=["kitchen-sink", "fused-edges",
                                  "mixed-boundary"])
    @pytest.mark.parametrize("level",
                             [LOG_TRACE, LOG_COMMANDS, LOG_RESULTS])
    @pytest.mark.parametrize("with_obs", [False, True],
                             ids=["no-obs", "obs"])
    def test_identical_observables(self, text, level, with_obs):
        assert_equivalent(text, level=level, with_obs=with_obs)

    def test_the_boundary_runs_what_it_names(self):
        outcome, events, _spans, bindings = observe(MIXED_BOUNDARY, True)
        assert outcome == ("raise", "FtshFailure: forany exhausted all "
                           "alternatives (last: non-numeric operand 'abc' "
                           "for .lt.)")
        assert bindings["worked"] == "out:work v-ok-beta"
        assert bindings["cleaned"] == "out:cleanup v-ok-beta"
        kinds = [kind.name for _time, kind, *_rest in events]
        assert kinds.count("FORALL_SPAWN") == 2
        assert kinds.count("CATCH_ENTERED") == 2

    @pytest.mark.parametrize("text,reason", [
        ("if ${nope} .eq. 1\n    success\nend\n", "nope"),
        ("x=abc\nif ${x} .lt. 3\n    success\nend\n",
         "non-numeric operand 'abc' for .lt."),
    ], ids=["undefined", "non-numeric"])
    def test_condition_failure_reasons_match(self, text, reason):
        tree = observe(text, compiled=False)
        assert tree == observe(text, compiled=True)
        assert tree[0][0] == "raise" and reason in tree[0][1]


class TestShippedScriptSweep:
    """Every ``.ftsh`` we ship runs identically under both modes."""

    def test_sweep_not_empty(self):
        assert len(SHIPPED) >= 5

    @pytest.mark.parametrize("path", SHIPPED,
                             ids=[p.name for p in SHIPPED])
    def test_shipped_script_equivalent(self, path):
        text = path.read_text()
        # Twice per script: everything succeeds immediately, then every
        # command fails twice first so retry/backoff paths execute.
        assert_equivalent(text, fail_first={})
        retry = {"nfs_read": 2, "condor_submit": 2, "wget": 2,
                 "store_output": 2, "touch": 2, "cut": 1}
        assert_equivalent(text, fail_first=retry, with_obs=True)


def observe_session(entries, compiled):
    """A REPL session's shape: one scope, one function table and one log
    carried across separately parsed (and compiled) entries."""
    scope = Scope()
    functions = {}
    log = ShellLog(max_events=TRANSCRIPT_EVENTS, level=LOG_TRACE)
    driver = ScriptedDriver(fail_first={})
    log.clock = lambda: driver.t
    outcomes = []
    for text in entries:
        script = parse(text)
        target = compile_script(script) if compiled else script
        interp = Interpreter(scope, log=log, functions=functions)
        outcomes.append(driver.drive(interp.execute(target)))
    events = [(e.time, e.kind, e.detail, e.line, e.value)
              for e in log.events]
    return outcomes, events, dict(sorted(scope.flatten().items()))


class TestAcrossEntries:
    def test_function_from_an_earlier_entry_appends_to_a_callers_variable(self):
        # The body was compiled with another entry's plan; what it
        # appends must be what the caller reads next, and its
        # positionals must be unbound again on return.
        entries = [
            "function gather\n    fetch $1 ->> seen\nend\n",
            "seen=start\ngather alpha\ngather beta extra\n"
            "report ${seen} -> said\n",
        ]
        tree = observe_session(entries, compiled=False)
        compiled = observe_session(entries, compiled=True)
        assert tree == compiled
        outcomes, _events, bindings = compiled
        assert outcomes == [("ok", None), ("ok", None)]
        assert bindings == {
            "seen": "startout:fetch alphaout:fetch beta",
            "said": "out:report startout:fetch alphaout:fetch beta",
        }


class TestCompileCache:
    def test_same_ast_compiles_once(self, monkeypatch):
        from repro.core import compile as compile_module

        compiles = []
        real = compile_module.compile_script
        monkeypatch.setattr(compile_module, "compile_script",
                            lambda script: compiles.append(script)
                            or real(script))
        script = parse("probe alpha\n")
        first = compile_cached(script)
        second = compile_cached(script)
        assert first is second
        assert compiles == [script]

    def test_distinct_asts_get_distinct_plans(self):
        a = compile_cached(parse("probe alpha\n"))
        b = compile_cached(parse("probe beta\n"))
        assert a is not b


class TestLayoutGuard:
    """One runtime, one retry loop: a source grep, in the style of
    ``tests/service/test_http.py::TestLayoutGuard``, so the knob that
    chose the tree-walker or a second compiled ``try`` loop cannot come
    back unnoticed."""

    def test_the_forks_stay_closed(self):
        src = pathlib.Path(repro.__file__).parent
        knob = re.compile(r"REPRO_NO_COMPILE|no_compile|compilation_enabled")
        assert [str(path.relative_to(src))
                for path in sorted(src.rglob("*.py"))
                if knob.search(path.read_text())] == []
        for shell in (Ftsh, SimFtsh, Repl):
            assert "compile" not in inspect.signature(shell).parameters
        with pytest.raises(SystemExit) as usage:
            ftsh_main(["--no-compile", "-c", "true"])
        assert usage.value.code == 2
        compiler = (src / "core" / "compile.py").read_text()
        assert compiler.count("BackoffState(") == 1

    def test_every_variable_has_one_copy(self):
        # Plans read and write the Scope they are handed; a slot table
        # or a cell cache in front of it would be a second copy to keep
        # coherent on append, unset, spool and across REPL entries.
        compiler = (pathlib.Path(repro.__file__).parent
                    / "core" / "compile.py").read_text()
        assert not re.search(r"^class (Frame|_SlotTable)\b", compiler,
                             re.MULTILINE)
        assert ".cells" not in compiler

    def test_plans_shadow_only_what_campaigns_run(self):
        # Assignments, functions, forall and condition expressions have
        # one implementation, the tree-walker's; plans hand them over.
        compiler = (pathlib.Path(repro.__file__).parent
                    / "core" / "compile.py").read_text()
        assert not re.search(
            r"class (ForAllOp|FuncDefOp|FunctionPlan|AssignOp|_CmpNum|_CmpStr"
            r"|_TruthExpr|_NotExpr|_DefinedExpr|_BoolExpr)\b"
            r"|def (_call_function|_compile_expr|_run_branch)\b", compiler)
