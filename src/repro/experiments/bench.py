"""The interpreter-dispatch micro behind the ledger's ``core.interpreter.*`` rows.

``bench_interp`` drives a retry-heavy and a forall-heavy script through
the tree-walking oracle and over compiled plans
(:mod:`repro.core.compile`) against a canned-effect driver, times cold
vs cached compilation, and reports whether both runtimes observed
identical logs and variables.  ``benchmarks/ledger/layers.py`` is its
caller; the benchmark itself is ``python3 benchmarks/ledger/run.py``
(``BENCHMARK.json``).
"""

from __future__ import annotations

import time

from ..core.compile import compile_cached, compile_script
from ..core.effects import (
    CommandResult,
    GetRandom,
    GetTime,
    ParallelResult,
    RunCommand,
    RunParallel,
    Sleep,
    SleepResult,
)
from ..core.interpreter import Interpreter
from ..core.parser import parse
from ..core.shell_log import LOG_RESULTS, ShellLog
from ..core.variables import Scope
from ..obs.api import NULL_OBS

#: Retry-heavy interp micro: every attempt but the last fails, so the
#: run is dominated by attempt re-entry (backoff pacing + word expansion
#: + command dispatch) — exactly the loop compiled plans accelerate.
_INTERP_RETRY = """
url=http://mirror.example.org/pub/dataset.tar
try {attempts} times every 1 second
    fetch ${{url}} --retries 0 -> body
end
"""

#: Forall-heavy interp micro: 8 concurrent branches, each one capture.
_INTERP_FORALL = """
prefix=shard
forall node in a b c d e f g h
    work ${node} --input ${prefix} -> out
end
"""


class _DispatchDriver:
    """Thinnest possible sans-IO driver: answers effects with canned
    results against a virtual clock, failing the first ``fail_first``
    commands.  What it measures is pure interpreter dispatch."""

    __slots__ = ("t", "remaining")

    def __init__(self, fail_first: int) -> None:
        self.t = 0.0
        self.remaining = fail_first

    def drive(self, gen) -> None:
        send = None
        try:
            while True:
                effect = gen.send(send)
                kind = effect.__class__
                if kind is RunCommand:
                    if self.remaining > 0:
                        self.remaining -= 1
                        send = CommandResult(1, None, False, "")
                    else:
                        send = CommandResult(0, "payload", False, "")
                elif kind is GetTime:
                    send = self.t
                elif kind is Sleep:
                    self.t += effect.duration
                    send = SleepResult(effect.duration, False)
                elif kind is GetRandom:
                    send = 0.5
                elif kind is RunParallel:
                    outcomes = []
                    for branch in effect.branches:
                        try:
                            sub = branch.generator.send(None)
                            while True:
                                sub = branch.generator.send(self._answer(sub))
                        except StopIteration:
                            outcomes.append(None)
                        except BaseException as exc:  # branch failure payload
                            outcomes.append(exc)
                    send = ParallelResult(outcomes)
                else:
                    raise AssertionError(f"unexpected effect {effect!r}")
        except StopIteration:
            return

    def _answer(self, effect):
        kind = effect.__class__
        if kind is RunCommand:
            return CommandResult(0, "payload", False, "")
        if kind is GetTime:
            return self.t
        if kind is Sleep:
            self.t += effect.duration
            return SleepResult(effect.duration, False)
        if kind is GetRandom:
            return 0.5
        raise AssertionError(f"unexpected branch effect {effect!r}")


def _interp_run(target, fail_first: int, runs: int) -> None:
    for _ in range(runs):
        interp = Interpreter(Scope(), log=ShellLog(level=LOG_RESULTS),
                             obs=NULL_OBS)
        _DispatchDriver(fail_first).drive(interp.execute(target))


def _interp_observe(target, fail_first: int) -> tuple:
    """One run's full observable surface: log events + final variables."""
    log = ShellLog(clock=lambda: 0.0)
    scope = Scope()
    interp = Interpreter(scope, log=log, obs=NULL_OBS)
    _DispatchDriver(fail_first).drive(interp.execute(target))
    return tuple(log.events), sorted(scope.flatten().items())


def _best_of(fn, *args, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - started)
    return best


def bench_interp(attempts: int, runs: int) -> dict:
    """Tree-walk vs compiled-plan dispatch on retry- and forall-heavy
    scripts, plus cold vs cached compilation.

    Both modes drive the same canned-effect driver; ``identical`` holds
    only if they emit the same trace-level log events and leave the same
    variable bindings — the observational-equivalence contract of
    :mod:`repro.core.compile` as a tracked number.
    """
    retry_text = _INTERP_RETRY.format(attempts=attempts)
    retry_ast = parse(retry_text)
    retry_plan = compile_script(retry_ast)
    forall_ast = parse(_INTERP_FORALL)
    forall_plan = compile_script(forall_ast)
    fail_first = attempts - 1
    forall_runs = runs * 20

    # Warm both dispatch paths before timing.
    _interp_run(retry_ast, fail_first, 1)
    _interp_run(retry_plan, fail_first, 1)

    tree_retry = _best_of(_interp_run, retry_ast, fail_first, runs)
    compiled_retry = _best_of(_interp_run, retry_plan, fail_first, runs)
    tree_forall = _best_of(_interp_run, forall_ast, 0, forall_runs)
    compiled_forall = _best_of(_interp_run, forall_plan, 0, forall_runs)

    total_attempts = attempts * runs
    started = time.perf_counter()
    for _ in range(200):
        compile_script(retry_ast)
    cold_us = (time.perf_counter() - started) / 200 * 1e6
    compile_cached(retry_ast)
    started = time.perf_counter()
    for _ in range(200):
        compile_cached(retry_ast)
    cached_us = (time.perf_counter() - started) / 200 * 1e6

    identical = (
        _interp_observe(retry_ast, fail_first)
        == _interp_observe(retry_plan, fail_first)
        and _interp_observe(forall_ast, 0) == _interp_observe(forall_plan, 0)
    )
    return {
        "dispatch": {
            "retry": {
                "attempts": attempts,
                "runs": runs,
                "tree_s": round(tree_retry, 4),
                "compiled_s": round(compiled_retry, 4),
                "tree_attempts_per_s": (round(total_attempts / tree_retry)
                                        if tree_retry else None),
                "compiled_attempts_per_s": (
                    round(total_attempts / compiled_retry)
                    if compiled_retry else None),
                "speedup": (round(tree_retry / compiled_retry, 2)
                            if compiled_retry else None),
            },
            "forall": {
                "branches": 8,
                "runs": forall_runs,
                "tree_s": round(tree_forall, 4),
                "compiled_s": round(compiled_forall, 4),
                "speedup": (round(tree_forall / compiled_forall, 2)
                            if compiled_forall else None),
            },
        },
        "compile": {
            "cold_us": round(cold_us, 1),
            "cached_us": round(cached_us, 2),
            "speedup": round(cold_us / cached_us, 1) if cached_us else None,
        },
        "identical": identical,
    }
