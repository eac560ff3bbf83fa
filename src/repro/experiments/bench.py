"""Tracked benchmark harness: the perf trajectory as an artifact::

    python -m repro.experiments.bench --scale smoke --check   # CI gate
    python -m repro.experiments.bench --scale quick           # full numbers

Times six layers and writes them to ``BENCH_campaign.json`` (repo
root by convention) so performance is a tracked number from PR to PR:

* **engine** — raw event throughput of the discrete-event core
  (schedule + dispatch timeouts through ``Engine.run``), plus the
  ``run_horizon`` and ``interrupt_churn`` microbenches covering the
  numeric-horizon loop and interrupt-storm cancellation;
* **parse** — cold parses vs the memoized ``parse_cached`` path;
* **campaign** — the ``runall``-style figure grid executed serially vs
  on a process pool (``--jobs``), asserting the results are identical
  (annotated ``parallel_meaningful: false`` on a 1-CPU box, where pool
  "speedup" is pure overhead);
* **cache** — the same grid against a cold then a warm content-
  addressed result cache, asserting the warm run served every cell;
* **dist** — the same grid once per ``run_cells`` backend (in-process,
  socket) at a 2-worker fleet, each against a fresh cache, asserting
  both reproduced the serial results;
* **interp** — the interpreter-dispatch micro: a retry-heavy and a
  forall-heavy script driven tree-walk vs over compiled plans
  (``repro.core.compile``) against a canned-effect driver, plus cold vs
  cached compilation, asserting both modes observe identical logs and
  variables.

``--check`` additionally exits non-zero unless the JSON matches the
schema and the parallel/cached runs reproduced the serial results
exactly — that is the determinism contract ``repro.parallel`` sells.
``--compare OLD.json`` diffs the fresh run against a saved document and
exits non-zero if any tracked throughput metric dropped more than 25%.

Wall-clock numbers vary by machine; the ``identical`` flags must not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass

from ..clients.base import ETHERNET
from ..clients.scripts import reader_script
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
from ..core.parser import parse, parse_cached
from ..core.shell_log import LOG_RESULTS, ShellLog
from ..core.variables import Scope
from ..obs.api import NULL_OBS
from ..parallel.cache import ResultCache
from ..parallel.executor import CellSpec, resolve_jobs, run_cells
from ..parallel.transport import to_jsonable
from ..sim.engine import Engine
from ..sim.events import Interrupt
from .runall import SCALES, Scale, campaign_cells

SCHEMA = "repro.bench.campaign/6"

#: Keys every benchmark document must carry (checked by ``--check``).
REQUIRED = {
    "schema": str,
    "scale": str,
    "python": str,
    "cpu_count": int,
    "jobs": int,
    "cells": int,
    "engine": dict,
    "parse": dict,
    "campaign": dict,
    "cache": dict,
    "dist": dict,
    "interp": dict,
    "identical": dict,
}

#: Throughput metrics ``--compare`` holds to a floor (higher is better).
COMPARE_METRICS = (
    ("engine", "events_per_s"),
    ("engine", "run_horizon", "events_per_s"),
    ("engine", "interrupt_churn", "interrupts_per_s"),
    ("interp", "dispatch", "retry", "compiled_attempts_per_s"),
    ("interp", "dispatch", "retry", "speedup"),
    ("dist", "backend_overhead", "socket", "cells_per_s"),
)

#: Fractional throughput drop tolerated by ``--compare`` before failing.
COMPARE_TOLERANCE = 0.25


@dataclass(frozen=True)
class BenchScale:
    """Benchmark sizing: engine event count + campaign grid."""

    name: str
    engine_events: int
    interrupt_waiters: int
    parse_iterations: int
    campaign: Scale
    #: interp.dispatch sizing: retry attempts per run x runs.
    interp_attempts: int = 200
    interp_runs: int = 10


BENCH_SCALES = {
    "smoke": BenchScale(
        "smoke",
        engine_events=30_000,
        interrupt_waiters=5_000,
        parse_iterations=200,
        campaign=Scale(
            "bench-smoke",
            fig1_counts=(10, 20),
            fig1_duration=15.0,
            timeline_clients=20,
            timeline_duration=60.0,
            buffer_counts=(5, 10),
            buffer_duration=10.0,
            reader_duration=60.0,
        ),
    ),
    "quick": BenchScale("quick", engine_events=200_000,
                        interrupt_waiters=20_000,
                        parse_iterations=1_000,
                        campaign=SCALES["quick"],
                        interp_attempts=500,
                        interp_runs=30),
}


def _cpu_count() -> int:
    """CPUs actually available to this process (affinity-aware on 3.13+)."""
    probe = getattr(os, "process_cpu_count", os.cpu_count)
    return probe() or 1


def bench_engine(events: int) -> dict:
    """Schedule + dispatch ``events`` timeouts through the hot loop."""
    engine = Engine()
    for _ in range(events):
        engine.timeout(1.0)
    started = time.perf_counter()
    engine.run()
    seconds = time.perf_counter() - started
    return {
        "events": events,
        "seconds": round(seconds, 4),
        "events_per_s": round(events / seconds) if seconds else None,
    }


def bench_run_horizon(events: int, horizon: float = 50.0) -> dict:
    """The numeric-horizon loop the figure sweeps live in: dispatch the
    subset of ``events`` timeouts (delays cycling 0..99) due by
    ``horizon``."""
    engine = Engine()
    for i in range(events):
        engine.timeout(float(i % 100))
    # Delays cycle 0..99, so exactly the ones <= horizon dispatch.
    due = int(horizon) + 1
    dispatched = (events // 100) * due + min(events % 100, due)
    started = time.perf_counter()
    engine.run(until=horizon)
    seconds = time.perf_counter() - started
    return {
        "events": events,
        "dispatched": dispatched,
        "seconds": round(seconds, 4),
        "events_per_s": round(dispatched / seconds) if seconds else None,
    }


def bench_interrupt_churn(waiters: int) -> dict:
    """Interrupt-storm cost: ``waiters`` processes park on one shared
    event, then every one is interrupted.  Each resume must detach from
    the shared target's callback list — O(1) tombstoning keeps the storm
    linear (the old ``list.remove`` made it quadratic)."""
    engine = Engine()
    barrier = engine.event()

    def wait():
        try:
            yield barrier
        except Interrupt:
            return

    processes = [engine.process(wait()) for _ in range(waiters)]

    def storm():
        yield engine.timeout(1.0)
        for process in processes:
            process.interrupt()

    engine.process(storm())
    started = time.perf_counter()
    engine.run()
    seconds = time.perf_counter() - started
    return {
        "waiters": waiters,
        "seconds": round(seconds, 4),
        "interrupts_per_s": round(waiters / seconds) if seconds else None,
    }


def bench_parse(iterations: int) -> dict:
    """Cold parses vs memoized :func:`parse_cached` on the paper's most
    complex listing (what every simulated client re-parses per run)."""
    text = reader_script(ETHERNET, ("alpha", "beta", "gamma"))
    started = time.perf_counter()
    for _ in range(iterations):
        parse(text)
    cold_s = time.perf_counter() - started
    parse_cached.cache_clear()
    started = time.perf_counter()
    for _ in range(iterations):
        parse_cached(text)
    cached_s = time.perf_counter() - started
    return {
        "cold_vs_cached": {
            "iterations": iterations,
            "script_bytes": len(text),
            "cold_s": round(cold_s, 4),
            "cached_s": round(cached_s, 4),
            "speedup": round(cold_s / cached_s, 1) if cached_s else None,
        }
    }


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


def _flat_cells(scale: Scale, seed: int) -> list[CellSpec]:
    return [cell for cells in campaign_cells(scale, seed).values()
            for cell in cells]


def _fingerprint(results: list) -> str:
    """Deterministic serialization for result-identity checks."""
    return json.dumps([to_jsonable(result) for result in results],
                      sort_keys=True)


def bench_campaign(scale: Scale, seed: int, jobs: int) -> tuple[dict, dict]:
    """Serial vs parallel wall clock, then cold vs warm cache, on the
    same cell grid; both paths must reproduce the serial results.

    On a single-CPU box pool "speedup" is pure overhead, not signal, so
    the section is annotated ``parallel_meaningful: false`` and the
    speedup is left null rather than recording a misleading < 1 number.
    """
    cells = _flat_cells(scale, seed)

    started = time.perf_counter()
    serial = run_cells(cells, jobs=None)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = run_cells(cells, jobs=jobs)
    parallel_s = time.perf_counter() - started

    parallel_meaningful = _cpu_count() > 1
    campaign = {
        "cells": len(cells),
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "parallel_meaningful": parallel_meaningful,
        "speedup": (round(serial_s / parallel_s, 2)
                    if parallel_s and parallel_meaningful else None),
        "identical": _fingerprint(serial) == _fingerprint(parallel),
    }

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = ResultCache(tmp)
        started = time.perf_counter()
        cold = run_cells(cells, cache=cache)
        cold_s = time.perf_counter() - started
        started = time.perf_counter()
        warm = run_cells(cells, cache=cache)
        warm_s = time.perf_counter() - started
        cache_doc = {
            "cold_s": round(cold_s, 3),
            "warm_s": round(warm_s, 3),
            "speedup": round(cold_s / warm_s, 2) if warm_s else None,
            "hits": cache.hits,
            "misses": cache.misses,
            "all_cells_served": cache.hits == len(cells),
            "identical": (_fingerprint(serial) == _fingerprint(cold)
                          == _fingerprint(warm)),
        }
    return campaign, cache_doc


def bench_dist(scale: Scale, seed: int, serial: list,
               serial_s: float) -> dict:
    """Per-backend campaign throughput at a 2-worker fleet.

    Each backend runs the same grid against its own fresh cache
    directory (so every cell genuinely computes and then publishes into
    the shared store), and must reproduce the serial results exactly —
    the cross-backend determinism contract as a tracked number.
    Wall-clock overhead vs in-process is machine noise on small grids;
    the ``identical`` flags are the part that must never change.
    """
    cells = _flat_cells(scale, seed)
    reference = _fingerprint(serial)

    doc: dict = {"jobs": 2, "backend_overhead": {}}
    for backend in ("inprocess", "socket"):
        with tempfile.TemporaryDirectory(
                prefix=f"repro-bench-dist-{backend}-") as tmp:
            cache = ResultCache(tmp)
            started = time.perf_counter()
            results = run_cells(cells, jobs=2, cache=cache, backend=backend)
            seconds = time.perf_counter() - started
        doc["backend_overhead"][backend] = {
            "cells": len(cells),
            "seconds": round(seconds, 3),
            "cells_per_s": (round(len(cells) / seconds, 2)
                            if seconds else None),
            "overhead_vs_serial": (round(seconds / serial_s, 2)
                                   if serial_s else None),
            "identical": _fingerprint(results) == reference,
        }
    return doc


def run_bench(scale_name: str, seed: int, jobs: int | None) -> dict:
    """The full benchmark document for one scale."""
    scale = BENCH_SCALES[scale_name]
    workers = resolve_jobs(4 if jobs is None else jobs)
    engine_doc = bench_engine(scale.engine_events)
    engine_doc["run_horizon"] = bench_run_horizon(scale.engine_events)
    engine_doc["interrupt_churn"] = bench_interrupt_churn(
        scale.interrupt_waiters)
    parse_doc = bench_parse(scale.parse_iterations)
    interp_doc = bench_interp(scale.interp_attempts, scale.interp_runs)
    campaign_doc, cache_doc = bench_campaign(scale.campaign, seed, workers)
    serial = run_cells(_flat_cells(scale.campaign, seed))
    dist_doc = bench_dist(scale.campaign, seed, serial,
                          campaign_doc["serial_s"])
    return {
        "schema": SCHEMA,
        "scale": scale_name,
        "python": platform.python_version(),
        "cpu_count": _cpu_count(),
        "jobs": workers,
        "cells": campaign_doc["cells"],
        "engine": engine_doc,
        "parse": parse_doc,
        "campaign": campaign_doc,
        "cache": cache_doc,
        "dist": dist_doc,
        "interp": interp_doc,
        "identical": {
            "parallel_vs_serial": campaign_doc["identical"],
            "cache_vs_serial": cache_doc["identical"],
            "dist_vs_serial": all(
                entry["identical"]
                for entry in dist_doc["backend_overhead"].values()),
            "interp_compiled_vs_tree": interp_doc["identical"],
        },
    }


def check_document(doc: dict) -> list[str]:
    """Schema + determinism problems in a benchmark document."""
    problems: list[str] = []
    for key, kind in REQUIRED.items():
        if key not in doc:
            problems.append(f"missing key: {key}")
        elif not isinstance(doc[key], kind):
            problems.append(
                f"key {key}: expected {kind.__name__}, "
                f"got {type(doc[key]).__name__}")
    if doc.get("schema") not in (None, SCHEMA):
        problems.append(f"unknown schema: {doc.get('schema')!r}")
    identical = doc.get("identical", {})
    if identical.get("parallel_vs_serial") is not True:
        problems.append("parallel results differ from serial")
    if identical.get("cache_vs_serial") is not True:
        problems.append("cached results differ from serial")
    if "dist_vs_serial" in identical and \
            identical.get("dist_vs_serial") is not True:
        problems.append("a dist backend's results differ from serial")
    if "interp_compiled_vs_tree" in identical and \
            identical.get("interp_compiled_vs_tree") is not True:
        problems.append("compiled plans observably differ from tree-walk")
    if doc.get("cache", {}).get("all_cells_served") is not True:
        problems.append("warm cache did not serve every cell")
    return problems


def _dig(doc: dict, path: tuple[str, ...]):
    """Walk nested keys; None on any miss."""
    node = doc
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def compare_documents(old: dict, new: dict,
                      tolerance: float = COMPARE_TOLERANCE) -> list[str]:
    """Throughput regressions of ``new`` against a saved document.

    Each :data:`COMPARE_METRICS` entry present in *both* documents must
    not drop by more than ``tolerance`` (wall-clock noise is expected;
    25% is well past it).  Metrics missing from the old document — e.g.
    a schema/1 file predating the microbench sections — are skipped, so
    old baselines stay comparable.
    """
    problems: list[str] = []
    for path in COMPARE_METRICS:
        old_value = _dig(old, path)
        new_value = _dig(new, path)
        if not isinstance(old_value, (int, float)) or isinstance(old_value, bool):
            continue
        if not isinstance(new_value, (int, float)) or isinstance(new_value, bool):
            problems.append(f"{'.'.join(path)}: missing from fresh run")
            continue
        floor = old_value * (1.0 - tolerance)
        if new_value < floor:
            drop = (1.0 - new_value / old_value) * 100.0
            problems.append(
                f"{'.'.join(path)}: {new_value:,.0f} is {drop:.0f}% below "
                f"the saved {old_value:,.0f} (floor {floor:,.0f})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(BENCH_SCALES),
                        default="smoke")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="parallel worker count to benchmark against serial "
             "(default: 4; 0 = one per CPU)",
    )
    parser.add_argument("--out", default="BENCH_campaign.json",
                        help="where to write the benchmark document")
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the schema holds and parallel/cached "
             "runs match serial byte-for-byte",
    )
    parser.add_argument(
        "--compare", metavar="OLD.json", default=None,
        help="diff this run against a saved benchmark document and exit "
             f"non-zero on a >{COMPARE_TOLERANCE:.0%}% throughput drop",
    )
    args = parser.parse_args(argv)

    old_doc = None
    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as handle:
            old_doc = json.load(handle)

    doc = run_bench(args.scale, args.seed, args.jobs)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    print(json.dumps(doc, indent=2, sort_keys=True))

    failed = False
    if args.check:
        problems = check_document(doc)
        if problems:
            for problem in problems:
                print(f"CHECK FAILED: {problem}", file=sys.stderr)
            failed = True
        else:
            print("check ok: schema valid, parallel and cached runs identical")
    if old_doc is not None:
        regressions = compare_documents(old_doc, doc)
        if regressions:
            for regression in regressions:
                print(f"COMPARE FAILED: {regression}", file=sys.stderr)
            failed = True
        else:
            print(f"compare ok: no metric regressed past "
                  f"{COMPARE_TOLERANCE:.0%} of {args.compare}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
