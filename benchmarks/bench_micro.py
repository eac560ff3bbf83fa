"""Micro-benchmarks for the building blocks (measure before optimizing —
the hpc-parallel guide's first rule).

These give wall-clock baselines for the parser, the event engine, the
interpreter round-trip, and the backoff computation, so regressions in
the hot paths show up as numbers rather than as mysteriously slow
figure regenerations.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.clients.base import ETHERNET
from repro.clients.scripts import reader_script
from repro.core.backoff import PAPER_POLICY, BackoffState
from repro.core.parser import parse
from repro.sim import Engine
from repro.simruntime import CommandRegistry, SimFtsh

READER_SCRIPT = reader_script(ETHERNET, ("xxx", "yyy", "zzz"))


def bench_parse_reader_script(benchmark):
    """Parser throughput on the paper's most complex listing."""
    script = benchmark(parse, READER_SCRIPT)
    assert script.body.body


def bench_engine_timeout_churn(benchmark):
    """A bulk drain: schedule 10k timeouts, then pop them all with
    nothing scheduled in between — ``heappush`` x n, ``heappop`` x n.
    No campaign has this shape (a figure cell holds about ``n_clients``
    entries and interleaves schedule and pop), so this prices the heap
    itself, not a scenario: docs/PERFORMANCE.md "Inside the event
    kernel"."""

    def churn():
        engine = Engine()
        for _ in range(10_000):
            engine.timeout(1.0)
        engine.run()
        return engine.now

    assert benchmark(churn) == 1.0


def bench_engine_run_horizon(benchmark):
    """The same bulk drain through ``run(until=t)``, the mode the
    runall figure sweeps call: 10k pre-scheduled timeouts, half of them
    due by the horizon and popped, the rest left queued."""

    def churn_to_horizon():
        engine = Engine()
        for i in range(10_000):
            engine.timeout(float(i % 100))
        engine.run(until=50.0)
        return engine.now

    assert benchmark(churn_to_horizon) == 50.0


def bench_engine_interrupt_churn(benchmark):
    """Interrupt delivery + waiter detach rate: park 1k processes on one
    shared event, interrupt them all (the O(1)-cancellation hot path)."""

    def churn():
        engine = Engine()
        barrier = engine.event()
        survived = []

        def waiter():
            try:
                yield barrier
            except Exception:
                survived.append(1)

        targets = [engine.process(waiter()) for _ in range(1_000)]

        def storm():
            yield engine.timeout(1.0)
            for target in targets:
                target.interrupt("storm")

        engine.process(storm())
        engine.run()
        return len(survived)

    assert benchmark(churn) == 1_000


def bench_engine_process_pingpong(benchmark):
    """Generator-process switching rate: two processes alternating."""

    def pingpong():
        engine = Engine()

        def ping():
            for _ in range(1_000):
                yield engine.timeout(1.0)

        engine.process(ping())
        engine.process(ping())
        engine.run()
        return engine.now

    assert benchmark(pingpong) == 1000.0


def bench_command_race_churn(benchmark):
    """One client, 20k ``true`` commands under a far ``try`` deadline:
    every command wins its race against the deadline timer, which is
    what a jammed figure-1 cell spends its time on.  Cost per command
    should stay flat as finished commands pile up (nothing they leave
    behind may grow the queue or the collector's live set)."""
    script = parse("try for 1000000 seconds\n" + "  true\n" * 100 + "end")

    def churn():
        engine = Engine()
        shell = SimFtsh(engine, CommandRegistry())
        for _ in range(200):
            result = shell.run(script)
        return result.success, len(engine._heap)

    success, queued = benchmark(churn)
    assert success and queued < 1_000


def bench_interpreter_roundtrip(benchmark):
    """Full script execution in virtual time (parse cached)."""
    script = parse("try 3 times\n  probe\nend")

    def run_once():
        engine = Engine()
        registry = CommandRegistry()

        @registry.register("probe")
        def probe(ctx):
            yield ctx.engine.timeout(0.1)
            return 1

        shell = SimFtsh(engine, registry)
        return shell.run(script)

    result = benchmark(run_once)
    assert not result.success  # probe always fails; 3 attempts consumed


def bench_backoff_schedule(benchmark):
    """Cost of computing a full 1000-failure backoff schedule."""

    def schedule():
        state = BackoffState(PAPER_POLICY)
        return sum(state.next_delay(lambda: 0.5) for _ in range(1_000))

    total = benchmark(schedule)
    assert total > 0


#: The entry modules of docs/PERFORMANCE.md "What a path imports"; the
#: empty entry is the interpreter alone, the floor under all of them.
COLD_IMPORTS = [
    "",
    "repro.experiments.chaos",
    "repro.parallel.executor, repro.dist.backends",
    "repro.service.client",
    "repro.dist.worker",
    "repro.experiments.runall",
    "repro.cli",
    "repro.service.app",
]


@pytest.mark.parametrize("modules", COLD_IMPORTS,
                         ids=[entry or "pass" for entry in COLD_IMPORTS])
def bench_cold_import(benchmark, modules):
    """A fresh interpreter importing one entry module: what every run of
    that CLI pays before its first line of work, and the micro for the
    ledger's ``parallel.import_s``.  Seven rounds; read the ``Min``
    column (best of 7).  No ``timeout=``: with one, ``subprocess`` polls
    for the exit in steps that grow to 50 ms and the reading is quantised
    to them."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    argv = [sys.executable, "-c", f"import {modules}" if modules else "pass"]
    done = benchmark.pedantic(
        subprocess.run, args=(argv,), rounds=7, iterations=1,
        kwargs={"env": dict(os.environ, PYTHONPATH=src)})
    assert done.returncode == 0
