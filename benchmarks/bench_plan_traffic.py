"""What the interpreter's specialisations serve — counted, not timed.

A specialisation — a field the parser precomputes on a node
(``repro/core/ast_nodes.py``, ``repro/core/tokens.py``) or the inlined
command of the interpreter's ``try`` loop — earns its lines by the
traffic it carries, and traffic is exact for a seed (counters over
sampling: Lazarevic & Sacks, PAPERS.md), so an A/B of it is a diff, not
a distribution.  This runs the two campaign grids the perf ledger times
— ``runall --scale medium`` (the ``figures_full`` workload) and
``chaos --scale smoke`` (``chaos_cache``) — and the reproduction gate's
extension cells at the seed (``validate.extension_cells``: the DAG,
Kangaroo, reservation and ablation scenarios), serially, in process,
and prints per grid:

* from the interpreter's own ``repro.obs`` counters: script runs,
  commands, ``try`` attempts, backoffs, ``forany`` picks, ``forall``
  branches;
* from counting wrappers applied here, outside ``src/`` (nothing in the
  package counts these): ``Scope.get`` / ``set`` / ``append`` calls,
  function calls, assignments, ``if`` conditions evaluated, and words
  expanded that hold a substitution;
* how the simulated commands were served — as a process (the driver's
  own counter) or by a timer (a handler that answered ``Quick``: the
  rest of those started) — the deadline timers queued and withdrawn,
  and the engine events dispatched (withdrawn timers are not events),
  per command too;
* ``ShellLog.record`` calls, and the events the logs still hold when
  each cell is done: a campaign cell reads back one tally, the
  overload alarm, so it should keep none;
* the objects each cell leaves in reference cycles — counted with the
  collector off while the cell runs and ``gc.collect()`` after it — which
  should be none: a finished world is freed by reference count.

Each grid runs twice and the run fails if any count differs::

    python3 benchmarks/bench_plan_traffic.py [--seed 2003]

Its output at the default seed is committed as
``benchmarks/reports/plan_traffic.txt``, and CI diffs a fresh run
against it: a change that moves a cost commits the new file.

Not tier-1 and not a ledger workload (a minute or two).  The verdicts
read off these counts are in docs/PERFORMANCE.md "What each
specialisation serves".
"""

import argparse
import contextlib
import dataclasses
import functools
import gc
import os
import sys
import types

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from repro.clients.base import by_name  # noqa: E402
from repro.core import interpreter  # noqa: E402
from repro.core.shell_log import ShellLog  # noqa: E402
from repro.core.tokens import Word  # noqa: E402
from repro.core.variables import Scope  # noqa: E402
from repro.experiments import chaos, runall, validate  # noqa: E402
# Imported before any count: a module's first import leaves garbage of
# its own (a ``dataclass(slots=True)`` replaces the class it decorates),
# which is not a cell's.
from repro.experiments import (  # noqa: E402,F401
    scenario_buffer, scenario_dag, scenario_kangaroo, scenario_replica,
    scenario_submit)
from repro.obs.api import Observability  # noqa: E402
from repro.sim import engine as kernel  # noqa: E402
from repro.sim.events import Timeout  # noqa: E402
from repro.simruntime.shell import SimFtsh  # noqa: E402

#: Row label -> the interpreter's counter family behind it.
OBS_COUNTERS = {
    "script runs": "ftsh_scripts_total",
    "commands": "ftsh_commands_total",
    "try attempts": "ftsh_try_attempts_total",
    "backoffs": "ftsh_backoff_initiations_total",
    "forany picks": "ftsh_forany_picks_total",
    "forall branches": "ftsh_forall_branches_total",
    "commands started": "ftsh_sim_processes_spawned_total",
}

#: The driver's count of the commands it ran as processes; the rest of
#: those started were served by a timer.
PROCESSES = "ftsh_sim_command_processes_total"


#: Row label -> the (owner, attribute, predicate over the call's
#: arguments) sites counted under it.  ``Scope.append`` and ``lookup``
#: read through ``get``, so an append or a function call's saved
#: positionals show up under ``Scope.get`` too.  A module-level function
#: is counted at every module that binds it.
WRAPPED = {
    "Scope.get calls": [(Scope, "get", None)],
    "Scope.set calls": [(Scope, "set", None)],
    "Scope.append calls": [(Scope, "append", None)],
    "function calls": [(interpreter.Interpreter, "call_function", None)],
    "assignments": [(interpreter.Interpreter, "eval_assignment", None)],
    "if conditions evaluated": [(interpreter, "evaluate", None)],
    "non-constant words expanded": [
        (Word, "expand", lambda word, _scope: bool(word.subs))],
    # Not a wrapper: derived from the driver's counters, kept here for
    # its place in the report.
    "commands timer-served": None,
    "deadline timers queued": [(kernel.Engine, "timeout_at", None)],
    "deadline timers withdrawn": [
        (Timeout, "cancel", lambda timer: timer.callbacks is not None)],
    "log records": [(ShellLog, "record", None)],
}


@contextlib.contextmanager
def counting_wrappers():
    """Count calls to every ``WRAPPED`` callable while the block runs."""
    tally = dict.fromkeys(WRAPPED, 0)
    originals = []

    def wrap(label, original, counts):
        @functools.wraps(original)
        def counted(*args, **kwargs):
            if counts is None or counts(*args):
                tally[label] += 1
            return original(*args, **kwargs)
        return counted

    try:
        for label, sites in WRAPPED.items():
            for owner, name, counts in sites or ():
                original = getattr(owner, name)
                originals.append((owner, name, original))
                setattr(owner, name, wrap(label, original, counts))
        yield tally
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


@contextlib.contextmanager
def counting_events():
    """Count the entries the engine pops that run (not withdrawn timers):
    the kernel reads ``heapq`` off its module on every call."""
    tally = {"engine events": 0}
    real = kernel.heapq

    def heappop(heap):
        entry = real.heappop(heap)
        if entry[2].callbacks is not None:
            tally["engine events"] += 1
        return entry

    kernel.heapq = types.SimpleNamespace(
        heappush=real.heappush, heappop=heappop, heapify=real.heapify)
    try:
        yield tally
    finally:
        kernel.heapq = real


@contextlib.contextmanager
def counting_kept_events():
    """Count the events each ``ShellLog`` built in the block holds when
    its cell is done — what a grid keeps, not what it records.  Call the
    yielded ``settle`` after each cell; it lets go of that cell's logs."""
    tally = {"log events kept": 0}
    logs = []
    real = ShellLog.__init__

    def init(self, *args, **kwargs):
        real(self, *args, **kwargs)
        logs.append(self)

    def settle():
        tally["log events kept"] += sum(len(log) for log in logs)
        logs.clear()

    ShellLog.__init__ = init
    try:
        yield tally, settle
    finally:
        ShellLog.__init__ = real


@contextlib.contextmanager
def counting_cycles():
    """Count the objects each cell leaves in reference cycles: the
    collector is off while a cell runs, and the yielded ``settle``,
    called after each cell, collects and counts what it left."""
    tally = {"objects left in cycles": 0}

    def settle():
        gc.enable()
        tally["objects left in cycles"] += gc.collect()
        gc.disable()

    gc.collect()
    gc.disable()
    try:
        yield tally, settle
    finally:
        gc.enable()


def runall_cells(seed):
    """``runall --scale medium``: every cell takes one params object."""

    def run(cell, obs):
        cell.fn(dataclasses.replace(cell.args[0], obs=obs))

    groups = runall.campaign_cells(runall.SCALES["medium"], seed)
    return [functools.partial(run, cell)
            for cells in groups.values() for cell in cells]


def chaos_cells(seed):
    """``chaos --scale smoke``: ``chaos.run_cell`` with our own obs."""

    def run(cell, obs):
        scenario_name, discipline, fault, level, scale, cell_seed = \
            cell.args[:6]
        scenario = chaos.SCENARIOS[scenario_name]
        specs = (() if fault is None or level == 0 else
                 chaos.FAULT_BY_NAME[fault].build(
                     level, scenario.duration(scale)))
        scenario.run(by_name(discipline), specs, scale, cell_seed, obs)

    return [functools.partial(run, cell)
            for cell in chaos.campaign_cells(chaos.SCALES["smoke"], seed)]


@contextlib.contextmanager
def shells_reporting_to(obs):
    """Hand ``obs`` to every ``SimFtsh`` built in the block without a
    telemetry context of its own: the DAG harness takes none, and its
    dispatchers build their shells themselves."""
    real = SimFtsh.__init__

    def init(self, *args, **kwargs):
        if kwargs.get("obs") is None:
            kwargs["obs"] = obs
        real(self, *args, **kwargs)

    SimFtsh.__init__ = init
    try:
        yield
    finally:
        SimFtsh.__init__ = real


def extension_cells(seed):
    """``validate.extension_cells``: a cell whose params carry ``obs``
    gets ours there, a DAG cell through its shells."""

    def run(cell, obs):
        params = cell.args[0]
        if hasattr(params, "obs"):
            cell.fn(dataclasses.replace(params, obs=obs))
        else:
            with shells_reporting_to(obs):
                cell.fn(params)

    return [functools.partial(run, cell)
            for cells in validate.extension_cells(seed).values()
            for cell in cells]


def count_grid(cells):
    """Run every cell against one telemetry context; return the counts."""
    # Counters only: no span is kept.
    obs = Observability(max_spans=0)
    with counting_wrappers() as tally, counting_events() as events, \
            counting_kept_events() as (kept, settle), \
            counting_cycles() as (cycles, collect):
        for run in cells:
            run(obs)
            settle()
            collect()

    def total(family_name):
        family = obs.metrics.get(family_name)
        return int(sum(
            child.value for child in family.children())) if family else 0

    counts = {label: total(name) for label, name in OBS_COUNTERS.items()}
    counts.update(tally)
    counts["commands as processes"] = processes = total(PROCESSES)
    counts["commands timer-served"] = counts["commands started"] - processes
    counts.update(events)
    counts["log records"] = counts.pop("log records")  # beside "kept"
    counts.update(kept)
    counts.update(cycles)
    return counts


GRIDS = {
    "runall --scale medium": runall_cells,
    "chaos --scale smoke": chaos_cells,
    "validate extension cells": extension_cells,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2003)
    args = parser.parse_args(argv)

    print(f"plan traffic at seed {args.seed} "
          "(each grid twice; every count must repeat)")
    status = 0
    for name, build in GRIDS.items():
        cells = build(args.seed)
        first, second = count_grid(cells), count_grid(cells)
        print(f"\n{name} ({len(cells)} cells)")
        for label, count in first.items():
            print(f"  {label:<30}{count:>12,}")
        commands = first["commands"] or 1
        print(f"  {'Scope.get calls per command':<30}"
              f"{first['Scope.get calls'] / commands:>12.3f}")
        print(f"  {'engine events per command':<30}"
              f"{first['engine events'] / commands:>12.3f}")
        moved = {label: (first[label], second[label])
                 for label in first if first[label] != second[label]}
        if moved:
            print(f"  FAILED: counts differ between the two runs: {moved}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
