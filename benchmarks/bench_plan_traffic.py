"""What the compiled plans' specialisations serve — counted, not timed.

A specialisation in ``repro/core/compile.py`` earns its lines by the
traffic it carries, and traffic is exact for a seed (counters over
sampling: Lazarevic & Sacks, PAPERS.md), so an A/B of it is a diff, not
a distribution.  This runs the two campaign grids the perf ledger times
— ``runall --scale medium`` (the ``figures_full`` workload) and
``chaos --scale smoke`` (``chaos_cache``) — serially, in process, and
prints per grid:

* from the interpreter's own ``repro.obs`` counters: script runs,
  commands, ``try`` attempts, backoffs, ``forany`` picks, ``forall``
  branches;
* from counting wrappers applied here, outside ``src/`` (nothing in the
  package counts these): ``Scope.get`` / ``set`` / ``append`` calls,
  function calls, and words expanded that hold a substitution.

Each grid runs twice and the run fails if any count differs::

    python3 benchmarks/bench_plan_traffic.py [--seed 2003]

Not tier-1 and not a ledger workload (a minute or two).  The verdicts
read off these counts are in docs/PERFORMANCE.md "What each
specialisation serves".
"""

import argparse
import contextlib
import dataclasses
import functools
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from repro.clients.base import by_name  # noqa: E402
from repro.core import compile as plans  # noqa: E402
from repro.core.variables import Scope  # noqa: E402
from repro.experiments import chaos, runall  # noqa: E402
from repro.obs.api import Observability  # noqa: E402

#: Row label -> the interpreter's counter family behind it.
OBS_COUNTERS = {
    "script runs": "ftsh_scripts_total",
    "commands": "ftsh_commands_total",
    "try attempts": "ftsh_try_attempts_total",
    "backoffs": "ftsh_backoff_initiations_total",
    "forany picks": "ftsh_forany_picks_total",
    "forall branches": "ftsh_forall_branches_total",
}

#: Row label -> (owner, attribute, predicate over the call's arguments).
#: ``Scope.append`` and ``lookup`` read through ``get``, so an append or
#: a function call's saved positionals show up under ``Scope.get`` too.
WRAPPED = {
    "Scope.get calls": (Scope, "get", None),
    "Scope.set calls": (Scope, "set", None),
    "Scope.append calls": (Scope, "append", None),
    "function calls": (plans, "_call_function", None),
    "non-constant words expanded": (
        plans.CompiledWord, "expand", lambda word, _scope: bool(word.subs)),
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
        for label, (owner, name, counts) in WRAPPED.items():
            original = getattr(owner, name)
            originals.append((owner, name, original))
            setattr(owner, name, wrap(label, original, counts))
        yield tally
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


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


def count_grid(cells):
    """Run every cell against one telemetry context; return the counts."""
    # Counters only: no span is kept, no gauge series grows.
    obs = Observability(keep_series=False, max_spans=0)
    with counting_wrappers() as tally:
        for run in cells:
            run(obs)
    counts = {}
    for label, family_name in OBS_COUNTERS.items():
        family = obs.metrics.get(family_name)
        counts[label] = int(sum(
            child.value for child in family.children())) if family else 0
    counts.update(tally)
    return counts


GRIDS = {
    "runall --scale medium": runall_cells,
    "chaos --scale smoke": chaos_cells,
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
        moved = {label: (first[label], second[label])
                 for label in first if first[label] != second[label]}
        if moved:
            print(f"  FAILED: counts differ between the two runs: {moved}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
