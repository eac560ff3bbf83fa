"""A/B one shipped campaign cell between two source trees.

The comparison every kernel or plan-runtime PR needs and used to retype:
run one cell of a shipped grid in a fresh interpreter per run, from two
``src`` trees in alternation, and print CPU seconds, the result digest,
each side's median [q1, q3] and in how many pairs the change read
lower.  Beside each run's CPU seconds go the cyclic collector's passes
(gen0/1/2, from ``gc.callbacks`` around the cell), the objects those
passes collected, and the child's peak RSS (``ru_maxrss``): for a seed
the passes and the objects repeat exactly, so they compare two trees
where the seconds do not, and a change that leaves a new reference
cycle shows as objects collected where the parent collected none::

    python3 benchmarks/ab_cell.py PARENT_SRC CHANGE_SRC \\
        [--cell fig1/fixed/n450] [--scale medium] [--pairs 12]

``--cell all`` is the byte sweep instead: every cell of the figure grid
at ``--scale`` and of the chaos grid at ``--chaos-scale`` (67 cells at
the defaults, medium and smoke), one fresh interpreter per tree running
them all; it prints each side's CPU seconds and collector passes per
cell (the RSS column is the child's running peak) and exits 1 listing
every cell whose digests differ.  One pair by default; with ``--pairs
N`` the sweep repeats in alternation, prints each pair's totals, then
each side's total CPU seconds as median [q1, q3] and in how many pairs
the change read lower — the whole-grid A/B, where one cell's gain is
diluted by every cell it does not touch::

    python3 benchmarks/ab_cell.py PARENT_SRC CHANGE_SRC --cell all [--pairs 8]

Every child pins itself to one CPU (the lowest it may run on), as the
perf ledger's ``one_cpu`` pins its timed regions: on a shared host the
CPUs drift apart, and an unpinned whole-grid run mixes their speeds
into its spread.

``PARENT_SRC`` and ``CHANGE_SRC`` are what ``PYTHONPATH`` is set to (the
``src`` directory of a checkout; ``git archive`` or ``git clone`` the
parent commit somewhere first).  A cell is named by the key the campaign
already gives it: ``runall.campaign_cells(SCALES[scale], 2003)`` for the
figure grids (``fig1/fixed/n450``, ``fig45/ethernet/p50``, ...),
``chaos.campaign_cells`` for keys that start with ``chaos/`` (pass
``--scale smoke``), and ``validate.extension_cells(2003)`` for the
gate's extension cells (``dag/fixed``, ``kangaroo/fixed``,
``ablation/...``; ``--scale`` does not size them).  Which side goes first alternates from pair to pair.
The timed region is ``time.process_time`` around the cell function only
(imports and grid construction are outside it, and one ``gc.collect()``
after them keeps their garbage out of every cell's ``obj``), and the
digest is the
sha256 of the result's canonical JSON (``to_jsonable``, sorted keys) —
the equality the determinism suite asserts.  Exits 1 if any two runs
disagree on the digest, 2 on a bad cell name.  The sweep is the check a
change that may reorder same-instant events needs: a hop added or
dropped shows up in a storage cell long before a condor one.

Standard library only; not tier-1 and not a ledger workload.  See
docs/PERFORMANCE.md "Profiling a scenario".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

#: Runs in the child, with PYTHONPATH pointing at one tree.
CHILD = r"""
import gc, hashlib, json, os, resource, sys, time
# One CPU, for the reason the module docstring gives.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from repro.experiments import chaos, runall, validate
# The scenario modules the cells would load lazily, imported up front:
# a module's first import leaves garbage of its own (a
# ``dataclass(slots=True)`` replaces the class it decorates), which is
# not a cell's.
from repro.experiments import (
    scenario_buffer, scenario_dag, scenario_kangaroo, scenario_replica,
    scenario_submit)
from repro.parallel.transport import to_jsonable
scale, chaos_scale, wanted = sys.argv[1:4]

def flat(cells):
    if isinstance(cells, dict):
        cells = [spec for group in cells.values() for spec in group]
    return cells

def grid(campaign, name):
    if name not in campaign.SCALES:
        sys.exit(f"no scale {name!r} in {campaign.__name__}: {sorted(campaign.SCALES)}")
    return flat(campaign.campaign_cells(campaign.SCALES[name], 2003))

if wanted == "all":
    cells = grid(runall, scale) + grid(chaos, chaos_scale)
else:
    if wanted.startswith("chaos/"):
        pool = grid(chaos, scale)
    else:
        # The gate's extension cells have one fixed size: no scale.
        pool = grid(runall, scale) + flat(validate.extension_cells(2003))
    by_key = {spec.key: spec for spec in pool}
    if wanted not in by_key:
        sys.exit(f"no cell {wanted!r} at scale {scale!r}; keys: {' '.join(sorted(by_key))}")
    cells = [by_key[wanted]]
passes = [0, 0, 0]
collected = [0]
# What the imports and the grid left, swept before the first cell, so
# the ``obj`` column counts only what each cell leaves in cycles.
gc.collect()

def count_pass(phase, info):
    if phase == "stop":
        passes[info["generation"]] += 1
        collected[0] += info["collected"]

for spec in cells:
    passes[:] = [0, 0, 0]
    collected[0] = 0
    gc.callbacks.append(count_pass)
    start = time.process_time()
    result = spec.fn(*spec.args, **spec.kwargs)
    cpu_s = time.process_time() - start
    gc.callbacks.remove(count_pass)
    blob = json.dumps(to_jsonable(result), sort_keys=True, separators=(",", ":"))
    print(json.dumps({"cell": spec.key, "cpu_s": cpu_s, "gc": passes,
                      "collected": collected[0],
                      "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      "digest": hashlib.sha256(blob.encode()).hexdigest()}), flush=True)
"""


def costs(row: dict) -> str:
    """CPU seconds, collector passes gen0/1/2, the objects they
    collected and the child's peak RSS."""
    return (f"{row['cpu_s']:7.3f} s gc {'/'.join(map(str, row['gc'])):>11}"
            f" {row['collected']:>7} obj {row['rss_mb']:5.1f} MB")


def run_cells(src: str, cell: str, scale: str, chaos_scale: str) -> list[dict]:
    """One fresh interpreter against the tree at ``src``: a row per cell."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, scale, chaos_scale, cell],
        env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(2)
    return [json.loads(line) for line in done.stdout.splitlines()
            if line.startswith("{")]


def run_once(src: str, cell: str, scale: str) -> dict:
    """One fresh-interpreter run of ``cell`` against the tree at ``src``."""
    return run_cells(src, cell, scale, scale)[0]


def sweep(sources: dict[str, str], scale: str, chaos_scale: str, pairs: int) -> int:
    """Every cell of both grids per tree, ``pairs`` times in alternation;
    1 if any run's digest differs from the parent's first."""
    print(f"every cell: figures at {scale}, chaos at {chaos_scale} (seed 2003), "
          f"{pairs} alternated pair(s), CPU-s")
    cpu: dict[str, list[float]] = {"parent": [], "change": []}
    expected: dict[str, str] = {}
    mismatched: dict[str, None] = {}  # ordered set
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        rows = {side: run_cells(sources[side], "all", scale, chaos_scale) for side in order}
        for parent, change in zip(rows["parent"], rows["change"]):
            expected.setdefault(parent["cell"], parent["digest"])
            same = parent["digest"] == change["digest"] == expected[parent["cell"]]
            if not same:
                mismatched[parent["cell"]] = None
            if pair == 0:
                print(f"  {parent['cell']:<36} parent {costs(parent)}"
                      f"  change {costs(change)}  {'same' if same else 'DIFFERS'}")
        total = {side: sum(row["cpu_s"] for row in rows[side]) for side in rows}
        passes = {side: "/".join(str(sum(row["gc"][gen] for row in rows[side]))
                                 for gen in range(3))
                  + f" {sum(row['collected'] for row in rows[side])} obj"
                  for side in rows}
        for side in rows:
            cpu[side].append(total[side])
        print(f"total {pair + 1:2d} ({order[0]} first)"
              f"  parent {total['parent']:.3f} s gc {passes['parent']}"
              f" {rows['parent'][-1]['rss_mb']:.1f} MB"
              f"  change {total['change']:.3f} s gc {passes['change']}"
              f" {rows['change'][-1]['rss_mb']:.1f} MB", flush=True)
    if pairs > 1:
        print_spreads(cpu)
    if mismatched:
        print(f"DIGEST MISMATCH in {len(mismatched)} of {len(expected)} cells: "
              + " ".join(mismatched))
        return 1
    print(f"digests equal on all {len(expected)} cells")
    return 0


def spread(values: list[float]) -> str:
    """``median [q1, q3]`` (inclusive quartiles; one value is its own)."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{statistics.median(values):.3f} [{q1:.3f}, {q3:.3f}]"


def print_spreads(cpu: dict[str, list[float]]) -> None:
    """Each side's median [q1, q3] and the pairs where the change was lower."""
    lower = sum(c < p for p, c in zip(cpu["parent"], cpu["change"]))
    print(f"parent {spread(cpu['parent'])}")
    print(f"change {spread(cpu['change'])}")
    print(f"change lower in {lower}/{len(cpu['parent'])} pairs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--cell", default="fig1/fixed/n450")
    parser.add_argument("--scale", default="medium")
    parser.add_argument("--pairs", type=int, default=None,
                        help="alternated pairs (default 12; 1 under --cell all)")
    parser.add_argument("--chaos-scale", default="smoke",
                        help="the chaos grid's scale under --cell all")
    args = parser.parse_args(argv)
    if args.pairs is None:
        args.pairs = 1 if args.cell == "all" else 12
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    sources = {"parent": args.parent_src, "change": args.change_src}
    if args.cell == "all":
        return sweep(sources, args.scale, args.chaos_scale, args.pairs)
    cpu: dict[str, list[float]] = {"parent": [], "change": []}
    digests = set()
    print(f"cell {args.cell} (scale {args.scale}, seed 2003), {args.pairs} alternated pairs, CPU-s")
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        row = {side: run_once(sources[side], args.cell, args.scale) for side in order}
        for side in order:
            cpu[side].append(row[side]["cpu_s"])
            digests.add(row[side]["digest"])
        print(f"  pair {pair + 1:2d} ({order[0]} first)"
              f"  parent {costs(row['parent'])}  change {costs(row['change'])}"
              f"  digest {row['parent']['digest'][:16]} {row['change']['digest'][:16]}",
              flush=True)
    print_spreads(cpu)
    if len(digests) != 1:
        print(f"DIGEST MISMATCH: {sorted(digests)}")
        return 1
    print(f"digest {digests.pop()[:16]} on all {2 * args.pairs} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
