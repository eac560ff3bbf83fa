"""A/B one shipped campaign cell between two source trees.

The comparison every kernel or plan-runtime PR needs and used to retype:
run one cell of a shipped grid in a fresh interpreter per run, from two
``src`` trees in alternation, and print CPU seconds, the result digest,
each side's median [q1, q3] and in how many pairs the change read
lower::

    python3 benchmarks/ab_cell.py PARENT_SRC CHANGE_SRC \\
        [--cell fig1/fixed/n450] [--scale medium] [--pairs 12]

``PARENT_SRC`` and ``CHANGE_SRC`` are what ``PYTHONPATH`` is set to (the
``src`` directory of a checkout; ``git archive`` or ``git clone`` the
parent commit somewhere first).  A cell is named by the key the campaign
already gives it: ``runall.campaign_cells(SCALES[scale], 2003)`` for the
figure grids (``fig1/fixed/n450``, ``fig45/ethernet/p50``, ...) and
``chaos.campaign_cells`` for keys that start with ``chaos/`` (pass
``--scale smoke``).  Which side goes first alternates from pair to pair.
The timed region is ``time.process_time`` around the cell function only
(imports and grid construction are outside it), and the digest is the
sha256 of the result's canonical JSON (``to_jsonable``, sorted keys) —
the equality the determinism suite asserts.  Exits 1 if any two runs
disagree on the digest, 2 on a bad cell name.

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
import hashlib, json, sys, time
cell, scale = sys.argv[1:3]
if cell.startswith("chaos/"):
    from repro.experiments import chaos as campaign
else:
    from repro.experiments import runall as campaign
from repro.parallel.transport import to_jsonable
if scale not in campaign.SCALES:
    sys.exit(f"no scale {scale!r} in {campaign.__name__}: {sorted(campaign.SCALES)}")
cells = campaign.campaign_cells(campaign.SCALES[scale], 2003)
if isinstance(cells, dict):
    cells = [spec for group in cells.values() for spec in group]
by_key = {spec.key: spec for spec in cells}
if cell not in by_key:
    sys.exit(f"no cell {cell!r} at scale {scale!r}; keys: {' '.join(sorted(by_key))}")
spec = by_key[cell]
start = time.process_time()
result = spec.fn(*spec.args, **spec.kwargs)
cpu_s = time.process_time() - start
blob = json.dumps(to_jsonable(result), sort_keys=True, separators=(",", ":"))
print(json.dumps({"cpu_s": cpu_s,
                  "digest": hashlib.sha256(blob.encode()).hexdigest()}))
"""


def run_once(src: str, cell: str, scale: str) -> dict:
    """One fresh-interpreter run of ``cell`` against the tree at ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, cell, scale],
        env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(2)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> str:
    """``median [q1, q3]`` (inclusive quartiles; one value is its own)."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{statistics.median(values):.3f} [{q1:.3f}, {q3:.3f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--cell", default="fig1/fixed/n450")
    parser.add_argument("--scale", default="medium")
    parser.add_argument("--pairs", type=int, default=12)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    sources = {"parent": args.parent_src, "change": args.change_src}
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
              f"  parent {row['parent']['cpu_s']:.3f}  change {row['change']['cpu_s']:.3f}"
              f"  digest {row['parent']['digest'][:16]} {row['change']['digest'][:16]}",
              flush=True)
    lower = sum(c < p for p, c in zip(cpu["parent"], cpu["change"]))
    print(f"parent {spread(cpu['parent'])}")
    print(f"change {spread(cpu['change'])}")
    print(f"change lower in {lower}/{args.pairs} pairs")
    if len(digests) != 1:
        print(f"DIGEST MISMATCH: {sorted(digests)}")
        return 1
    print(f"digest {digests.pop()[:16]} on all {2 * args.pairs} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
