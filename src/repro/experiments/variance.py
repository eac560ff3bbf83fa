"""Seed-robustness study: do the paper's shape claims survive replication?

::

    python -m repro.experiments.variance --replications 10
    python -m repro.experiments.variance --replications 10 --jobs 4

Re-runs the headline comparison of each scenario across seeds and prints
mean ± CI per discipline, plus a pairwise dominance verdict for each
shape claim (common random numbers, so pairs share their workload).
Every (discipline, seed) replication is an independent simulation cell,
so ``--jobs`` fans the whole study out over a process pool without
changing a single number.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..clients.base import ALOHA, Discipline, ETHERNET, FIXED
from ..parallel.cache import ResultCache
from ..parallel.executor import (
    CellSpec,
    add_executor_arguments,
    cache_from_args,
    run_cells,
)
from .scenario_buffer import BufferParams, run_buffer
from .scenario_replica import ReplicaParams, run_replica
from .scenario_submit import SubmitParams, run_submission
from .stats import dominates, summarize

#: Study scale — module-level so tests can shrink it.
SUBMIT_CLIENTS = 400
SUBMIT_DURATION = 300.0
BUFFER_PRODUCERS = 40
BUFFER_DURATION = 60.0
READER_DURATION = 900.0


def _replicate_cells(
    study: str,
    disciplines: Sequence[Discipline],
    seeds: Sequence[int],
    params_for,
    run_fn,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    backend: Optional[str] = None,
) -> dict[str, list]:
    """Run ``run_fn(params_for(discipline, seed))`` for the full grid.

    Returns results grouped per discipline, seed-ordered — the common-
    random-numbers layout the dominance checks expect.
    """
    specs = [
        CellSpec(
            key=f"var/{study}/{discipline.name}/{seed}",
            fn=run_fn,
            args=(params_for(discipline, seed),),
        )
        for discipline in disciplines
        for seed in seeds
    ]
    results = run_cells(specs, jobs=jobs, cache=cache, backend=backend)
    grouped: dict[str, list] = {}
    for idx, discipline in enumerate(disciplines):
        grouped[discipline.name] = results[idx * len(seeds):(idx + 1) * len(seeds)]
    return grouped


def submission_study(seeds, jobs=None, cache=None, backend=None) -> list[str]:
    lines = [f"scenario 1 — {SUBMIT_CLIENTS} submitters, {SUBMIT_DURATION:.0f} s:"]
    grouped = _replicate_cells(
        "submit", (FIXED, ALOHA, ETHERNET), seeds,
        lambda d, seed: SubmitParams(discipline=d, n_clients=SUBMIT_CLIENTS,
                                     duration=SUBMIT_DURATION, seed=seed),
        run_submission, jobs=jobs, cache=cache, backend=backend,
    )
    summaries = {}
    for discipline in (FIXED, ALOHA, ETHERNET):
        result = summarize(
            grouped[discipline.name],
            {"jobs": lambda r: r.jobs_submitted,
             "crashes": lambda r: r.crashes},
        )
        summaries[discipline.name] = result
        lines.append(f"  {discipline.name:<9} {result['jobs']}")
        lines.append(f"  {discipline.name:<9} {result['crashes']}")
    claim = dominates(summaries["ethernet"]["jobs"], summaries["aloha"]["jobs"])
    lines.append(f"  claim 'ethernet > aloha jobs' in every replication: {claim}")
    claim = dominates(summaries["aloha"]["jobs"], summaries["fixed"]["jobs"])
    lines.append(f"  claim 'aloha > fixed jobs' in every replication: {claim}")
    return lines


def buffer_study(seeds, jobs=None, cache=None, backend=None) -> list[str]:
    lines = [f"scenario 2 — {BUFFER_PRODUCERS} producers, {BUFFER_DURATION:.0f} s:"]
    grouped = _replicate_cells(
        "buffer", (FIXED, ALOHA, ETHERNET), seeds,
        lambda d, seed: BufferParams(discipline=d, n_producers=BUFFER_PRODUCERS,
                                     duration=BUFFER_DURATION, seed=seed),
        run_buffer, jobs=jobs, cache=cache, backend=backend,
    )
    summaries = {}
    for discipline in (FIXED, ALOHA, ETHERNET):
        result = summarize(
            grouped[discipline.name],
            {"consumed": lambda r: r.files_consumed,
             "collisions": lambda r: r.collisions},
        )
        summaries[discipline.name] = result
        lines.append(f"  {discipline.name:<9} {result['consumed']}")
        lines.append(f"  {discipline.name:<9} {result['collisions']}")
    claim = dominates(summaries["aloha"]["consumed"],
                      summaries["fixed"]["consumed"])
    lines.append(f"  claim 'aloha > fixed files' in every replication: {claim}")
    claim = dominates(summaries["fixed"]["collisions"],
                      summaries["aloha"]["collisions"])
    lines.append(f"  claim 'fixed > aloha collisions' in every replication: {claim}")
    return lines


def replica_study(seeds, jobs=None, cache=None, backend=None) -> list[str]:
    lines = [f"scenario 3 — 3 readers, {READER_DURATION:.0f} s, one black hole:"]
    grouped = _replicate_cells(
        "replica", (ALOHA, ETHERNET), seeds,
        lambda d, seed: ReplicaParams(discipline=d, duration=READER_DURATION,
                                      seed=seed),
        run_replica, jobs=jobs, cache=cache, backend=backend,
    )
    summaries = {}
    for discipline in (ALOHA, ETHERNET):
        result = summarize(
            grouped[discipline.name],
            {"transfers": lambda r: r.transfers,
             "collisions": lambda r: r.collisions},
        )
        summaries[discipline.name] = result
        lines.append(f"  {discipline.name:<9} {result['transfers']}")
        lines.append(f"  {discipline.name:<9} {result['collisions']}")
    claim = dominates(summaries["ethernet"]["transfers"],
                      summaries["aloha"]["transfers"])
    lines.append(f"  claim 'ethernet > aloha transfers' in every replication: {claim}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replications", type=int, default=5)
    parser.add_argument("--base-seed", type=int, default=2003)
    add_executor_arguments(parser, cells="replication")
    args = parser.parse_args(argv)
    seeds = list(range(args.base_seed, args.base_seed + args.replications))
    cache = cache_from_args(args)

    for study in (submission_study, buffer_study, replica_study):
        for line in study(seeds, jobs=args.jobs, cache=cache,
                          backend=args.backend):
            print(line)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    # Run the importable copy of this module, not this ``__main__`` one:
    # cache keys carry each cell function's module, so ``python -m`` and
    # the library must name it alike to find each other's results.
    from repro.experiments.variance import main as _main

    sys.exit(_main())
