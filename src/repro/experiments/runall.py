"""Regenerate every figure of the paper in one command::

    python -m repro.experiments.runall --scale quick    # smoke, seconds
    python -m repro.experiments.runall --scale medium   # the gated scale
    python -m repro.experiments.runall --scale full     # paper parameters

Writes one plain-text report per figure into ``--out`` (default
``./figure_reports``) and prints a summary table of the headline
numbers — the same numbers EXPERIMENTS.md records.

``quick`` is a smoke scale: about two seconds of cells on one CPU, too
small to show the paper's shapes — it fails the F1, F2, F3 and F5
claims of ``python -m repro.experiments.validate``.  ``medium`` is the
smallest scale at which every claim holds, and what that gate checks by
default; ``full`` runs the paper's parameters.  The gate evaluates the
very figures this module assembles (:func:`build_figures`).

The whole campaign is one flat grid of independent simulation cells, so
``--jobs N`` fans it out over N worker processes (``--jobs 0`` = one
per CPU) and the content-addressed result cache under ``--cache-dir``
makes an unchanged rerun near-instant — both without changing a byte of
any report, because every cell is a pure function of its params and
seed (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

if __name__ == "__main__":  # pragma: no cover
    # ``python -m`` runs the importable copy of this module and nothing
    # of this ``__main__`` one: cache keys carry each cell function's
    # module, so the CLI and the library must name it alike to find each
    # other's results, and the body below is then executed only once.
    import sys

    from repro.experiments.runall import main

    sys.exit(main())

import argparse
import os
import time
from dataclasses import dataclass
from typing import Any, Mapping, Optional, TypeVar

from ..clients.base import ALOHA, ETHERNET
from ..parallel.executor import (
    CellSpec,
    add_executor_arguments,
    add_telemetry_arguments,
    cache_from_args,
    resolve_jobs,
    run_campaign,
)
from .figure1 import (
    Figure1Result,
    assemble_figure1,
    render as render1,
    submit_cells,
)
from .figure2 import (
    TimelineResult,
    render as render_timeline,
    timeline_from_run,
    timeline_params,
)
from .figure4 import (
    BufferSweepResult,
    assemble_buffer_sweep,
    buffer_cells,
    render_figure4,
    render_figure5,
)
from .figure6 import (
    ReaderTimelineResult,
    reader_from_run,
    reader_params,
    render as render_reader,
)
from .report import series_csv, sweep_csv
from .scenario_replica import run_replica
from .scenario_submit import run_submission

K = TypeVar("K")


@dataclass(frozen=True)
class Scale:
    name: str
    fig1_counts: tuple[int, ...]
    fig1_duration: float
    timeline_clients: int
    timeline_duration: float
    buffer_counts: tuple[int, ...]
    buffer_duration: float
    reader_duration: float


SCALES = {
    "quick": Scale(
        "quick",
        fig1_counts=(50, 200, 400),
        fig1_duration=60.0,
        timeline_clients=200,
        timeline_duration=300.0,
        buffer_counts=(5, 25, 50),
        buffer_duration=30.0,
        reader_duration=300.0,
    ),
    "medium": Scale(
        "medium",
        fig1_counts=(50, 150, 250, 350, 400, 450),
        fig1_duration=120.0,
        timeline_clients=400,
        timeline_duration=900.0,
        buffer_counts=(5, 15, 30, 50),
        buffer_duration=60.0,
        reader_duration=900.0,
    ),
    "full": Scale(
        "full",
        fig1_counts=(25, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500),
        fig1_duration=300.0,
        timeline_clients=400,
        timeline_duration=1800.0,
        buffer_counts=(5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
        buffer_duration=60.0,
        reader_duration=900.0,
    ),
}


def campaign_cells(scale: Scale, seed: int) -> dict[str, list[CellSpec]]:
    """Every cell of the figure campaign, grouped by figure."""
    return {
        "fig1": submit_cells(scale.fig1_counts, scale.fig1_duration, seed),
        "fig2": [CellSpec(
            "fig2/aloha", run_submission,
            (timeline_params(ALOHA, n_clients=scale.timeline_clients,
                             duration=scale.timeline_duration, seed=seed),),
        )],
        "fig3": [CellSpec(
            "fig3/ethernet", run_submission,
            (timeline_params(ETHERNET, n_clients=scale.timeline_clients,
                             duration=scale.timeline_duration, seed=seed),),
        )],
        "fig45": buffer_cells(scale.buffer_counts, scale.buffer_duration,
                              seed),
        "fig6": [CellSpec(
            "fig6/aloha", run_replica,
            (reader_params(ALOHA, duration=scale.reader_duration,
                           seed=seed),),
        )],
        "fig7": [CellSpec(
            "fig7/ethernet", run_replica,
            (reader_params(ETHERNET, duration=scale.reader_duration,
                           seed=seed),),
        )],
    }


@dataclass(frozen=True)
class Figures:
    """The paper's seven figures as one campaign assembles them."""

    fig1: Figure1Result
    fig2: TimelineResult
    fig3: TimelineResult
    #: Figures 4 and 5 are two views of this one sweep.
    sweep: BufferSweepResult
    fig6: ReaderTimelineResult
    fig7: ReaderTimelineResult


def run_groups(groups: Mapping[K, list[CellSpec]],
               **run_options: Any) -> dict[K, list]:
    """Run every group's cells in one
    :func:`~repro.parallel.executor.run_campaign` call and hand the
    results back grouped as the cells were (``run_options`` are its)."""
    results = iter(run_campaign(
        [cell for cells in groups.values() for cell in cells], **run_options))
    return {name: [next(results) for _ in cells]
            for name, cells in groups.items()}


def assemble_figures(scale: Scale, runs: Mapping[str, list]) -> Figures:
    """The figures from the results of :func:`campaign_cells`' groups."""
    return Figures(
        fig1=assemble_figure1(scale.fig1_counts, scale.fig1_duration,
                              runs["fig1"]),
        fig2=timeline_from_run(runs["fig2"][0]),
        fig3=timeline_from_run(runs["fig3"][0]),
        sweep=assemble_buffer_sweep(scale.buffer_counts,
                                    scale.buffer_duration, runs["fig45"]),
        fig6=reader_from_run(runs["fig6"][0]),
        fig7=reader_from_run(runs["fig7"][0]),
    )


def build_figures(scale: Scale, seed: int, **run_options: Any) -> Figures:
    """Run every cell of :func:`campaign_cells` once and assemble the figures.

    ``run_options`` go to :func:`run_groups`; the figures are identical
    for any of them.
    """
    return assemble_figures(scale, run_groups(campaign_cells(scale, seed),
                                              **run_options))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="medium")
    parser.add_argument("--out", default="figure_reports")
    parser.add_argument("--seed", type=int, default=2003)
    add_executor_arguments(parser)
    parser.add_argument(
        "--csv", action="store_true",
        help="also write machine-readable .csv files per figure",
    )
    add_telemetry_arguments(parser, "the top-count fig1 cells")
    args = parser.parse_args(argv)

    scale = SCALES[args.scale]
    os.makedirs(args.out, exist_ok=True)
    cache = cache_from_args(args)

    def save(name: str, text: str, extension: str = "txt") -> None:
        path = os.path.join(args.out, f"{name}.{extension}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"  wrote {path}")

    summary: list[str] = [f"scale={scale.name} seed={args.seed}"]

    started = time.time()
    n_cells = sum(map(len, campaign_cells(scale, args.seed).values()))
    workers = resolve_jobs(args.jobs)
    print(f"Campaign: {n_cells} cells "
          f"(jobs={'serial' if workers == 1 else workers}, "
          f"cache={'off' if cache is None else cache.root}) ...")

    def progress(key: str, status: str) -> None:
        if status != "done":
            print(f"  {key} [{status}]")

    top = f"/n{scale.fig1_counts[-1]}"

    def instrument(cell: CellSpec) -> Optional[dict[str, str]]:
        # The cells --obs-dir/--obs-push instrument: fig1's at the top
        # count, one per discipline.
        if cell.key.startswith("fig1/") and cell.key.endswith(top):
            return cell.args[0].discipline.labels(scenario="submit")
        return None

    figures = build_figures(
        scale, args.seed, jobs=args.jobs, cache=cache, backend=args.backend,
        progress=progress, instrument=instrument, obs_dir=args.obs_dir,
        obs_push=args.obs_push)

    print("Figure 1: job-submission sweep ...")
    fig1 = figures.fig1
    save("figure1", render1(fig1))
    if args.csv:
        save("figure1",
             sweep_csv("submitters", list(fig1.counts),
                       {k: [float(x) for x in v] for k, v in fig1.jobs.items()}),
             "csv")
    last = {name: rows[-1] for name, rows in fig1.jobs.items()}
    summary.append(
        f"fig1 @n={scale.fig1_counts[-1]}: fixed={last['fixed']} "
        f"aloha={last['aloha']} ethernet={last['ethernet']} "
        f"(peak={max(max(r) for r in fig1.jobs.values())})"
    )

    print("Figure 2: Aloha submitter timeline ...")
    fig2 = figures.fig2
    save("figure2", render_timeline(fig2))
    if args.csv:
        save("figure2",
             series_csv({"jobs": fig2.jobs_series, "free_fds": fig2.fd_series},
                        scale.timeline_duration, scale.timeline_duration / 90),
             "csv")
    summary.append(
        f"fig2 aloha: jobs={fig2.run.jobs_submitted} crashes={fig2.run.crashes} "
        f"fd_min={int(fig2.fd_series.minimum())} fd_max={int(fig2.fd_series.maximum())}"
    )

    print("Figure 3: Ethernet submitter timeline ...")
    fig3 = figures.fig3
    save("figure3", render_timeline(fig3))
    if args.csv:
        save("figure3",
             series_csv({"jobs": fig3.jobs_series, "free_fds": fig3.fd_series},
                        scale.timeline_duration, scale.timeline_duration / 90),
             "csv")
    summary.append(
        f"fig3 ethernet: jobs={fig3.run.jobs_submitted} crashes={fig3.run.crashes} "
        f"fd_min={int(fig3.fd_series.minimum())}"
    )

    print("Figures 4+5: buffer sweep ...")
    sweep = figures.sweep
    save("figure4", render_figure4(sweep))
    save("figure5", render_figure5(sweep))
    if args.csv:
        save("figure4",
             sweep_csv("producers", list(sweep.counts),
                       {k: [float(x) for x in v] for k, v in sweep.consumed.items()}),
             "csv")
        save("figure5",
             sweep_csv("producers", list(sweep.counts),
                       {k: [float(x) for x in v] for k, v in sweep.collisions.items()}),
             "csv")
    heavy = -1
    summary.append(
        f"fig4 @P={scale.buffer_counts[heavy]}: "
        + " ".join(f"{k}={v[heavy]}" for k, v in sweep.consumed.items())
    )
    summary.append(
        f"fig5 @P={scale.buffer_counts[heavy]}: "
        + " ".join(f"{k}={v[heavy]}" for k, v in sweep.collisions.items())
    )

    print("Figure 6: Aloha reader ...")
    fig6 = figures.fig6
    save("figure6", render_reader(fig6))
    if args.csv:
        save("figure6",
             series_csv({"transfers": fig6.transfers_series,
                         "collisions": fig6.collisions_series},
                        scale.reader_duration, scale.reader_duration / 90),
             "csv")
    summary.append(
        f"fig6 aloha: transfers={fig6.run.transfers} collisions={fig6.run.collisions}"
    )

    print("Figure 7: Ethernet reader ...")
    fig7 = figures.fig7
    save("figure7", render_reader(fig7))
    if args.csv:
        save("figure7",
             series_csv({"transfers": fig7.transfers_series,
                         "deferrals": fig7.deferrals_series},
                        scale.reader_duration, scale.reader_duration / 90),
             "csv")
    summary.append(
        f"fig7 ethernet: transfers={fig7.run.transfers} "
        f"collisions={fig7.run.collisions} deferrals={fig7.run.deferrals}"
    )

    elapsed = time.time() - started
    if cache is not None:
        print(f"cache: {cache.hits} hits, {cache.misses} misses "
              f"({cache.root})")
    # Wall time and the telemetry directory go to stdout only: the saved
    # summary must be byte-identical across --jobs values, cache states
    # and telemetry flags.
    text = "\n".join(summary)
    save("summary", text)
    print("\n" + text)
    if args.obs_dir:
        print(f"telemetry: {args.obs_dir}")
    print(f"wall time: {elapsed:.1f}s")
    return 0

