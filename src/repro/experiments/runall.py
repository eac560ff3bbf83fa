"""Regenerate every figure of the paper in one command::

    python -m repro.experiments.runall --scale quick    # ~1 minute
    python -m repro.experiments.runall --scale medium   # a few minutes
    python -m repro.experiments.runall --scale full     # paper parameters

Writes one plain-text report per figure into ``--out`` (default
``./figure_reports``) and prints a summary table of the headline
numbers — the same numbers EXPERIMENTS.md records.

The whole campaign is one flat grid of independent simulation cells, so
``--jobs N`` fans it out over N worker processes (``--jobs 0`` = one
per CPU) and the content-addressed result cache under ``--cache-dir``
makes an unchanged rerun near-instant — both without changing a byte of
any report, because every cell is a pure function of its params and
seed (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass

from ..clients.base import ALL_DISCIPLINES, ALOHA, ETHERNET, by_name
from ..obs.api import Observability
from ..obs.exporters import (
    chrome_trace_json,
    merge_obs_bundles,
    prometheus_text,
    spans_jsonl,
)
from ..obs.push import push_observability, resolve_push_url
from ..obs.report import render_report
from ..parallel.executor import (
    CellSpec,
    add_executor_arguments,
    cache_from_args,
    resolve_jobs,
    run_cells,
)
from .figure1 import assemble_figure1, render as render1, submit_cells
from .figure2 import render as render_timeline, timeline_from_run, timeline_params
from .figure4 import (
    assemble_buffer_sweep,
    buffer_cells,
    render_figure4,
    render_figure5,
)
from .figure6 import reader_from_run, reader_params, render as render_reader
from .report import series_csv, sweep_csv
from .scenario_replica import run_replica
from .scenario_submit import SubmitParams, run_submission


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


def _observability_cell(discipline_name: str, n_clients: int,
                        duration: float, seed: int,
                        obs_push: str | None = None) -> dict[str, str]:
    """One fully-instrumented exemplar submission run (worker-safe).

    The telemetry is rendered to text *inside* the cell — a live
    Observability cannot cross a process boundary — and returned as a
    ``{filename: contents}`` bundle.  Returning contents instead of
    writing files is what closes the socket-backend gap: the bundle
    rides the queue/artifact store back to the coordinator like any
    other cell result, so a worker that does not share a filesystem
    with ``--obs-dir`` still contributes its telemetry.  ``obs_push``
    additionally ships the live telemetry to a fleet aggregator,
    best-effort, from inside the cell for the same reason.
    """
    discipline = by_name(discipline_name)
    obs = Observability(const_labels=discipline.labels(scenario="submit"))
    params = SubmitParams(
        discipline=discipline,
        n_clients=n_clients,
        duration=duration,
        seed=seed,
        obs=obs,
    )
    run_submission(params)
    stem = f"submit_{discipline.name}"
    if obs_push is not None:
        push_observability(obs_push, obs, source=f"runall/{stem}",
                           clock="sim")
    trace = chrome_trace_json(obs.tracer) + "\n"
    spans = spans_jsonl(obs.tracer)
    return {
        f"{stem}.trace.json": trace,
        f"{stem}.spans.jsonl": spans + ("\n" if spans else ""),
        f"{stem}.prom": prometheus_text(obs.metrics),
        f"{stem}.report.txt":
            render_report(tracer=obs.tracer, registry=obs.metrics) + "\n",
    }


def write_observability(
    obs_dir: str | None,
    n_clients: int,
    duration: float,
    seed: int = 2003,
    jobs: int | None = None,
    backend: str | None = None,
    obs_push: str | None = None,
) -> list[str]:
    """Fully-instrumented exemplar runs, one per discipline.

    Each discipline gets a Figure-1-style submission run with a live
    :class:`~repro.obs.Observability` attached (const-labeled with the
    discipline and scenario), exported as a Chrome trace, a spans JSONL,
    a Prometheus text file, and a telemetry report.  Cells return their
    bundles as text (shipped back through whichever ``backend`` ran
    them, including socket workers on another filesystem); the parent
    writes them under ``obs_dir`` and merges them into one
    ``combined.*`` bundle.  With ``obs_push`` each cell also ships its
    live telemetry to a fleet aggregator; ``obs_dir=None`` pushes
    without writing files.  Returns the paths written.
    """
    if obs_dir is not None:
        os.makedirs(obs_dir, exist_ok=True)
    cells = [
        CellSpec(
            key=f"obs/{discipline.name}",
            fn=_observability_cell,
            args=(discipline.name, n_clients, duration, seed, obs_push),
            cacheable=False,
        )
        for discipline in ALL_DISCIPLINES
    ]
    paths: list[str] = []
    for bundle in run_cells(cells, jobs=jobs, backend=backend):
        if obs_dir is None:
            continue
        for filename, contents in sorted(bundle.items()):
            path = os.path.join(obs_dir, filename)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(contents)
            paths.append(path)
    if obs_dir is not None:
        paths.extend(merge_obs_bundles(obs_dir))
    return paths


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
    parser.add_argument(
        "--obs-dir", default=None, metavar="DIR",
        help="also run one instrumented submission per discipline and "
             "write Chrome traces, span logs and Prometheus text there",
    )
    parser.add_argument(
        "--obs-push", default=None, metavar="URL",
        help="push the instrumented runs' telemetry to a fleet "
             "aggregator (see repro.obs.aggregator; default "
             "$REPRO_OBS_PUSH, or off)",
    )
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
    groups = campaign_cells(scale, args.seed)
    flat: list[CellSpec] = [cell for cells in groups.values() for cell in cells]
    workers = resolve_jobs(args.jobs)
    print(f"Campaign: {len(flat)} cells "
          f"(jobs={'serial' if workers == 1 else workers}, "
          f"cache={'off' if cache is None else cache.root}) ...")

    def progress(key: str, status: str) -> None:
        if status != "done":
            print(f"  {key} [{status}]")

    results = run_cells(flat, jobs=args.jobs, cache=cache,
                        backend=args.backend, progress=progress)
    by_group: dict[str, list] = {}
    cursor = 0
    for name, cells in groups.items():
        by_group[name] = results[cursor:cursor + len(cells)]
        cursor += len(cells)

    print("Figure 1: job-submission sweep ...")
    fig1 = assemble_figure1(scale.fig1_counts, scale.fig1_duration,
                            by_group["fig1"])
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
    fig2 = timeline_from_run(by_group["fig2"][0])
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
    fig3 = timeline_from_run(by_group["fig3"][0])
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
    sweep = assemble_buffer_sweep(scale.buffer_counts, scale.buffer_duration,
                                  by_group["fig45"])
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
    fig6 = reader_from_run(by_group["fig6"][0])
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
    fig7 = reader_from_run(by_group["fig7"][0])
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

    push_url = resolve_push_url(args.obs_push)
    if args.obs_dir or push_url:
        print("Telemetry: instrumented submission runs ...")
        for path in write_observability(
            args.obs_dir,
            n_clients=scale.fig1_counts[-1],
            duration=scale.fig1_duration,
            seed=args.seed,
            jobs=args.jobs,
            backend=args.backend,
            obs_push=push_url,
        ):
            print(f"  wrote {path}")
        if args.obs_dir:
            summary.append(f"telemetry: {args.obs_dir}")

    elapsed = time.time() - started
    if cache is not None:
        print(f"cache: {cache.hits} hits, {cache.misses} misses "
              f"({cache.root})")
    # Wall time goes to stdout only: the saved summary must be
    # byte-identical across --jobs values and cache states.
    text = "\n".join(summary)
    save("summary", text)
    print("\n" + text)
    print(f"wall time: {elapsed:.1f}s")
    return 0


if __name__ == "__main__":  # pragma: no cover
    # Run the importable copy of this module, not this ``__main__`` one:
    # cache keys carry each cell function's module, so ``python -m`` and
    # the library must name it alike to find each other's results.
    from repro.experiments.runall import main as _main

    sys.exit(_main())
