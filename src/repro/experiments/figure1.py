"""Figure 1 — "Scalability of Job Submission".

Paper: x = number of submitters (up to 500), y = jobs submitted in five
minutes, one line per discipline.  The fixed client "fails completely
above a load of 400 submitters", Aloha settles into an unstable 100-200
jobs per five minutes, Ethernet keeps roughly 50% of peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..clients.base import ALL_DISCIPLINES, Discipline
from ..grid.condor import CondorConfig
from ..parallel.executor import CellSpec
from .report import ascii_chart, render_table
from .scenario_submit import SubmitParams, SubmitResult, run_submission


@dataclass(slots=True)
class Figure1Result:
    counts: tuple[int, ...]
    duration: float
    #: discipline name -> jobs submitted at each count.
    jobs: dict[str, list[int]] = field(default_factory=dict)
    #: discipline name -> schedd crashes at each count.
    crashes: dict[str, list[int]] = field(default_factory=dict)
    runs: list[SubmitResult] = field(default_factory=list)


def submit_cells(
    counts: Sequence[int],
    duration: float,
    seed: int,
    condor: CondorConfig | None = None,
    disciplines: Sequence[Discipline] = ALL_DISCIPLINES,
    carrier_threshold: int = 1000,
) -> list[CellSpec]:
    """The sweep as independent cells, discipline-major (paper order)."""
    condor = condor or CondorConfig()
    return [
        CellSpec(
            key=f"fig1/{discipline.name}/n{count}",
            fn=run_submission,
            args=(SubmitParams(
                discipline=discipline,
                n_clients=count,
                duration=duration,
                script_window=duration,
                carrier_threshold=carrier_threshold,
                condor=condor,
                seed=seed,
            ),),
        )
        for discipline in disciplines
        for count in counts
    ]


def assemble_figure1(
    counts: Sequence[int],
    duration: float,
    runs: Sequence[SubmitResult],
    disciplines: Sequence[Discipline] = ALL_DISCIPLINES,
) -> Figure1Result:
    """Fold per-cell results (in :func:`submit_cells` order) into the figure."""
    result = Figure1Result(counts=tuple(counts), duration=duration)
    per_discipline = len(counts)
    for idx, discipline in enumerate(disciplines):
        block = runs[idx * per_discipline:(idx + 1) * per_discipline]
        result.jobs[discipline.name] = [r.jobs_submitted for r in block]
        result.crashes[discipline.name] = [r.crashes for r in block]
        result.runs.extend(block)
    return result


def render(result: Figure1Result) -> str:
    """The figure's rows plus an ASCII chart."""
    headers = ["submitters"] + [f"{name} jobs" for name in result.jobs] + [
        f"{name} crashes" for name in result.crashes
    ]
    rows = []
    for idx, count in enumerate(result.counts):
        row: list[object] = [count]
        row += [result.jobs[name][idx] for name in result.jobs]
        row += [result.crashes[name][idx] for name in result.crashes]
        rows.append(row)
    table = render_table(headers, rows)
    chart = ascii_chart(
        {name: [float(v) for v in vals] for name, vals in result.jobs.items()},
        list(result.counts),
        title=f"Figure 1: jobs submitted in {result.duration:g}s vs submitters",
    )
    return f"{table}\n\n{chart}"
