"""Figures 4 & 5 — "Buffer Throughput" and "Buffer Collisions".

One sweep produces both figures: for each producer count P and each
discipline, run the producer-consumer scenario and record (Figure 4)
total files consumed and (Figure 5) total collisions.

Expected shapes: Ethernet throughput stays near the consumer's ceiling
and "falls off only slightly under heavy load"; fixed and Aloha do not
scale.  Collisions: fixed >> aloha >> ethernet (near zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..clients.base import ALL_DISCIPLINES, Discipline
from ..grid.storage import BufferConfig
from ..parallel.executor import CellSpec
from .report import ascii_chart, render_table
from .scenario_buffer import BufferParams, BufferResult, run_buffer


@dataclass(slots=True)
class BufferSweepResult:
    counts: tuple[int, ...]
    duration: float
    #: discipline -> files consumed per count (Figure 4).
    consumed: dict[str, list[int]] = field(default_factory=dict)
    #: discipline -> collisions per count (Figure 5).
    collisions: dict[str, list[int]] = field(default_factory=dict)
    runs: list[BufferResult] = field(default_factory=list)


def buffer_cells(
    counts: Sequence[int],
    duration: float,
    seed: int,
    buffer: BufferConfig | None = None,
    disciplines: Sequence[Discipline] = ALL_DISCIPLINES,
) -> list[CellSpec]:
    """The sweep as independent cells, discipline-major (paper order)."""
    buffer = buffer or BufferConfig()
    return [
        CellSpec(
            key=f"fig45/{discipline.name}/p{count}",
            fn=run_buffer,
            args=(BufferParams(
                discipline=discipline,
                n_producers=count,
                duration=duration,
                buffer=buffer,
                seed=seed,
            ),),
        )
        for discipline in disciplines
        for count in counts
    ]


def assemble_buffer_sweep(
    counts: Sequence[int],
    duration: float,
    runs: Sequence[BufferResult],
    disciplines: Sequence[Discipline] = ALL_DISCIPLINES,
) -> BufferSweepResult:
    """Fold per-cell results (in :func:`buffer_cells` order) into the sweep."""
    result = BufferSweepResult(counts=tuple(counts), duration=duration)
    per_discipline = len(counts)
    for idx, discipline in enumerate(disciplines):
        block = runs[idx * per_discipline:(idx + 1) * per_discipline]
        result.consumed[discipline.name] = [r.files_consumed for r in block]
        result.collisions[discipline.name] = [r.collisions for r in block]
        result.runs.extend(block)
    return result


def render_figure4(result: BufferSweepResult) -> str:
    headers = ["producers"] + [f"{name}" for name in result.consumed]
    rows = [
        [count] + [result.consumed[name][idx] for name in result.consumed]
        for idx, count in enumerate(result.counts)
    ]
    table = render_table(headers, rows)
    chart = ascii_chart(
        {k: [float(v) for v in vals] for k, vals in result.consumed.items()},
        list(result.counts),
        title=f"Figure 4: files consumed in {result.duration:g}s vs producers",
    )
    return f"{table}\n\n{chart}"


def render_figure5(result: BufferSweepResult) -> str:
    headers = ["producers"] + [f"{name}" for name in result.collisions]
    rows = [
        [count] + [result.collisions[name][idx] for name in result.collisions]
        for idx, count in enumerate(result.counts)
    ]
    table = render_table(headers, rows)
    chart = ascii_chart(
        {k: [float(v) for v in vals] for k, vals in result.collisions.items()},
        list(result.counts),
        title=f"Figure 5: collisions in {result.duration:g}s vs producers",
    )
    return f"{table}\n\n{chart}"
