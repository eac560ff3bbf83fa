"""Figures 6 & 7 — "Aloha/Ethernet File Reader".

Three clients repeatedly fetch a 100 MB file from three single-threaded
replicas, one of which is a black hole; the Aloha client (Figure 6)
bounds each fetch with a 60 s try.  Cumulative transfers stall for the
full 60 s whenever a client lands on the black hole (those events are
the "Collisions" line).  The Ethernet client (Figure 7) first probes
each server with a one-byte flag fetch under a 5 s limit: black-hole
visits become cheap deferrals and the transfer line climbs
near-linearly with "no such hiccups".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..clients.base import ALOHA, ETHERNET, Discipline
from ..sim.monitor import TimeSeries
from .report import render_timeline
from .scenario_replica import ReplicaParams, ReplicaResult


@dataclass(slots=True)
class ReaderTimelineResult:
    discipline: str
    duration: float
    transfers_series: TimeSeries
    collisions_series: TimeSeries
    deferrals_series: TimeSeries
    run: ReplicaResult


def reader_params(
    discipline: Discipline = ALOHA,
    duration: float = 900.0,
    seed: int = 2003,
    **kwargs,
) -> ReplicaParams:
    """The reader figures' run configuration, as a campaign cell input."""
    return ReplicaParams(discipline=discipline, duration=duration,
                         seed=seed, **kwargs)


def reader_from_run(run: ReplicaResult) -> ReaderTimelineResult:
    """Fold a replica result into the figure's timeline view."""
    return ReaderTimelineResult(
        discipline=run.params.discipline.name,
        duration=run.params.duration,
        transfers_series=run.transfers_series,
        collisions_series=run.collisions_series,
        deferrals_series=run.deferrals_series,
        run=run,
    )


def render(result: ReaderTimelineResult, step: float | None = None) -> str:
    step = step or max(result.duration / 36.0, 1.0)
    if result.discipline == ETHERNET.name:
        series = {
            "transfers": result.transfers_series,
            "deferrals": result.deferrals_series,
        }
        title = f"Figure 7 ({result.discipline}): cumulative transfers & deferrals"
    else:
        series = {
            "transfers": result.transfers_series,
            "collisions": result.collisions_series,
        }
        title = f"Figure 6 ({result.discipline}): cumulative transfers & collisions"
    return render_timeline(series, result.duration, step, title=title)
