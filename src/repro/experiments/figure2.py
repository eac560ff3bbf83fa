"""Figures 2 & 3 — "Timeline of Aloha/Ethernet Submitter".

400 clients submit continuously for 30 minutes.  The heavy line is
cumulative jobs submitted; the light line is available FDs.  Figure 2
(Aloha) shows the initial plunge of free FDs to ~0, upward FD spikes
when the schedd crashes (the "broadcast jam"), and a staircase jobs
curve that keeps creeping upward regardless.  In Figure 3 (Ethernet)
the carrier probe defers submissions when free FDs fall below the
critical value (1000), so the available-FD line hovers at that floor,
the schedd never crashes, and the jobs line climbs steadily.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..clients.base import ALOHA, Discipline
from ..grid.condor import CondorConfig
from ..sim.monitor import TimeSeries
from .report import render_timeline
from .scenario_submit import SubmitParams, SubmitResult


@dataclass(slots=True)
class TimelineResult:
    discipline: str
    duration: float
    jobs_series: TimeSeries
    fd_series: TimeSeries
    run: SubmitResult


def timeline_params(
    discipline: Discipline = ALOHA,
    n_clients: int = 400,
    duration: float = 1800.0,
    seed: int = 2003,
    condor: CondorConfig | None = None,
    carrier_threshold: int = 1000,
    sample_interval: float = 5.0,
) -> SubmitParams:
    """The timeline figures' run configuration, as a campaign cell input."""
    return SubmitParams(
        discipline=discipline,
        n_clients=n_clients,
        duration=duration,
        script_window=300.0,
        carrier_threshold=carrier_threshold,
        condor=condor or CondorConfig(),
        seed=seed,
        sample_interval=sample_interval,
    )


def timeline_from_run(run: SubmitResult) -> TimelineResult:
    """Fold a submission result into the figure's timeline view."""
    return TimelineResult(
        discipline=run.params.discipline.name,
        duration=run.params.duration,
        jobs_series=run.jobs_series,
        fd_series=run.fd_series,
        run=run,
    )


def render(result: TimelineResult, step: float | None = None) -> str:
    step = step or max(result.duration / 36.0, 1.0)
    title = (
        f"Figure timeline ({result.discipline}): jobs submitted & available FDs "
        f"(crashes={result.run.crashes})"
    )
    return render_timeline(
        {"jobs": result.jobs_series, "free_fds": result.fd_series},
        result.duration,
        step,
        title=title,
    )
