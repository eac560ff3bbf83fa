"""Chaos campaign: fault classes x intensities x disciplines::

    python -m repro.experiments.chaos --scale smoke    # CI-sized
    python -m repro.experiments.chaos --scale quick    # full intensity sweep
    python -m repro.experiments.chaos --scale full     # paper-scale durations

Every cell runs one scenario with one client discipline under one
injected fault class (``repro.faults``) at one intensity, all from one
master seed.  The scorecard reports, per cell:

* **goodput** — the scenario's honest output metric (jobs submitted,
  files drained, transfers completed, files archived);
* **retained** — goodput as a fraction of the same discipline's
  fault-free baseline;
* **recovery** — seconds from the end of the last fault window until the
  goodput series moves again;
* **starvation** — count of dead gaps in the goodput series longer than
  the scenario's starvation threshold, from the first fault onward.

The campaign's claim mirrors the paper's: under every fault class, at
the highest intensity, ``ethernet >= aloha >= fixed`` on absolute
goodput.  ``main`` exits non-zero if any class violates that ordering.

The scorecard file contains no wall-clock times: the same seed produces
a byte-identical scorecard.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..clients.base import ALL_DISCIPLINES, Discipline, by_name
from ..faults.injectors import FaultSpec
from ..faults.schedule import FaultWindow, Periodic
from ..grid.condor import CondorConfig
from ..grid.storage import BufferConfig
from ..obs.push import push_observability, resolve_push_url
from ..parallel.cache import ResultCache
from ..parallel.executor import (
    CellSpec,
    add_executor_arguments,
    cache_from_args,
    run_cells,
)
from ..sim.monitor import TimeSeries

# The import rule (docs/INTERNALS.md "What a path imports"): what every
# complete path through this module uses is imported above; what some
# complete path never touches — the four scenario harnesses (a cell is
# one scenario; a warm rerun is none) and the telemetry exports — is
# imported by the function that uses it, once per cell or per campaign.


# ---------------------------------------------------------------------------
# Scales
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChaosScale:
    """Campaign sizing: intensity levels swept and per-scenario load."""

    name: str
    levels: tuple[int, ...]
    submit_clients: int
    submit_duration: float
    buffer_producers: int
    buffer_duration: float
    replica_clients: int
    replica_duration: float
    kangaroo_producers: int
    kangaroo_duration: float


SCALES = {
    "smoke": ChaosScale(
        "smoke",
        levels=(3,),
        submit_clients=400,
        submit_duration=90.0,
        buffer_producers=30,
        buffer_duration=40.0,
        replica_clients=15,
        replica_duration=600.0,
        kangaroo_producers=40,
        kangaroo_duration=240.0,
    ),
    "quick": ChaosScale(
        "quick",
        levels=(1, 2, 3),
        submit_clients=400,
        submit_duration=90.0,
        buffer_producers=30,
        buffer_duration=60.0,
        replica_clients=12,
        replica_duration=600.0,
        kangaroo_producers=25,
        kangaroo_duration=300.0,
    ),
    "full": ChaosScale(
        "full",
        levels=(1, 2, 3),
        submit_clients=400,
        submit_duration=300.0,
        buffer_producers=50,
        buffer_duration=60.0,
        replica_clients=12,
        replica_duration=900.0,
        kangaroo_producers=40,
        kangaroo_duration=600.0,
    ),
}


# ---------------------------------------------------------------------------
# Scenario bindings
# ---------------------------------------------------------------------------

def _run_submit(discipline: Discipline, faults: tuple[FaultSpec, ...],
                scale: ChaosScale, seed: int, obs: Any):
    from .scenario_submit import SubmitParams, run_submission

    result = run_submission(SubmitParams(
        discipline=discipline,
        n_clients=scale.submit_clients,
        duration=scale.submit_duration,
        seed=seed,
        faults=faults,
        obs=obs,
    ))
    return float(result.jobs_submitted), result.jobs_series


def _run_buffer(discipline: Discipline, faults: tuple[FaultSpec, ...],
                scale: ChaosScale, seed: int, obs: Any):
    from .scenario_buffer import BufferParams, run_buffer

    result = run_buffer(BufferParams(
        discipline=discipline,
        n_producers=scale.buffer_producers,
        duration=scale.buffer_duration,
        seed=seed,
        faults=faults,
        obs=obs,
    ))
    return float(result.files_consumed), result.consumed_series


def _run_replica(discipline: Discipline, faults: tuple[FaultSpec, ...],
                 scale: ChaosScale, seed: int, obs: Any):
    from ..grid.httpserver import ReplicaConfig
    from .scenario_replica import ReplicaParams, run_replica

    # Load-dependent service + per-attempt accept cost (both opt-in):
    # hammering a degraded service slows it for everyone, and every
    # reconnect burns real slot time — so the aggressive discipline
    # starves itself, exactly the paper's scenario-1 feedback.
    result = run_replica(ReplicaParams(
        discipline=discipline,
        n_clients=scale.replica_clients,
        duration=scale.replica_duration,
        replica=ReplicaConfig(degradation_connections=2,
                              accept_overhead=0.5),
        seed=seed,
        faults=faults,
        obs=obs,
    ))
    return float(result.transfers), result.transfers_series


def _run_kangaroo(discipline: Discipline, faults: tuple[FaultSpec, ...],
                  scale: ChaosScale, seed: int, obs: Any):
    from ..grid.archive import WanConfig
    from .scenario_kangaroo import KangarooParams, run_kangaroo

    # Organic WAN weather off: the campaign places partitions itself.
    result = run_kangaroo(KangarooParams(
        discipline=discipline,
        n_producers=scale.kangaroo_producers,
        duration=scale.kangaroo_duration,
        wan=WanConfig(mean_time_between_outages=0.0),
        seed=seed,
        faults=faults,
        obs=obs,
    ))
    return float(result.files_delivered), result.delivered_series


@dataclass(frozen=True)
class Scenario:
    """One goodput surface the campaign can inject faults into."""

    name: str
    run: Callable[..., tuple[float, TimeSeries]]
    goodput_label: str
    duration: Callable[[ChaosScale], float]
    #: A goodput gap longer than this (seconds) counts as starvation.
    starvation_gap: float


SCENARIOS = {
    "submit": Scenario("submit", _run_submit, "jobs",
                       lambda s: s.submit_duration, 15.0),
    "buffer": Scenario("buffer", _run_buffer, "files",
                       lambda s: s.buffer_duration, 10.0),
    "replica": Scenario("replica", _run_replica, "transfers",
                        lambda s: s.replica_duration, 120.0),
    "kangaroo": Scenario("kangaroo", _run_kangaroo, "archived",
                         lambda s: s.kangaroo_duration, 45.0),
}


# ---------------------------------------------------------------------------
# Fault classes
# ---------------------------------------------------------------------------

def _periodic(duration: float, n_windows: int, width_fraction: float) -> Periodic:
    """``n_windows`` jitter-free windows spread evenly over the run.

    Jitter-free so the windows are computable analytically (for the
    recovery metric) and the scorecard is seed-independent in *timing* —
    only client behaviour varies with the seed.
    """
    period = duration / n_windows
    return Periodic(
        period=period,
        duration=period * width_fraction,
        start=period * 0.4,
    )


@dataclass(frozen=True)
class FaultClass:
    """One failure mode the campaign sweeps: which scenario it hits and
    how intensity levels 1..3 translate into schedules/severities."""

    name: str
    scenario: str
    build: Callable[[int, float], tuple[FaultSpec, ...]]


def _crash_faults(level: int, duration: float) -> tuple[FaultSpec, ...]:
    # Level = forced crash/restart cycles on top of organic FD crashes.
    n = (1, 2, 3)[level - 1]
    return (FaultSpec("schedd-crash", _periodic(duration, n, 0.02)),)


def _fd_squeeze_faults(level: int, duration: float) -> tuple[FaultSpec, ...]:
    fraction = (0.4, 0.65, 0.9)[level - 1]
    severity = int(CondorConfig().fd_capacity * fraction)
    return (FaultSpec("fd-squeeze", _periodic(duration, 2, 0.45), severity),)


def _enospc_faults(level: int, duration: float) -> tuple[FaultSpec, ...]:
    fraction = (0.3, 0.6, 0.9)[level - 1]
    severity = BufferConfig().capacity_mb * fraction
    return (FaultSpec("enospc", _periodic(duration, 2, 0.45), severity),)


def _slow_disk_faults(level: int, duration: float) -> tuple[FaultSpec, ...]:
    factor = (2.0, 4.0, 8.0)[level - 1]
    return (FaultSpec("slow-disk", _periodic(duration, 2, 0.45), factor),)


def _http_5xx_faults(level: int, duration: float) -> tuple[FaultSpec, ...]:
    # Short frequent bursts: the damage is doomed requests churning the
    # single service slot, not one long blackout.
    reset_fraction = (0.25, 0.5, 0.9)[level - 1]
    return (FaultSpec("http-5xx", _periodic(duration, 6, 0.2), reset_fraction),)


def _accept_queue_faults(level: int, duration: float) -> tuple[FaultSpec, ...]:
    # Windows longer than the clients' 60 s data window, so every waiter
    # times out and the disciplines' retry behaviour actually diverges.
    parked = (1.0, 3.0, 6.0)[level - 1]
    return (FaultSpec("accept-queue", _periodic(duration, 3, 0.4), parked),)


def _wan_partition_faults(level: int, duration: float) -> tuple[FaultSpec, ...]:
    width = (0.15, 0.3, 0.45)[level - 1]
    return (FaultSpec("wan-partition", _periodic(duration, 3, width)),)


FAULT_CLASSES = (
    FaultClass("schedd-crash", "submit", _crash_faults),
    FaultClass("fd-squeeze", "submit", _fd_squeeze_faults),
    FaultClass("enospc", "buffer", _enospc_faults),
    FaultClass("slow-disk", "buffer", _slow_disk_faults),
    FaultClass("http-5xx", "replica", _http_5xx_faults),
    FaultClass("accept-queue", "replica", _accept_queue_faults),
    FaultClass("wan-partition", "kangaroo", _wan_partition_faults),
)


# ---------------------------------------------------------------------------
# Cell metrics
# ---------------------------------------------------------------------------

def _fault_windows(specs: tuple[FaultSpec, ...], horizon: float) -> list[FaultWindow]:
    """Materialise the (jitter-free) windows a spec list will produce."""
    windows: list[FaultWindow] = []
    for spec in specs:
        windows.extend(spec.schedule.windows(random.Random(0), horizon))
    return windows


def recovery_time(series: TimeSeries, windows: list[FaultWindow],
                  horizon: float) -> float:
    """Seconds after the last fault window until goodput moves again.

    ``inf`` means goodput never recovered inside the run; 0 means the
    fault never stopped the flow at all.
    """
    if not windows:
        return 0.0
    last_end = min(max(w.end for w in windows), horizon)
    before = sum(1 for t in series.times if t <= last_end)
    if before < len(series.times):
        return series.times[before] - last_end
    return float("inf")


def starvation_events(series: TimeSeries, windows: list[FaultWindow],
                      horizon: float, gap: float) -> int:
    """Dead goodput gaps longer than ``gap``, from the first fault on."""
    if not windows:
        return 0
    start = min(w.start for w in windows)
    marks = [t for t in series.times if t >= start]
    events = 0
    previous = start
    for t in marks + [horizon]:
        if t - previous > gap:
            events += 1
        previous = t
    return events


@dataclass(frozen=True)
class ChaosCell:
    """One (fault, intensity, discipline) measurement."""

    fault: str
    scenario: str
    intensity: int
    discipline: str
    goodput: float
    retained: float
    recovery: float
    starvation: int


@dataclass(frozen=True)
class ChaosReport:
    """Everything one campaign produced."""

    scale: str
    seed: int
    cells: tuple[ChaosCell, ...]
    violations: tuple[str, ...]


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------

def _cell_obs(wanted: bool, discipline: Discipline,
              fault: str, scenario: str, intensity: int):
    if not wanted:
        return None, None
    from ..obs.api import Observability

    stem = f"chaos_{fault}_{discipline.name}_i{intensity}"
    obs = Observability(const_labels=discipline.labels(
        scenario=scenario, fault=fault, intensity=str(intensity)))
    return obs, stem


#: Fault classes by name, for worker-side cell reconstruction.
FAULT_BY_NAME = {fc.name: fc for fc in FAULT_CLASSES}


def run_cell(
    scenario_name: str,
    discipline_name: str,
    fault_name: Optional[str],
    level: int,
    scale: ChaosScale,
    seed: int,
    obs_dir: Optional[str] = None,
    obs_push: Optional[str] = None,
) -> tuple[float, TimeSeries]:
    """One campaign cell, rebuilt from names so it pickles to workers.

    ``fault_name=None`` (or ``level=0``) is the fault-free baseline.
    Fault specs are regenerated from the class registry rather than
    shipped — their schedules are pure functions of (level, duration),
    so parent and worker always agree.  When ``obs_dir`` is set the
    cell's telemetry bundle is written here; when ``obs_push`` is set
    the same telemetry is pushed (best-effort) to that fleet
    aggregator.  Both happen inside the (possibly worker) process; live
    telemetry never crosses the process boundary.
    """
    scenario = SCENARIOS[scenario_name]
    discipline = by_name(discipline_name)
    duration = scenario.duration(scale)
    wanted = obs_dir is not None or obs_push is not None
    if fault_name is None or level == 0:
        specs: tuple[FaultSpec, ...] = ()
        obs, stem = _cell_obs(wanted, discipline, "none", scenario_name, 0)
    else:
        specs = FAULT_BY_NAME[fault_name].build(level, duration)
        obs, stem = _cell_obs(wanted, discipline, fault_name,
                              scenario_name, level)
    goodput, series = scenario.run(discipline, specs, scale, seed, obs)
    if obs is not None:
        if obs_dir is not None:
            from ..obs.exporters import write_obs_bundle

            write_obs_bundle(obs, obs_dir, stem)
        if obs_push is not None:
            # The scenario qualifies the source: baseline cells share a
            # stem across scenarios (fault "none"), and two cells must
            # never fold into one aggregator source.
            push_observability(obs_push, obs,
                               source=f"chaos/{scenario_name}/{stem}",
                               clock="sim")
    return goodput, series


def campaign_cells(
    scale: ChaosScale,
    seed: int,
    obs_dir: Optional[str] = None,
    obs_push: Optional[str] = None,
) -> list[CellSpec]:
    """Every unique (scenario, discipline, fault, level) measurement.

    Baselines come first, one per (scenario, discipline) — shared by
    every fault class that targets the scenario — then the fault cells
    in report order.  Cells carrying a live telemetry export (a bundle
    directory or an aggregator push) are not cacheable — their point is
    the side effect.
    """
    plain = obs_dir is None and obs_push is None
    specs: list[CellSpec] = []
    seen_baselines: set[tuple[str, str]] = set()
    for fault_class in FAULT_CLASSES:
        for discipline in ALL_DISCIPLINES:
            key = (fault_class.scenario, discipline.name)
            if key in seen_baselines:
                continue
            seen_baselines.add(key)
            specs.append(CellSpec(
                key=f"chaos/{fault_class.scenario}/baseline/{discipline.name}",
                fn=run_cell,
                args=(fault_class.scenario, discipline.name, None, 0,
                      scale, seed, obs_dir, obs_push),
                cacheable=plain,
            ))
    for fault_class in FAULT_CLASSES:
        for level in scale.levels:
            for discipline in ALL_DISCIPLINES:
                specs.append(CellSpec(
                    key=f"chaos/{fault_class.name}/i{level}/{discipline.name}",
                    fn=run_cell,
                    args=(fault_class.scenario, discipline.name,
                          fault_class.name, level, scale, seed, obs_dir,
                          obs_push),
                    cacheable=plain,
                ))
    return specs


def run_chaos_campaign(
    scale: ChaosScale,
    seed: int = 2003,
    obs_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    backend: Optional[str] = None,
    obs_push: Optional[str] = None,
) -> ChaosReport:
    """Sweep every fault class x intensity x discipline; build the report.

    Baselines (intensity 0, no faults) run once per scenario/discipline
    and anchor the ``retained`` column.  The report is a pure function
    of ``(scale, seed)`` — for any ``jobs`` value and any cache state,
    because each cell owns its engine and seeds its own named random
    streams (see docs/PERFORMANCE.md).
    """
    say = progress if progress is not None else (lambda _line: None)

    specs = campaign_cells(scale, seed, obs_dir=obs_dir, obs_push=obs_push)
    results = run_cells(
        specs, jobs=jobs, cache=cache, backend=backend,
        progress=lambda key, status: (say(f"  {key} [{status}]")
                                      if status != "done" else None),
    )
    measured: dict[tuple[str, str, Optional[str], int],
                   tuple[float, TimeSeries]] = {}
    for spec, outcome in zip(specs, results):
        scenario_name, discipline_name, fault_name, level = spec.args[:4]
        measured[(scenario_name, discipline_name, fault_name, level)] = outcome
    if obs_dir is not None:
        from ..obs.exporters import merge_obs_bundles

        merge_obs_bundles(obs_dir)

    def baseline(scenario: Scenario, discipline: Discipline):
        return measured[(scenario.name, discipline.name, None, 0)]

    cells: list[ChaosCell] = []
    for fault_class in FAULT_CLASSES:
        scenario = SCENARIOS[fault_class.scenario]
        duration = scenario.duration(scale)
        for discipline in ALL_DISCIPLINES:
            base_goodput, _series = baseline(scenario, discipline)
            cells.append(ChaosCell(
                fault=fault_class.name,
                scenario=scenario.name,
                intensity=0,
                discipline=discipline.name,
                goodput=base_goodput,
                retained=1.0,
                recovery=0.0,
                starvation=0,
            ))
        for level in scale.levels:
            specs_for_level = fault_class.build(level, duration)
            windows = _fault_windows(specs_for_level, duration)
            for discipline in ALL_DISCIPLINES:
                goodput, series = measured[(scenario.name, discipline.name,
                                            fault_class.name, level)]
                base_goodput, _ = baseline(scenario, discipline)
                cells.append(ChaosCell(
                    fault=fault_class.name,
                    scenario=scenario.name,
                    intensity=level,
                    discipline=discipline.name,
                    goodput=goodput,
                    retained=goodput / base_goodput if base_goodput else 0.0,
                    recovery=recovery_time(series, windows, duration),
                    starvation=starvation_events(
                        series, windows, duration, scenario.starvation_gap),
                ))

    violations = check_ordering(cells, max(scale.levels))
    return ChaosReport(
        scale=scale.name,
        seed=seed,
        cells=tuple(cells),
        violations=tuple(violations),
    )


def check_ordering(cells: list[ChaosCell] | tuple[ChaosCell, ...],
                   top_level: int) -> list[str]:
    """The campaign's claim: ethernet >= aloha >= fixed at top intensity."""
    violations: list[str] = []
    for fault_class in FAULT_CLASSES:
        goodput = {
            cell.discipline: cell.goodput
            for cell in cells
            if cell.fault == fault_class.name and cell.intensity == top_level
        }
        if not goodput:
            continue
        eth, aloha, fixed = (goodput["ethernet"], goodput["aloha"],
                             goodput["fixed"])
        if not (eth >= aloha >= fixed):
            violations.append(
                f"{fault_class.name}@i{top_level}: ethernet={eth:g} "
                f"aloha={aloha:g} fixed={fixed:g}"
            )
    return violations


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_scorecard(report: ChaosReport) -> str:
    """Plain-text robustness scorecard; wall-clock-free, so two runs with
    the same seed render byte-identically."""
    lines = [
        f"chaos scorecard  scale={report.scale} seed={report.seed}",
        "",
        f"{'fault':<14} {'scenario':<9} {'int':>3} {'discipline':<10} "
        f"{'goodput':>8} {'retained':>8} {'recovery':>9} {'starved':>7}",
    ]
    for cell in report.cells:
        recovery = ("-" if cell.intensity == 0
                    else "never" if cell.recovery == float("inf")
                    else f"{cell.recovery:.1f}s")
        lines.append(
            f"{cell.fault:<14} {cell.scenario:<9} {cell.intensity:>3} "
            f"{cell.discipline:<10} {cell.goodput:>8g} "
            f"{cell.retained:>7.0%} {recovery:>9} {cell.starvation:>7}"
        )
    lines.append("")
    if report.violations:
        lines.append("ORDERING VIOLATED (want ethernet >= aloha >= fixed):")
        lines.extend(f"  {violation}" for violation in report.violations)
    else:
        lines.append(
            "ordering holds: ethernet >= aloha >= fixed for every fault "
            "class at the highest intensity"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    parser.add_argument("--out", default="chaos_reports")
    parser.add_argument("--seed", type=int, default=2003)
    add_executor_arguments(parser)
    parser.add_argument(
        "--obs-dir", default=None, metavar="DIR",
        help="write per-cell telemetry bundles (Chrome trace, spans "
             "JSONL, Prometheus text) into DIR",
    )
    parser.add_argument(
        "--obs-push", default=None, metavar="URL",
        help="push per-cell telemetry to a fleet aggregator "
             "(see repro.obs.aggregator; default $REPRO_OBS_PUSH, or off)",
    )
    args = parser.parse_args(argv)

    scale = SCALES[args.scale]
    os.makedirs(args.out, exist_ok=True)
    cache = cache_from_args(args)
    started = time.time()
    report = run_chaos_campaign(
        scale, seed=args.seed, obs_dir=args.obs_dir, progress=print,
        jobs=args.jobs, cache=cache, backend=args.backend,
        obs_push=resolve_push_url(args.obs_push))
    if cache is not None:
        print(f"cache: {cache.hits} hits, {cache.misses} misses "
              f"({cache.root})")
    text = render_scorecard(report)

    path = os.path.join(args.out, f"scorecard_{scale.name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(text)
    print(f"\nwrote {path}  ({time.time() - started:.1f}s wall)")
    return 1 if report.violations else 0


if __name__ == "__main__":  # pragma: no cover
    # Run the importable copy of this module, not this ``__main__`` one:
    # cache keys carry each cell function's module, so ``python -m`` and
    # the library must name it alike to find each other's results.
    from repro.experiments.chaos import main as _main

    sys.exit(_main())
