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

if __name__ == "__main__":  # pragma: no cover
    # ``python -m`` runs the importable copy of this module and nothing
    # of this ``__main__`` one: cache keys carry each cell function's
    # module, so the CLI and the library must name it alike to find each
    # other's results, and the body below is then executed only once.
    import sys

    from repro.experiments.chaos import main

    sys.exit(main())

import argparse
import os
import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..clients.base import ALL_DISCIPLINES, Discipline, by_name
from ..faults.schedule import FaultWindow, Periodic
from ..parallel.cache import ResultCache
from ..parallel.executor import (
    CellSpec,
    add_executor_arguments,
    add_telemetry_arguments,
    cache_from_args,
    run_campaign,
)
from ..sim.monitor import TimeSeries

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injectors import FaultSpec

# The import rule (docs/INTERNALS.md "What a path imports"): what every
# complete path through this module uses is imported above; what some
# complete path never touches — the four scenario harnesses, the fault
# specs and the substrate configs a severity is sized from (a cell
# builds one of each; a warm rerun reads only the fault windows) and the
# telemetry exports (``run_campaign`` loads them for
# ``--obs-dir``/``--obs-push``) — is imported by the function that uses
# it, once per cell or per campaign.


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


#: The intensity levels every fault class defines, mildest first.
LEVELS = (1, 2, 3)

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
        levels=LEVELS,
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
        levels=LEVELS,
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
    duration: Callable[[ChaosScale], float]
    #: A goodput gap longer than this (seconds) counts as starvation.
    starvation_gap: float


SCENARIOS = {
    "submit": Scenario("submit", _run_submit,
                       lambda s: s.submit_duration, 15.0),
    "buffer": Scenario("buffer", _run_buffer,
                       lambda s: s.buffer_duration, 10.0),
    "replica": Scenario("replica", _run_replica,
                        lambda s: s.replica_duration, 120.0),
    "kangaroo": Scenario("kangaroo", _run_kangaroo,
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


def _descriptors(fraction: float) -> int:
    """``fraction`` of a schedd's descriptor table, in descriptors."""
    from ..grid.condor import CondorConfig

    return int(CondorConfig().fd_capacity * fraction)


def _spool_mb(fraction: float) -> float:
    """``fraction`` of the shared buffer's capacity, in MB."""
    from ..grid.storage import BufferConfig

    return BufferConfig().capacity_mb * fraction


@dataclass(frozen=True)
class FaultClass:
    """One failure mode the campaign sweeps: which scenario it hits and,
    per intensity level (one tuple entry each, :data:`LEVELS` order),
    how many windows it opens, how wide each is as a fraction of its
    period, and the severity it applies (``None``: the target's own).

    A class that sizes its severity from its substrate names the sizing
    function (``sized``) and lists fractions; the cell resolves them,
    so a rerun that only reads the windows never loads the substrate
    (docs/INTERNALS.md "What a path imports")."""

    name: str
    scenario: str
    windows: tuple[int, ...]
    width: tuple[float, ...]
    severity: tuple[Optional[float], ...]
    sized: Optional[Callable[[float], float]] = None

    def schedule(self, level: int, duration: float) -> Periodic:
        """The windows of one ``level`` cell over a ``duration``-second run."""
        at = level - 1
        return _periodic(duration, self.windows[at], self.width[at])

    def build(self, level: int, duration: float) -> tuple[FaultSpec, ...]:
        """The specs of one ``level`` cell over a ``duration``-second run."""
        from ..faults.injectors import FaultSpec

        severity = self.severity[level - 1]
        if self.sized is not None:
            severity = self.sized(severity)
        return (FaultSpec(self.name, self.schedule(level, duration), severity),)


FAULT_CLASSES = (
    # Level = forced crash/restart cycles on top of organic FD crashes.
    FaultClass("schedd-crash", "submit", (1, 2, 3), (0.02,) * 3, (None,) * 3),
    FaultClass("fd-squeeze", "submit", (2,) * 3, (0.45,) * 3,
               (0.4, 0.65, 0.9), _descriptors),
    FaultClass("enospc", "buffer", (2,) * 3, (0.45,) * 3, (0.3, 0.6, 0.9),
               _spool_mb),
    FaultClass("slow-disk", "buffer", (2,) * 3, (0.45,) * 3, (2.0, 4.0, 8.0)),
    # Short frequent bursts: the damage is doomed requests churning the
    # single service slot, not one long blackout.
    FaultClass("http-5xx", "replica", (6,) * 3, (0.2,) * 3, (0.25, 0.5, 0.9)),
    # Windows longer than the clients' 60 s data window, so every waiter
    # times out and the disciplines' retry behaviour actually diverges.
    FaultClass("accept-queue", "replica", (3,) * 3, (0.4,) * 3,
               (1.0, 3.0, 6.0)),
    FaultClass("wan-partition", "kangaroo", (3,) * 3, (0.15, 0.3, 0.45),
               (None,) * 3),
)


# ---------------------------------------------------------------------------
# Cell metrics
# ---------------------------------------------------------------------------

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

#: Fault classes by name, for worker-side cell reconstruction.
FAULT_BY_NAME = {fc.name: fc for fc in FAULT_CLASSES}


@dataclass(frozen=True)
class ChaosParams:
    """One campaign cell, named so it pickles to workers: a scenario
    and a discipline under one fault class at one intensity
    (``fault=None`` or ``level=0`` is the fault-free baseline)."""

    scenario: str
    discipline: str
    fault: Optional[str]
    level: int
    scale: ChaosScale
    seed: int
    #: Optional :class:`repro.obs.Observability`, handed to the scenario.
    obs: Any = None

    @property
    def baseline(self) -> bool:
        return self.fault is None or self.level == 0

    @property
    def key(self) -> str:
        """The cell's name in progress lines, bundles and job events."""
        if self.baseline:
            return f"chaos/{self.scenario}/baseline/{self.discipline}"
        return f"chaos/{self.fault}/i{self.level}/{self.discipline}"

    def cell(self) -> CellSpec:
        """This measurement as an executor cell: :func:`run_cell` on it."""
        return CellSpec(key=self.key, fn=run_cell, args=(self,))

    def labels(self) -> dict[str, str]:
        """The const labels of this cell's telemetry."""
        return by_name(self.discipline).labels(
            scenario=self.scenario,
            fault="none" if self.baseline else self.fault,
            intensity=str(0 if self.baseline else self.level))


def run_cell(params: ChaosParams) -> tuple[float, TimeSeries]:
    """One campaign cell: ``(goodput, series)``.

    Fault specs are regenerated from the class registry rather than
    shipped — their schedules are pure functions of (level, duration),
    so parent and worker always agree.
    """
    scenario = SCENARIOS[params.scenario]
    specs: tuple[FaultSpec, ...] = ()
    if not params.baseline:
        specs = FAULT_BY_NAME[params.fault].build(
            params.level, scenario.duration(params.scale))
    return scenario.run(by_name(params.discipline), specs, params.scale,
                        params.seed, params.obs)


def campaign_cells(scale: ChaosScale, seed: int) -> list[CellSpec]:
    """Every unique (scenario, discipline, fault, level) measurement.

    Baselines come first, one per (scenario, discipline) — shared by
    every fault class that targets the scenario — then the fault cells
    in report order.
    """
    baselines = dict.fromkeys((fault_class.scenario, discipline.name)
                              for fault_class in FAULT_CLASSES
                              for discipline in ALL_DISCIPLINES)
    return ([ChaosParams(scenario, discipline, None, 0, scale, seed).cell()
             for scenario, discipline in baselines]
            + [ChaosParams(fault_class.scenario, discipline.name,
                           fault_class.name, level, scale, seed).cell()
               for fault_class in FAULT_CLASSES
               for level in scale.levels
               for discipline in ALL_DISCIPLINES])


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
    streams (see docs/PERFORMANCE.md).  ``obs_dir``/``obs_push``
    instrument every cell (:func:`~repro.parallel.executor.run_campaign`)
    and leave the report as it is.
    """
    say = progress if progress is not None else (lambda _line: None)

    specs = campaign_cells(scale, seed)
    results = run_campaign(
        specs, jobs=jobs, cache=cache, backend=backend,
        progress=lambda key, status: (say(f"  {key} [{status}]")
                                      if status != "done" else None),
        instrument=lambda spec: spec.args[0].labels(),
        obs_dir=obs_dir, obs_push=obs_push,
    )
    measured: dict[tuple[str, str, Optional[str], int],
                   tuple[float, TimeSeries]] = {}
    for spec, outcome in zip(specs, results):
        cell = spec.args[0]
        measured[(cell.scenario, cell.discipline, cell.fault,
                  cell.level)] = outcome

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
            # Jitter-free, so the stream is never drawn from.
            windows = list(fault_class.schedule(level, duration).windows(
                random.Random(0), duration))
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
    add_telemetry_arguments(parser, "every cell")
    args = parser.parse_args(argv)

    scale = SCALES[args.scale]
    os.makedirs(args.out, exist_ok=True)
    cache = cache_from_args(args)
    started = time.time()
    report = run_chaos_campaign(
        scale, seed=args.seed, obs_dir=args.obs_dir, progress=print,
        jobs=args.jobs, cache=cache, backend=args.backend,
        obs_push=args.obs_push)
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

