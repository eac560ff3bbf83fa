"""One-command reproduction gate: check every claim the repo makes.

::

    python -m repro.experiments.validate                      # medium, seed 2003
    python -m repro.experiments.validate --seed 2003-2013     # CI's gate
    python -m repro.experiments.validate --scale full --seed 2004

One table of claims, each row marked as the paper's or ours:

* **the paper's** (``F1``…``F7``, :func:`check_figures`): the shape
  claims of §5's Figures 1-7, evaluated on the figures exactly as
  ``runall`` assembles them at the named scale
  (:func:`repro.experiments.runall.assemble_figures`);
* **ours** (:func:`check_extensions`): the extension scenarios — the
  Chimera DAG, the Kangaroo pipeline, reservations vs carrier sense and
  the §3 jitter/threshold/interval ablations — on cells run at the
  parameters EXPERIMENTS.md reports them at, whatever the scale.

``--seed`` takes one seed or an inclusive range (``2003-2013``); every
seed's cells go through one :func:`~repro.parallel.run_cells` call.  The
gate prints each seed's PASS/FAIL table, then (for a range) how many
seeds each row holds at, and exits 0 iff every row holds at every seed.
``medium`` is the smallest scale at which the figure claims hold;
runall's ``quick`` smoke scale is too small for them.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from dataclasses import dataclass
from typing import Any, Sequence

from ..clients.base import ALL_DISCIPLINES, ALOHA, ETHERNET, FIXED, Discipline
from ..core.backoff import BackoffPolicy
from ..grid.storage import BufferConfig
from ..parallel.executor import CellSpec
from . import runall
from .scenario_buffer import BufferParams, run_buffer
from .scenario_dag import DagParams, run_dag_scenario
from .scenario_kangaroo import KangarooParams, run_kangaroo
from .scenario_submit import SubmitParams, run_submission

#: The extension cells' parameters — what EXPERIMENTS.md reports.
#: Layer bursts of 6 x 70 = 420 submissions, above the ~365 FD cliff.
DAG = dict(n_users=6, layers=2, width=70, max_inflight=70, horizon=900.0)
KANGAROO = dict(n_producers=25, duration=300.0)
RESERVATION = dict(n_producers=50, duration=60.0)
ABLATION = dict(n_clients=400, duration=300.0)
#: Figure 1's constant 1000, and one so high admission starves.
THRESHOLDS = (1000, 8150)

JITTERED = Discipline(
    "aloha-jitter", BackoffPolicy(jitter_low=1.0, jitter_high=2.0), False
)
SYNCHRONIZED = Discipline(
    "aloha-nojitter", BackoffPolicy(jitter_low=1.0, jitter_high=1.0), False
)
FIXED_INTERVAL = Discipline(
    # a constant 5 s retry pause: no exponential growth at all
    "aloha-fixed5s",
    BackoffPolicy(base=5.0, factor=1.0, ceiling=5.0, jitter_low=1.0, jitter_high=2.0),
    False,
)

#: Extension results at one seed: family -> variant -> scenario result.
Extensions = dict[str, dict[str, Any]]


@dataclass(slots=True)
class Check:
    figure: str
    claim: str
    passed: bool
    detail: str = ""
    #: ``paper`` for §5's Figures 1-7, ``ours`` for the extensions.
    source: str = "paper"


@dataclass(frozen=True)
class Record:
    """Everything the claims are evaluated on, at one seed."""

    figures: runall.Figures
    extensions: Extensions


def check_figures(figures: runall.Figures) -> list[Check]:
    """Every shape claim the paper makes, evaluated on ``figures``."""
    checks: list[Check] = []

    def check(figure: str, claim: str, passed: bool, detail: str = "") -> None:
        checks.append(Check(figure, claim, bool(passed), detail))

    # -- Figure 1 -----------------------------------------------------
    jobs = figures.fig1.jobs
    check("F1", "fixed collapses to ~0 above its cliff",
          jobs["fixed"][-1] <= 0.1 * max(jobs["fixed"]),
          f"fixed={jobs['fixed']}")
    check("F1", "aloha survives but below ethernet",
          0 < jobs["aloha"][-1] <= jobs["ethernet"][-1],
          f"aloha={jobs['aloha'][-1]} ethernet={jobs['ethernet'][-1]}")
    check("F1", "ethernet > aloha > fixed jobs at the heaviest load",
          jobs["ethernet"][-1] > jobs["aloha"][-1] > jobs["fixed"][-1],
          f"e={jobs['ethernet'][-1]} a={jobs['aloha'][-1]} "
          f"f={jobs['fixed'][-1]}")
    check("F1", "ethernet holds a large fraction of peak",
          jobs["ethernet"][-1] >= 0.35 * max(jobs["ethernet"]),
          f"last={jobs['ethernet'][-1]} peak={max(jobs['ethernet'])}")

    # -- Figure 2 -----------------------------------------------------
    fig2 = figures.fig2
    capacity = fig2.run.params.condor.fd_capacity
    check("F2", "aloha burst exhausts the FD table",
          fig2.fd_series.minimum() < 0.1 * capacity,
          f"min={fig2.fd_series.minimum():.0f}")
    check("F2", "schedd crashes produce broadcast-jam FD spikes",
          fig2.run.crashes >= 2 and fig2.fd_series.maximum() >= 0.9 * capacity,
          f"crashes={fig2.run.crashes} max={fig2.fd_series.maximum():.0f}")
    check("F2", "jobs staircase keeps climbing",
          fig2.jobs_series.last > 0, f"jobs={fig2.jobs_series.last:.0f}")

    # -- Figure 3 -----------------------------------------------------
    fig3 = figures.fig3
    threshold = fig3.run.params.carrier_threshold
    floor = min(fig3.fd_series.values[2:]) if len(fig3.fd_series) > 2 else 0
    check("F3", "ethernet preserves the critical FD floor",
          floor >= 0.5 * threshold, f"floor={floor:.0f} threshold={threshold}")
    check("F3", "no schedd crashes under ethernet",
          fig3.run.crashes == 0, f"crashes={fig3.run.crashes}")
    check("F3", "jobs line climbs under ethernet",
          fig3.jobs_series.last > 0, f"jobs={fig3.jobs_series.last:.0f}")
    check("F3", "ethernet outperforms aloha at equal load",
          fig3.run.jobs_submitted > fig2.run.jobs_submitted,
          f"{fig3.run.jobs_submitted} vs {fig2.run.jobs_submitted}")

    # -- Figures 4 + 5 -------------------------------------------------
    consumed = figures.sweep.consumed
    collisions = figures.sweep.collisions
    check("F4", "ethernet >= aloha >= fixed at heavy load",
          consumed["ethernet"][-1] >= consumed["aloha"][-1] >= consumed["fixed"][-1],
          f"e={consumed['ethernet'][-1]} a={consumed['aloha'][-1]} f={consumed['fixed'][-1]}")
    check("F4", "aloha > fixed files at heavy load",
          consumed["aloha"][-1] > consumed["fixed"][-1],
          f"a={consumed['aloha'][-1]} f={consumed['fixed'][-1]}")
    check("F4", "ethernet falls off only slightly under load",
          min(consumed["ethernet"]) >= 0.5 * max(consumed["ethernet"]),
          f"ethernet={consumed['ethernet']}")
    check("F4", "fixed throughput collapses under load",
          consumed["fixed"][-1] <= 0.5 * max(consumed["fixed"]),
          f"fixed={consumed['fixed']}")
    check("F5", "collisions fixed >> aloha >= ethernet",
          collisions["fixed"][-1] > 5 * collisions["aloha"][-1]
          and collisions["aloha"][-1] >= collisions["ethernet"][-1],
          f"f={collisions['fixed'][-1]} a={collisions['aloha'][-1]} "
          f"e={collisions['ethernet'][-1]}")
    check("F5", "fixed collisions grow with offered load",
          collisions["fixed"][-1] > collisions["fixed"][0],
          f"fixed={collisions['fixed']}")

    # -- Figures 6 + 7 -------------------------------------------------
    fig6, fig7 = figures.fig6.run, figures.fig7.run
    lifetimes = fig6.params.n_clients * fig6.params.duration
    check("F6", "aloha pays 60 s black-hole stalls (collisions)",
          fig6.collisions >= 10
          and fig6.collisions * fig6.params.data_window <= lifetimes,
          f"collisions={fig6.collisions}")
    check("F6", "aloha transfers without probing (no deferrals)",
          fig6.transfers > 0 and fig6.deferrals == 0,
          f"transfers={fig6.transfers} deferrals={fig6.deferrals}")
    check("F7", "ethernet replaces collisions with cheap deferrals",
          fig7.collisions <= 5 and fig7.deferrals > 0,
          f"collisions={fig7.collisions} deferrals={fig7.deferrals}")
    check("F7", "ethernet transfers more than aloha",
          fig7.transfers > fig6.transfers,
          f"{fig7.transfers} vs {fig6.transfers}")

    return checks


def extension_cells(seed: int) -> dict[str, list[CellSpec]]:
    """The extension scenarios' cells at ``seed``, by family; each key's
    last part names the variant :func:`check_extensions` reads."""
    # Allocation RPC seconds: a fast allocator and a slow one.
    fast, slow = BufferConfig(alloc_rpc_time=0.5), BufferConfig(alloc_rpc_time=2.0)
    return {
        "dag": [CellSpec(
            f"dag/{d.name}", run_dag_scenario,
            (DagParams(discipline=d, seed=seed, **DAG),),
        ) for d in (ETHERNET, ALOHA, FIXED)],
        "kangaroo": [CellSpec(
            f"kangaroo/{d.name}", run_kangaroo,
            (KangarooParams(discipline=d, seed=seed, **KANGAROO),),
        ) for d in ALL_DISCIPLINES],
        "reservation": [
            CellSpec("reservation/ethernet", run_buffer, (BufferParams(
                discipline=ETHERNET, buffer=fast, seed=seed, **RESERVATION),)),
            CellSpec("reservation/reserved-fast", run_buffer, (BufferParams(
                discipline=ALOHA, buffer=fast, reserved=True, seed=seed,
                **RESERVATION),)),
            CellSpec("reservation/reserved-slow", run_buffer, (BufferParams(
                discipline=ALOHA, buffer=slow, reserved=True, seed=seed,
                **RESERVATION),)),
        ],
        # The jittered run is the baseline of both the jitter and the
        # interval ablation: one cell.
        "ablation": [CellSpec(
            f"ablation/{d.name}", run_submission,
            (SubmitParams(discipline=d, seed=seed, **ABLATION),),
        ) for d in (JITTERED, SYNCHRONIZED, FIXED_INTERVAL)] + [CellSpec(
            f"ablation/threshold-{threshold}", run_submission,
            (SubmitParams(discipline=ETHERNET, carrier_threshold=threshold,
                          seed=seed, **ABLATION),),
        ) for threshold in THRESHOLDS],
    }


def check_extensions(extensions: Extensions) -> list[Check]:
    """Every claim our extension scenarios make, evaluated on their cells."""
    checks: list[Check] = []

    def check(family: str, claim: str, passed: bool, detail: str = "") -> None:
        checks.append(Check(family, claim, bool(passed), detail, "ours"))

    # -- Chimera DAG: the workflow finishes only with backoff ---------
    dag = extensions["dag"]
    for name in ("ethernet", "aloha"):
        run = dag[name]
        check("DAG", f"{name} finishes the workflow", run.all_finished,
              f"makespan={run.makespan:.0f} "
              f"tasks={run.tasks_done}/{run.tasks_total}")
    fixed = dag["fixed"]
    check("DAG", "fixed never finishes the workflow", not fixed.all_finished,
          f"makespan={fixed.makespan:.0f}")
    check("DAG", "fixed completes under a quarter of the tasks",
          fixed.tasks_done < 0.25 * fixed.tasks_total,
          f"tasks={fixed.tasks_done}/{fixed.tasks_total}")
    check("DAG", "fixed burns more submissions than ethernet",
          fixed.submissions_attempted > dag["ethernet"].submissions_attempted,
          f"{fixed.submissions_attempted} vs "
          f"{dag['ethernet'].submissions_attempted}")

    # -- Kangaroo: end-to-end delivery across a failing WAN -----------
    fixed, aloha, ethernet = (extensions["kangaroo"][d.name]
                              for d in ALL_DISCIPLINES)
    check("KAN", "ethernet delivers >= 0.8x aloha's MB",
          ethernet.mb_delivered >= aloha.mb_delivered * 0.8,
          f"e={ethernet.mb_delivered:.1f} a={aloha.mb_delivered:.1f}")
    check("KAN", "aloha delivers > 2x fixed's MB",
          aloha.mb_delivered > 2 * fixed.mb_delivered,
          f"a={aloha.mb_delivered:.1f} f={fixed.mb_delivered:.1f}")
    check("KAN", "fixed collides > 10x as often as aloha",
          fixed.collisions > 10 * aloha.collisions,
          f"f={fixed.collisions} a={aloha.collisions}")
    check("KAN", "aloha collides at least as often as ethernet",
          aloha.collisions >= ethernet.collisions,
          f"a={aloha.collisions} e={ethernet.collisions}")

    # -- Reservations vs carrier sense (§5, NeST/SRB/SRM) -------------
    reservation = extensions["reservation"]
    ethernet = reservation["ethernet"]
    fast, slow = reservation["reserved-fast"], reservation["reserved-slow"]
    check("RES", "reservations never collide",
          fast.collisions == 0 and slow.collisions == 0,
          f"fast={fast.collisions} slow={slow.collisions}")
    check("RES", "the allocator is contended (wait > 10x the window)",
          fast.alloc_wait_total > 10 * RESERVATION["duration"],
          f"wait={fast.alloc_wait_total:.0f}s")
    check("RES", "a fast allocator keeps >= 0.8x carrier sense's files",
          fast.files_consumed >= 0.8 * ethernet.files_consumed,
          f"fast={fast.files_consumed} ethernet={ethernet.files_consumed}")
    check("RES", "a slow allocator falls under 0.5x carrier sense's files",
          slow.files_consumed < 0.5 * ethernet.files_consumed,
          f"slow={slow.files_consumed} ethernet={ethernet.files_consumed}")

    # -- §3 ablations: jitter, carrier threshold, retry interval ------
    ablation = extensions["ablation"]
    jittered = ablation[JITTERED.name]
    synchronized = ablation[SYNCHRONIZED.name]
    check("ABL", "no jitter: more EMFILE cascades",
          synchronized.emfile_failures > jittered.emfile_failures,
          f"without={synchronized.emfile_failures} "
          f"with={jittered.emfile_failures}")
    check("ABL", "no jitter: no more jobs",
          synchronized.jobs_submitted <= jittered.jobs_submitted,
          f"without={synchronized.jobs_submitted} "
          f"with={jittered.jobs_submitted}")
    low, high = (ablation[f"threshold-{t}"] for t in THRESHOLDS)
    check("ABL", f"threshold {THRESHOLDS[0]}: no schedd crashes",
          low.crashes == 0, f"crashes={low.crashes}")
    check("ABL", f"threshold {THRESHOLDS[1]}: under half the jobs of "
                 f"{THRESHOLDS[0]}",
          high.jobs_submitted < 0.5 * low.jobs_submitted,
          f"{high.jobs_submitted} vs {low.jobs_submitted}")
    interval = ablation[FIXED_INTERVAL.name]
    check("ABL", "a fixed 5 s interval fails more than exponential",
          interval.emfile_failures + interval.backoffs
          > jittered.emfile_failures,
          f"fixed={interval.emfile_failures + interval.backoffs} "
          f"exponential={jittered.emfile_failures}")

    return checks


def build(scale: runall.Scale, seeds: Sequence[int]) -> dict[int, Record]:
    """Every seed's figures and extension cells, run by one
    :func:`~repro.parallel.run_cells` call."""
    plans = {seed: (runall.campaign_cells(scale, seed), extension_cells(seed))
             for seed in seeds}
    # Cell keys name a cell to the executors, so they must differ by seed.
    runs = runall.run_groups({
        (seed, name): [dataclasses.replace(cell, key=f"{seed}/{cell.key}")
                       for cell in cells]
        for seed, plan in plans.items()
        for groups in plan for name, cells in groups.items()})
    return {
        seed: Record(
            runall.assemble_figures(
                scale, {name: runs[seed, name] for name in figures}),
            {family: {cell.key.rsplit("/", 1)[1]: result
                      for cell, result in zip(cells, runs[seed, family])}
             for family, cells in ours.items()})
        for seed, (figures, ours) in plans.items()}


def validate(scale: str = "medium",
             seeds: Sequence[int] = (2003,)) -> dict[int, list[Check]]:
    """Build every seed's record at ``scale``; return its claims table."""
    return {seed: check_figures(record.figures)
            + check_extensions(record.extensions)
            for seed, record in build(runall.SCALES[scale], seeds).items()}


def render(checks: list[Check]) -> str:
    width = max(len(c.claim) for c in checks)
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"[{status}] {c.figure:<3} {c.source:<5} "
                     f"{c.claim:<{width}}  {c.detail}")
    passed = sum(c.passed for c in checks)
    lines.append(f"{passed}/{len(checks)} shape criteria hold")
    return "\n".join(lines)


def render_across(tables: dict[int, list[Check]]) -> str:
    """Row -> how many seeds it holds at, and which it fails at."""
    seeds = list(tables)
    rows = list(zip(*tables.values()))
    width = max(len(row[0].claim) for row in rows)
    lines = [f"across seeds {seeds[0]}-{seeds[-1]}:"]
    for row in rows:
        first = row[0]
        failed = [str(seed) for seed, c in zip(seeds, row) if not c.passed]
        lines.append((
            f"{len(seeds) - len(failed):>3}/{len(seeds)} {first.figure:<3} "
            f"{first.source:<5} {first.claim:<{width}}"
            + (f"  fails at {' '.join(failed)}" if failed else "")).rstrip())
    held = sum(all(c.passed for c in row) for row in rows)
    lines.append(f"{held}/{len(rows)} claims hold at every seed")
    return "\n".join(lines)


def _seeds(text: str) -> list[int]:
    """``--seed``: one seed, or an inclusive range ``first-last``."""
    match = re.fullmatch(r"(\d+)(?:-(\d+))?", text)
    if match is None:
        raise argparse.ArgumentTypeError(f"not a seed or seed range: {text!r}")
    first, last = int(match[1]), int(match[2] or match[1])
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range: {text!r}")
    return list(range(first, last + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("medium", "full"), default="medium")
    parser.add_argument("--seed", type=_seeds, default=[2003],
                        metavar="SEED[-LAST]",
                        help="one seed or an inclusive range (default 2003)")
    args = parser.parse_args(argv)
    tables = validate(scale=args.scale, seeds=args.seed)
    for seed, checks in tables.items():
        print(f"seed {seed} ({args.scale}):")
        print(render(checks))
        print()
    if len(tables) > 1:
        print(render_across(tables))
    return 0 if all(c.passed for checks in tables.values()
                    for c in checks) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
