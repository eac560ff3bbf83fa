"""One-command reproduction gate: check every figure's shape criteria.

::

    python -m repro.experiments.validate                 # medium scale
    python -m repro.experiments.validate --scale full --seed 2004

Builds the figures exactly as ``runall`` does at the named scale
(:func:`repro.experiments.runall.build_figures`) and evaluates the
paper's shape claims on them (DESIGN.md §4, EXPERIMENTS.md), printing a
PASS/FAIL table.  Exit status 0 iff every claim holds — suitable as a
CI reproduction check.  ``medium`` is the smallest scale at which the
claims hold; runall's ``quick`` smoke scale is too small for them.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from . import runall


@dataclass(slots=True)
class Check:
    figure: str
    claim: str
    passed: bool
    detail: str = ""


def check_figures(figures: runall.Figures) -> list[Check]:
    """Every shape claim the reproduction makes, evaluated on ``figures``."""
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


def validate(scale: str = "medium", seed: int = 2003) -> list[Check]:
    """Build runall's figures at ``scale``; return one entry per claim."""
    return check_figures(runall.build_figures(runall.SCALES[scale], seed))


def render(checks: list[Check]) -> str:
    width = max(len(c.claim) for c in checks)
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"[{status}] {c.figure:<3} {c.claim:<{width}}  {c.detail}")
    passed = sum(c.passed for c in checks)
    lines.append(f"{passed}/{len(checks)} shape criteria hold")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("medium", "full"), default="medium")
    parser.add_argument("--seed", type=int, default=2003)
    args = parser.parse_args(argv)
    checks = validate(scale=args.scale, seed=args.seed)
    print(render(checks))
    return 0 if all(c.passed for c in checks) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
