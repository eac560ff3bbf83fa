"""The perf ledger: four workloads, end-to-end rows, per-layer rows.

::

    python3 benchmarks/ledger/run.py --seed 2003              # all four, untraced
    python3 benchmarks/ledger/run.py --seed 2003 --trace 1    # per-layer rows + Chrome traces
    python3 benchmarks/ledger/run.py --selfcheck              # untraced set twice, compared
    python3 benchmarks/ledger/run.py --workload dist_fleet --seed 7 --seconds 20 --trace 0

The last form is what the benchmark driver calls; its last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Every form exits non-zero when an output check fails.  ``README.md``
beside this file has the catalogue.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".ledger_trace")

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"ledger: no program to measure: {SRC}/repro is missing")
sys.path.insert(0, SRC)

import catalogue  # noqa: E402 - after the path is set
import harness  # noqa: E402
import rules  # noqa: E402


def end_to_end_rows(outcome, setup_s: float) -> dict[str, tuple[float, str]]:
    """Every end-to-end row as ``name -> (value, annotation)``."""
    rows = {}
    for metric in catalogue.END_TO_END:
        if metric.name == "setup_s":
            rows[metric.name] = (
                setup_s, f"median of {harness.SETUP_ROUNDS} set-ups")
        elif metric.name == "peak_rss_mb":
            rows[metric.name] = (harness.peak_rss_mb(),
                                 "max of self and reaped children")
        elif metric.name in outcome.metrics:
            rows[metric.name] = (outcome.metrics[metric.name],
                                 outcome.detail.get(metric.name, ""))
        else:
            rows[metric.name] = (
                catalogue.fill(metric.unit, outcome.wall_s, outcome.units),
                "fill: this workload's primary wall in this unit")
    return rows


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload in this process; print its rows and the
    driver's JSON line.  Returns the exit code."""
    from layers import LAYERS
    from workloads import PLANS

    plan = PLANS[name]
    units = {m.name: m.unit for m in catalogue.END_TO_END}
    units.update({m.name: m.unit for m in catalogue.PER_LAYER})
    print(f"ledger workload={name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)} {harness.describe_host()}")
    with harness.open_ledger(name, seed, seconds, trace) as ledger:
        kept = None
        try:
            setup_s, kept = plan.setup(ledger)
            args = (ledger,) if kept is None else (ledger, kept)
            if not trace:
                outcome = plan.body(*args)
            else:
                # Tracing off, then on, in one process: the ratio of
                # the two walls is the tracing overhead.
                tracer, ledger.tracer = ledger.tracer, None
                untraced = plan.body(*args)
                ledger.tracer, ledger.epoch = tracer, 1
                traced = plan.body(*args)
                measured = LAYERS[name](ledger, untraced, traced, kept)
                measured["bench.trace_overhead_ratio"] = (
                    traced.wall_s / untraced.wall_s)
                rows = {
                    m.name: (measured.get(m.name, 0.0),
                             "" if m.name in measured
                             else f"measured on {m.workload}")
                    for m in catalogue.PER_LAYER}
                unknown = sorted(set(measured) - set(rows))
                ledger.check("every layer row is in the catalogue",
                             not unknown, ", ".join(unknown))
                os.makedirs(TRACE_DIR, exist_ok=True)
                path = os.path.join(TRACE_DIR, f"{name}.trace.json")
                from repro.obs import write_chrome_trace
                write_chrome_trace(ledger.tracer, path)
                print(f"  wrote {os.path.relpath(path, ROOT)} "
                      f"({len(ledger.tracer)} spans)")
        finally:
            if kept is not None:
                kept.close()
        if not trace:
            # After the teardown: only a reaped child counts into the
            # children's peak RSS, and the server is the largest one.
            rows = end_to_end_rows(outcome, setup_s)
        elsewhere = [m for m, (_v, note) in rows.items()
                     if note.startswith("measured on")]
        for metric, (value, note) in rows.items():
            if metric not in elsewhere:
                print(f"  {metric:<42} {value:>12.6g} {units[metric]:<8} "
                      f"{note}")
        if elsewhere:
            print(f"  ({len(elsewhere)} layer rows belong to the other "
                  "workloads' traced runs and read 0 in the JSON line)")
        share = ledger.failed / max(ledger.attempted, 1)
        print(f"  {'failed_share':<42} {share:>12.6g} {'ratio':<8} "
              f"{ledger.failed} of {ledger.attempted} cells, ops and "
              "output checks")
        for note in ledger.notes:
            print(f"  note: {note}")
        for problem in ledger.problems:
            print(f"  FAILED: {problem}")
        document = {
            "correct": ledger.failed == 0,
            "attempted": max(ledger.attempted, 1),
            "failed": ledger.failed,
            "metrics": {metric: {"value": value, "unit": units[metric]}
                        for metric, (value, _note) in rows.items()},
        }
    print(json.dumps(document))
    return 0 if document["correct"] else 1


def run_child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload in a fresh interpreter, as the driver runs it; its
    output passes through and its JSON line comes back."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", f"{seconds:g}",
         "--trace", str(int(trace))],
        stdout=subprocess.PIPE, text=True, timeout=600)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    try:
        document = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        document = {"correct": False, "attempted": 1, "failed": 1,
                    "metrics": {}}
    if done.returncode != 0:
        document["correct"] = False
    return document


def run_all(seed: int, seconds: float, trace: bool) -> int:
    results = {w.name: run_child(w.name, seed, seconds, trace)
               for w in catalogue.WORKLOADS}
    wrong = [name for name, doc in results.items() if not doc["correct"]]
    print("ledger: " + ("every output check passed" if not wrong
                        else "OUTPUT CHECKS FAILED on " + ", ".join(wrong)))
    return 1 if wrong else 0


#: Runs per set in ``--selfcheck``; a set's value is their median.
SELFCHECK_RUNS = 3


def selfcheck(seed: int, seconds: float) -> int:
    """Two untraced sets of the same code and seeds must agree within
    each row's own bound; a benchmark that cannot tell itself from
    itself cannot tell a regression either."""
    sets = []
    for _ in range(2):
        sets.append({
            w.name: [run_child(w.name, seed + i, seconds, False)
                     for i in range(SELFCHECK_RUNS)]
            for w in catalogue.WORKLOADS})
    failures = 0
    print(f"selfcheck: two sets of {SELFCHECK_RUNS} runs, medians compared")
    print(f"{'workload':<14} {'metric':<26} {'first':>12} {'second':>12} "
          f"{'diff':>8} {'bound':>6}")
    for workload in catalogue.WORKLOADS:
        runs = [docs[workload.name] for docs in sets]
        sound = all(doc["correct"] for docs in runs for doc in docs)
        for metric in catalogue.END_TO_END:
            if not sound:
                print(f"{workload.name:<14} {metric.name:<26} "
                      "an output check failed")
                failures += 1
                continue
            first, second = (
                statistics.median(doc["metrics"][metric.name]["value"]
                                  for doc in docs) for docs in runs)
            # Same code twice: neither set may be worse than the other.
            diff = max(rules.worsening(first, second, metric.better),
                       rules.worsening(second, first, metric.better))
            agree = (
                rules.within_bound(first, second, metric.better, metric.bound)
                and rules.within_bound(second, first, metric.better,
                                       metric.bound))
            verdict = "ok" if agree else "DISAGREE"
            failures += not agree
            print(f"{workload.name:<14} {metric.name:<26} {first:>12.6g} "
                  f"{second:>12.6g} {diff:>8.2%} {metric.bound:>6.0%} "
                  f"{verdict}")
    print("selfcheck: " + ("passed" if not failures
                           else f"{failures} row(s) disagree"))
    return 1 if failures else 0


def write_expected() -> int:
    """Recompute ``expected.json``: the artifact digests of every vetted
    campaign seed.  Run it when a change is meant to alter the figures
    or the scorecard, and review the diff like any golden."""
    import contextlib
    import hashlib
    import io
    import shutil
    import tempfile

    from repro.experiments import chaos, runall
    import workloads

    document: dict = {"figures": {workloads.FIGURE_SCALE: {}},
                      "chaos": {workloads.CHAOS_SCALE: {}}}
    for seed in workloads.VETTED_SEEDS:
        out = tempfile.mkdtemp(prefix="ledger-pin-", dir=ROOT)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runall.main(["--scale", workloads.FIGURE_SCALE, "--no-cache",
                             "--csv", "--seed", str(seed), "--out", out])
            figures = workloads.dir_digest(out)
        finally:
            shutil.rmtree(out)
        report = chaos.run_chaos_campaign(
            chaos.SCALES[workloads.CHAOS_SCALE], seed=seed)
        if report.violations:
            sys.exit(f"seed {seed} violates the ordering claim; "
                     "take it out of VETTED_SEEDS")
        card = (chaos.render_scorecard(report) + "\n").encode()
        document["figures"][workloads.FIGURE_SCALE][str(seed)] = figures
        document["chaos"][workloads.CHAOS_SCALE][str(seed)] = \
            hashlib.sha256(card).hexdigest()
        print(f"pinned seed {seed}", flush=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {workloads.EXPECTED_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=[w.name for w in catalogue.WORKLOADS],
                        help="measure this one workload in this process "
                             "(default: all four, each in its own process)")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float,
                        default=float(catalogue.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: spans on, per-layer rows, a Chrome trace")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the untraced set twice and compare")
    parser.add_argument("--write-expected", action="store_true",
                        help="recompute the pinned digests in expected.json")
    args = parser.parse_args(argv)
    if args.write_expected:
        return write_expected()
    if args.selfcheck:
        return selfcheck(args.seed, args.seconds)
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    return run_all(args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
