"""The four workloads: what runs, what is timed, what is verified.

Each workload is three functions over a :class:`~harness.Ledger`:
``setup`` (repeatable; its median is ``setup_s``), ``body`` (the timed
work plus its output checks) and, in ``layers.py``, the traced extras.
Sizes are keyword arguments with the shipped defaults so the tests can
call the same code small; the command line has no size flag.

Timings of CPU-bound work are host-speed reference seconds (see
``hostspeed.py``); ``service_mix`` is bound by the 40 ms timers of its
HTTP exchanges, not by the CPU, and reports raw milliseconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from catalogue import CHAOS, DIST, FIGURES, SERVICE
from harness import SETUP_ROUNDS, Ledger, Timed, cold_import_s
from statistics import median

from rules import tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Campaign seeds ``--seed n`` chooses from (entry n % 4, ordered so
#: that ``--seed 2003`` runs campaign seed 2003, the repo's golden
#: seed); the artifacts of each are pinned in ``expected.json``.  Of
#: 2003-2013, seeds 2004, 2008 and 2011 violate the chaos ordering claim
#: (ethernet >= aloha >= fixed), and a workload may not contain an
#: operation that fails.  2007, 2010 and 2013 put the chaos run's peak
#: RSS at 201, 128 and 175 MB against 137-163 MB for these four, and
#: 2012 makes the chaos campaign 15 % cheaper than they do; no bound on
#: ``peak_rss_mb`` or ``campaign_wall_s`` could hold across such seeds.
VETTED_SEEDS = (2005, 2006, 2009, 2003)

FIGURE_SCALE = "medium"
CHAOS_SCALE = "smoke"
WARM_RERUNS = 10
DIST_CELLS_PER_ROUND = 120
DIST_JOBS = 2
SERVICE_THREADS = 2
#: Ops per client thread for each second of ``--seconds``: 134 at 20 s,
#: so 201 fresh ops leave 10 samples beyond their 95th percentile.
SERVICE_OPS_PER_SECOND = 6.7
REPEAT_EVERY = 4
TERMINAL = ("done", "failed", "cancelled")


def campaign_seed(seed: int) -> int:
    return VETTED_SEEDS[seed % len(VETTED_SEEDS)]


def load_expected() -> dict:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def pinned(kind: str, scale: str, seed: int) -> Optional[str]:
    return load_expected().get(kind, {}).get(scale, {}).get(str(seed))


@dataclass
class Outcome:
    """What one body produced: its native rows and its primary wall."""

    metrics: dict[str, float]
    wall_s: float
    units: int
    #: Annotations printed beside a row (sample counts, pass counts).
    detail: dict[str, str] = field(default_factory=dict)
    #: Raw material for the traced extras.
    extra: dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Progress lines -> spans
# ---------------------------------------------------------------------------

_CELL_LINE = re.compile(r"^  (\S+) \[(run|hit)\]$")
_PHASE_LINES = ("Figure 1:", "cache:", "chaos scorecard")


class LineSpans(io.TextIOBase):
    """Turns a campaign's own progress output into spans.

    ``runall`` and ``chaos`` print ``  <key> [run]`` as each cell starts
    and a fixed line when the cells are over; stamping those lines as
    they arrive gives per-cell spans without touching the program.  Also
    keeps the text, which the checks read.
    """

    def __init__(self, ledger: Ledger, root) -> None:
        super().__init__()
        self.ledger = ledger
        self.root = root
        self.text = io.StringIO()
        self._partial = ""
        self._open = None

    def write(self, text: str) -> int:
        self.text.write(text)
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.feed(line)
        return len(text)

    def feed(self, line: str) -> None:
        tracer = self.ledger.tracer
        if tracer is None:
            return
        match = _CELL_LINE.match(line)
        if match:
            self.finish()
            self._open = tracer.start(f"cell:{match.group(1)}", "cell",
                                      parent=self.root,
                                      source=match.group(2))
        elif line.startswith(_PHASE_LINES):
            self.finish()
            self._open = tracer.start(f"after-cells:{line.split(':')[0]}",
                                      "render", parent=self.root)

    def finish(self) -> None:
        if self._open is not None:
            self.ledger.tracer.finish(self._open)
            self._open = None


def dir_digest(path: str) -> str:
    """One sha256 over every file of a report directory, by name."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    return digest.hexdigest()


def room_for_another(ledger: Ledger, started: float, last_s: float) -> bool:
    """Whether one more pass like the last would still end within a
    quarter past ``--seconds``: the driver caps the sum of all runs, and
    on a slow host phase a pass takes half as long again."""
    spent = time.perf_counter() - started
    return spent < ledger.seconds and \
        spent + last_s <= ledger.seconds * 1.25


def setup_rounds(ledger: Ledger, once: Callable[[int], Any],
                 one_cpu: bool, scaled: bool = True) -> tuple[float, Any]:
    """Run ``once(round)`` SETUP_ROUNDS times; ``(median seconds, the
    last round's return value)``.  ``one_cpu`` for a set-up that is one
    process at a time."""
    costs = []
    kept = None
    for index in range(SETUP_ROUNDS):
        with ledger.one_cpu(one_cpu), ledger.timed() as region:
            kept = once(index)
        costs.append(region.ref_s if scaled else region.raw_s)
    return median(costs), kept


# ---------------------------------------------------------------------------
# figures_full
# ---------------------------------------------------------------------------

def figures_setup(ledger: Ledger) -> tuple[float, None]:
    def once(_index: int) -> None:
        cold_import_s(ledger, "repro.experiments.runall")
        shutil.rmtree(ledger.fresh_dir("figures-setup"))

    return setup_rounds(ledger, once, one_cpu=True)


def figures_body(ledger: Ledger, scale: str = FIGURE_SCALE) -> Outcome:
    """Serial, uncached ``runall`` passes until ``--seconds`` are spent."""
    from repro.experiments import runall

    seed = campaign_seed(ledger.seed)
    want = pinned("figures", scale, seed)
    passes: list[Timed] = []
    cells = 0
    started = time.perf_counter()
    while True:
        out = ledger.fresh_dir("figures-out")
        with ledger.span("runall.main", "experiments",
                         scale=scale, seed=seed) as root:
            sink = LineSpans(ledger, root)
            with ledger.one_cpu(), ledger.timed() as region, \
                    contextlib.redirect_stdout(sink):
                code = runall.main(["--scale", scale, "--no-cache", "--csv",
                                    "--seed", str(seed), "--out", out])
            sink.finish()
        passes.append(region)
        found = re.search(r"^Campaign: (\d+) cells", sink.text.getvalue(),
                          re.MULTILINE)
        cells = int(found.group(1)) if found else 0
        ledger.count(cells)
        ledger.check("runall exit code", code == 0, f"exit {code}")
        ledger.check("runall cell count", cells > 0, "no Campaign line")
        got = dir_digest(out)
        shutil.rmtree(out)
        if want is None:
            want = got  # unpinned scale: passes must at least agree
            ledger.notes.append(f"figures at scale {scale} seed {seed} "
                                "are not pinned; passes compared with "
                                "each other only")
        ledger.check("figure reports match their pinned sha256",
                     got == want, f"{got} != {want}")
        if not room_for_another(ledger, started, region.raw_s):
            break
    wall = median(p.ref_s for p in passes)
    return Outcome(
        metrics={"campaign_wall_s": wall},
        wall_s=wall, units=max(cells, 1),
        detail={"campaign_wall_s":
                f"median of {len(passes)} pass(es) of {cells} cells, "
                f"scale {scale}, campaign seed {seed}; raw "
                + "/".join(f"{p.raw_s:.2f}" for p in passes) + " s"},
        extra={"passes": passes, "cells": cells})


# ---------------------------------------------------------------------------
# chaos_cache
# ---------------------------------------------------------------------------

def chaos_setup(ledger: Ledger) -> tuple[float, None]:
    def once(_index: int) -> None:
        cold_import_s(ledger, "repro.experiments.chaos")
        shutil.rmtree(ledger.fresh_dir("chaos-setup"))

    return setup_rounds(ledger, once, one_cpu=True)


@dataclass
class CliRun:
    region: Timed
    code: int
    stdout: str
    scorecard: bytes
    hits: int
    misses: int


def _chaos_cli(ledger: Ledger, label: str, scale: str, seed: int,
               cache_dir: str, out_dir: str) -> CliRun:
    """One ``python -m repro.experiments.chaos`` run, as a user types it.

    Traced, the child runs unbuffered so its progress lines arrive as
    they are printed and can be stamped into spans.
    """
    argv = [sys.executable, "-m", "repro.experiments.chaos",
            "--scale", scale, "--seed", str(seed),
            "--cache-dir", cache_dir, "--out", out_dir]
    traced = ledger.tracer is not None
    env = ledger.child_env(**({"PYTHONUNBUFFERED": "1"} if traced else {}))
    with ledger.span(f"chaos.cli:{label}", "experiments") as root:
        sink = LineSpans(ledger, root)
        with ledger.one_cpu(), ledger.timed() as region:
            # stderr rides along so a crash leaves its traceback in
            # the text the checks quote.
            child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True)
            try:
                for line in child.stdout:
                    sink.write(line)
                code = child.wait(timeout=170)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
                child.stdout.close()
        sink.finish()
    stdout = sink.text.getvalue()
    found = re.search(r"^cache: (\d+) hits, (\d+) misses", stdout,
                      re.MULTILINE)
    hits, misses = (int(found.group(1)), int(found.group(2))) if found \
        else (0, 0)
    try:
        with open(os.path.join(out_dir, f"scorecard_{scale}.txt"),
                  "rb") as handle:
            scorecard = handle.read()
    except OSError:
        scorecard = b""
    return CliRun(region, code, stdout, scorecard, hits, misses)


def chaos_body(ledger: Ledger, scale: str = CHAOS_SCALE,
               warm_reruns: int = WARM_RERUNS) -> Outcome:
    """One cold CLI run into a fresh cache, then warm CLI reruns.

    Both sides go through the CLI because the cache key carries the
    cell function's module: under ``python -m`` that is ``__main__``,
    so a cache filled through the library API is cold to the CLI.
    """
    seed = campaign_seed(ledger.seed)
    cache_dir = ledger.fresh_dir("chaos-cache")
    out_dir = ledger.fresh_dir("chaos-out")
    try:
        cold = _chaos_cli(ledger, "cold", scale, seed, cache_dir, out_dir)
        cells = cold.misses
        ledger.count(cells)
        ledger.check("cold chaos run exits 0 (ordering holds)",
                     cold.code == 0,
                     f"exit {cold.code}: {cold.stdout[-400:]}")
        ledger.check("cold chaos run computed every cell",
                     cold.hits == 0 and cells > 0,
                     f"{cold.hits} hits, {cold.misses} misses")
        ledger.check("scorecard states the ordering holds",
                     b"ordering holds" in cold.scorecard)
        want = pinned("chaos", scale, seed)
        got = hashlib.sha256(cold.scorecard).hexdigest()
        if want is None:
            ledger.notes.append(f"chaos scale {scale} seed {seed} is not "
                                "pinned; cold compared with warm only")
        else:
            ledger.check("scorecard matches its pinned sha256",
                         got == want, f"{got} != {want}")
        warm = []
        for index in range(warm_reruns):
            run = _chaos_cli(ledger, f"warm{index}", scale, seed,
                             cache_dir, out_dir)
            warm.append(run)
            ledger.count(cells)
            ledger.check(
                "warm rerun computed nothing and printed the same bytes",
                run.code == 0 and run.misses == 0 and run.hits == cells
                and run.scorecard == cold.scorecard,
                f"exit {run.code}, {run.hits} hits, {run.misses} misses, "
                f"same bytes: {run.scorecard == cold.scorecard}")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.rmtree(out_dir, ignore_errors=True)
    warm_s = median(run.region.ref_s for run in warm)
    lookups = sum(run.hits + run.misses for run in warm)
    return Outcome(
        metrics={"campaign_wall_s": cold.region.ref_s,
                 "warm_rerun_s": warm_s},
        wall_s=cold.region.ref_s, units=max(cells, 1),
        detail={
            "campaign_wall_s": f"cold CLI run of {cells} cells, scale "
                               f"{scale}, campaign seed {seed}; raw "
                               f"{cold.region.raw_s:.2f} s",
            "warm_rerun_s": f"median of {len(warm)} warm CLI reruns, "
                            "import included; raw "
                            f"{median(r.region.raw_s for r in warm):.3f} s"},
        extra={"cold": cold, "warm": warm, "cells": cells, "seed": seed,
               "scale": scale,
               "hit_ratio": (sum(run.hits for run in warm) / lookups
                             if lookups else 0.0)})


# ---------------------------------------------------------------------------
# dist_fleet
# ---------------------------------------------------------------------------

EXECUTORS = (
    ("serial", {"jobs": None}),
    ("pool", {"jobs": DIST_JOBS, "backend": "inprocess"}),
    ("worksteal", {"jobs": DIST_JOBS, "backend": "work-stealing"}),
    ("socket", {"jobs": DIST_JOBS, "backend": "socket"}),
)


def dist_cells(seed: int, first: int, count: int) -> list:
    """``count`` short submission cells (40 clients, 30 simulated
    seconds, about 11 ms each), disciplines rotating, seeds seed+i."""
    from repro.clients.base import ALL_DISCIPLINES
    from repro.experiments.scenario_submit import SubmitParams, run_submission
    from repro.parallel.executor import CellSpec

    return [
        CellSpec(
            key=f"ledger/dist/{index}",
            fn=run_submission,
            args=(SubmitParams(
                discipline=ALL_DISCIPLINES[index % len(ALL_DISCIPLINES)],
                n_clients=40, duration=30.0, seed=seed + index),))
        for index in range(first, first + count)
    ]


def noop_cells(count: int) -> list:
    """The cheapest cells there are: what is left is the executor.

    The function has to come from ``repro`` itself: a worker that was
    spawned rather than forked can import nothing of the benchmark's.
    """
    from repro.parallel.executor import CellSpec, resolve_jobs

    return [CellSpec(key=f"ledger/noop/{i}", fn=resolve_jobs, args=(1,),
                     cacheable=False) for i in range(count)]


def wait_single_threaded(timeout: float = 5.0) -> None:
    """Let the last fleet's helper threads end before the next starts.

    ``repro.dist`` forks its workers only while this process has one
    thread, and spawns fresh interpreters otherwise; a queue feeder
    thread that outlives the previous campaign by a few milliseconds
    would flip that choice from one round to the next.
    """
    deadline = time.monotonic() + timeout
    while threading.active_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.005)


def results_digest(results: list) -> str:
    from repro.parallel.transport import to_jsonable

    blob = json.dumps([to_jsonable(result) for result in results],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def dist_setup(ledger: Ledger) -> tuple[float, None]:
    """Cold import, then two no-op cells through each fleet executor so
    its lazy imports are paid before the timed rounds."""
    from repro.parallel.executor import run_cells

    def once(_index: int) -> None:
        cold_import_s(ledger, "repro.parallel.executor, repro.dist.backends")
        for _name, kwargs in EXECUTORS[1:]:
            wait_single_threaded()
            run_cells(noop_cells(2), **kwargs)

    return setup_rounds(ledger, once, one_cpu=False)


def dist_body(ledger: Ledger, cells_per_round: int = DIST_CELLS_PER_ROUND,
              min_rounds: int = 2) -> Outcome:
    """Rounds of the same fresh cells through all four executors, each
    on its own empty cache directory, until ``--seconds`` are spent."""
    from repro.parallel.cache import ResultCache
    from repro.parallel.executor import run_cells

    walls: dict[str, list[Timed]] = {name: [] for name, _ in EXECUTORS}
    started = time.perf_counter()
    rounds = 0
    while True:
        cells = dist_cells(ledger.seed, rounds * cells_per_round,
                           cells_per_round)
        digests = {}
        for name, kwargs in EXECUTORS:
            cache = ResultCache(ledger.fresh_dir(f"dist-{name}"))
            try:
                with ledger.span(f"run_cells:{name}", "dist", round=rounds,
                                 cells=len(cells)) as root:
                    wait_single_threaded()
                    # One process needs one CPU, and is scaled by
                    # that CPU's speed; a fleet of two gets both.
                    with ledger.one_cpu(name == "serial"), \
                            ledger.timed() as region:
                        results = run_cells(
                            cells, cache=cache,
                            progress=_cell_spans(ledger, name, root),
                            **kwargs)
            finally:
                shutil.rmtree(cache.root, ignore_errors=True)
            walls[name].append(region)
            digests[name] = results_digest(results)
            ledger.count(len(cells))
            ledger.check(f"{name} returned one result per cell",
                         len(results) == len(cells)
                         and all(r is not None for r in results))
        ledger.check("all four executors returned identical results",
                     len(set(digests.values())) == 1, json.dumps(digests))
        rounds += 1
        round_s = (time.perf_counter() - started) / rounds
        if rounds >= min_rounds and \
                not room_for_another(ledger, started, round_s):
            break
    rates = {name: median(cells_per_round / region.ref_s
                          for region in regions)
             for name, regions in walls.items()}
    serial_wall = median(region.ref_s for region in walls["serial"])
    return Outcome(
        metrics={f"cells_per_s.{name}": rate
                 for name, rate in rates.items()},
        wall_s=serial_wall, units=cells_per_round,
        detail={f"cells_per_s.{name}":
                f"median of {rounds} rounds of {cells_per_round} cells, "
                f"jobs={kwargs['jobs'] or 1}; raw "
                f"{median(cells_per_round / r.raw_s for r in walls[name]):.1f}"
                for name, kwargs in EXECUTORS},
        extra={"walls": walls, "rounds": rounds,
               "cells_per_round": cells_per_round})


class _CellProgress:
    """``run_cells`` progress hook -> one span per serially run cell."""

    def __init__(self, ledger: Ledger, root) -> None:
        self.ledger = ledger
        self.root = root
        self._open: dict[str, Any] = {}

    def __call__(self, key: str, status: str) -> None:
        tracer = self.ledger.tracer
        if status == "run":
            self._open[key] = tracer.start(f"cell:{key}", "cell",
                                           parent=self.root)
        elif status == "done" and key in self._open:
            tracer.finish(self._open.pop(key))


def _cell_spans(ledger: Ledger, executor: str,
                root) -> Optional[_CellProgress]:
    # Only the serial path runs a cell between its "run" and "done"
    # calls; the fleets report both from the parent, after the fact.
    if ledger.tracer is None or executor != "serial":
        return None
    return _CellProgress(ledger, root)


# ---------------------------------------------------------------------------
# service_mix
# ---------------------------------------------------------------------------

SCRIPTS = (
    ("submit_ethernet.ftsh", "condor"),
    ("buffer_producer.ftsh", "buffer"),
    ("replica_fetch.ftsh", "replica"),
)


def load_scripts() -> list[tuple[str, str]]:
    from harness import ROOT

    loaded = []
    for name, world in SCRIPTS:
        with open(os.path.join(ROOT, "examples", name), "r",
                  encoding="utf-8") as handle:
            loaded.append((handle.read(), world))
    return loaded


class ServiceProcess:
    """A live ``python -m repro.service`` and a client bound to it."""

    def __init__(self, ledger: Ledger) -> None:
        from repro.service.client import ServiceClient

        self.cache_dir = ledger.fresh_dir("service-cache")
        self.child = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--workers", "2", "--cache-dir", self.cache_dir],
            env=ledger.child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        try:
            banner = self.child.stdout.readline()
            found = re.search(r"http://[\d.]+:\d+", banner)
            if not found:
                raise RuntimeError(f"service did not start: {banner!r}")
            self.url = found.group(0)
            self.client = ServiceClient(self.url)
            self.client.healthz()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.child.poll() is None:
            self.child.terminate()
            try:
                self.child.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
        self.child.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


@dataclass
class Op:
    kind: str            # "fresh" or "repeat"
    ok: bool
    latency_s: float
    phases: dict[str, float]
    exchanges: int
    payload: str         # canonical result document
    error: str = ""


def run_op(ledger: Ledger, client, script: str, world: str, seed: int,
           kind: str, parent=None) -> Op:
    """submit_script -> long-poll events -> status -> result."""
    exchanges = 0
    phases: dict[str, float] = {}
    clock = time.perf_counter
    began = clock()
    try:
        with ledger.span(f"op:{kind}", "service", parent=parent) as op_span:
            with ledger.span("submit", "service", parent=op_span):
                status = client.submit_script(script, world=world, seed=seed,
                                              timeout=600.0)
                exchanges += 1
            phases["submit"] = clock() - began
            mark = clock()
            with ledger.span("wait", "service", parent=op_span):
                # Always at least one events call, starting at the last
                # event the submit response knew of (a resubmitted job's
                # stream still holds its previous run): an op is four
                # exchanges whether or not the job beat its own submit
                # response, so the median does not flip between three
                # and four.
                state, seq = "", max(status.events_seq - 1, 0)
                while state not in TERMINAL:
                    events = client.events(status.job_id, since=seq, wait=5)
                    exchanges += 1
                    for event in events:
                        seq, state = event.seq, event.state
            phases["wait"] = clock() - mark
            mark = clock()
            with ledger.span("status", "service", parent=op_span):
                final = client.status(status.job_id)
                exchanges += 1
            phases["status"] = clock() - mark
            mark = clock()
            with ledger.span("result", "service", parent=op_span):
                result = client.result(status.job_id)
                exchanges += 1
            phases["result"] = clock() - mark
        latency = clock() - began
    except Exception as exc:  # noqa: BLE001 - an op that raised is a failed op
        return Op(kind, False, clock() - began, phases, exchanges, "",
                  f"{type(exc).__name__}: {exc}")
    ok = final.state == "done" and result.state == "done"
    return Op(kind, ok, latency, phases, exchanges,
              json.dumps(result.result, sort_keys=True),
              "" if ok else f"job {final.state}: {final.error}")


def service_setup(ledger: Ledger) -> tuple[float, ServiceProcess]:
    """Start the server, wait for /healthz, run each script once so the
    server's lazy imports are paid; every round but the last tears the
    server down again.  Raw seconds: half of it is HTTP timer waits."""
    scripts = load_scripts()

    def once(index: int) -> Optional[ServiceProcess]:
        service = ServiceProcess(ledger)
        try:
            for number, (script, world) in enumerate(scripts):
                op = run_op(ledger, service.client, script, world,
                            seed=ledger.seed * 1_000_000 + 999_000 + number,
                            kind="warmup")
                if not op.ok:
                    raise RuntimeError(f"service warm-up op failed: "
                                       f"{op.error}")
        except BaseException:
            service.close()
            raise
        if index < SETUP_ROUNDS - 1:
            service.close()
            return None
        return service

    return setup_rounds(ledger, once, one_cpu=False, scaled=False)


def service_body(ledger: Ledger, service: ServiceProcess,
                 ops_per_thread: Optional[int] = None,
                 threads: int = SERVICE_THREADS) -> Outcome:
    """Closed loop: each client thread sends its next op when the last
    one returned.  Three ops in four carry a fresh seed (admit -> lint ->
    job -> cell); the fourth resubmits one this thread already finished
    (dedupe / cache hit) and must get the first result's bytes back."""
    if ops_per_thread is None:
        ops_per_thread = max(REPEAT_EVERY,
                             round(SERVICE_OPS_PER_SECOND * ledger.seconds))
    scripts = load_scripts()
    done: list[list[Op]] = [[] for _ in range(threads)]
    mismatches: list[str] = []

    def client_loop(thread: int) -> None:
        finished: list[tuple[int, int, str]] = []  # (script, seed, payload)
        for index in range(ops_per_thread):
            repeat = index % REPEAT_EVERY == REPEAT_EVERY - 1 and finished
            if repeat:
                which, seed, first = finished[index // REPEAT_EVERY
                                              % len(finished)]
            else:
                which = index % len(scripts)
                seed = (ledger.seed * 1_000_000 + ledger.epoch * 400_000
                        + thread * 100_000 + index)
            script, world = scripts[which]
            op = run_op(ledger, service.client, script, world, seed,
                        "repeat" if repeat else "fresh")
            if repeat and op.ok and op.payload != first:
                op.ok = False
                op.error = "repeat returned different bytes"
                mismatches.append(f"thread {thread} op {index}")
            if not repeat and op.ok:
                finished.append((which, seed, op.payload))
            done[thread].append(op)

    workers = [threading.Thread(target=client_loop, args=(t,),
                                name=f"ledger-client-{t}")
               for t in range(threads)]
    # The server's own account of these ops, for service.app.handle_ms.
    server_before = service.client.metrics()
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    wall = time.perf_counter() - started
    server_after = service.client.metrics()

    ops = [op for per_thread in done for op in per_thread]
    failed = [op for op in ops if not op.ok]
    ledger.count(len(ops), len(failed))
    for op in failed[:5]:
        ledger.problems.append(f"{op.kind} op failed: {op.error}")
    fresh = [op.latency_s * 1000.0 for op in ops
             if op.kind == "fresh" and op.ok]
    repeat = [op.latency_s * 1000.0 for op in ops
              if op.kind == "repeat" and op.ok]
    ledger.check("some fresh and some repeat ops completed",
                 bool(fresh) and bool(repeat),
                 f"{len(fresh)} fresh, {len(repeat)} repeat")
    if not fresh or not repeat:
        fresh = fresh or [float("nan")]
        repeat = repeat or [float("nan")]
    tail_pct, tail = tail_percentile(fresh, 95)
    return Outcome(
        metrics={"submit_to_result_p50_ms": median(fresh),
                 "submit_to_result_p95_ms": tail,
                 "repeat_p50_ms": median(repeat),
                 "ops_per_s": len(ops) / wall},
        wall_s=wall, units=max(len(ops), 1),
        detail={
            "submit_to_result_p50_ms": f"n={len(fresh)} fresh ops, raw",
            "submit_to_result_p95_ms":
                f"n={len(fresh)} fresh ops, p{tail_pct} "
                f"({len(fresh) - round(len(fresh) * tail_pct / 100)} "
                "samples beyond), raw",
            "repeat_p50_ms": f"n={len(repeat)} repeat ops, raw",
            "ops_per_s": f"{len(ops)} ops by {threads} closed-loop "
                         f"clients in {wall:.2f} s, raw"},
        extra={"ops": ops, "threads": threads,
               "server_metrics": (server_before, server_after)})


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Plan:
    """How ``run.py`` drives one workload."""

    #: ``(setup_s, kept)``; a ``kept`` that is not None (a live server)
    #: is handed to ``body`` and closed by the caller.
    setup: Callable[[Ledger], tuple[float, Any]]
    body: Callable[..., Outcome]


PLANS = {
    FIGURES: Plan(figures_setup, figures_body),
    CHAOS: Plan(chaos_setup, chaos_body),
    DIST: Plan(dist_setup, dist_body),
    SERVICE: Plan(service_setup, service_body),
}
