"""One run's plumbing: scratch space, clean environment, clocks, spans,
and the attempted/failed account every workload writes into.

Everything a run writes lands under ``<checkout>/.ledger_tmp/`` (the
driver forbids writing outside the checkout) and is removed on exit.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from hostspeed import HostSpeed

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
TMP_PARENT = os.path.join(ROOT, ".ledger_tmp")

#: Every ``REPRO_*`` switch changes what the program does (cache
#: location, executor backend, wire version, interpreter, telemetry
#: push, fork policy); a measurement must not inherit one.
SCRUB_PREFIX = "REPRO_"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_ROUNDS = 3

#: CPUs a run confines itself to (the issue's "at most nproc (2)").
MAX_CPUS = 2


def scrub_environment(environ=os.environ) -> list[str]:
    """Drop every program switch from ``environ``; returns the names."""
    dropped = sorted(name for name in environ
                     if name.startswith(SCRUB_PREFIX))
    for name in dropped:
        del environ[name]
    return dropped


def commit_id() -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class Timed:
    """One timed region: raw seconds and host-speed reference seconds."""

    start: float
    end: float = 0.0
    ref_s: float = 0.0

    @property
    def raw_s(self) -> float:
        return self.end - self.start


@dataclass
class Ledger:
    """State of one benchmark run."""

    workload: str
    seed: int
    seconds: float
    tmp: str
    host: HostSpeed
    tracer: Optional[object] = None
    #: CPUs the region being timed may run on (``one_cpu`` narrows it).
    region_cpus: Optional[tuple[int, ...]] = None
    #: Which body of the run this is (a traced run has two); the
    #: service workload folds it into its seeds so the second body's
    #: fresh ops are fresh to the server too.
    epoch: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    # -- accounting ----------------------------------------------------
    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        """One output check; a failure counts as a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{what}: {detail}" if detail else what)
        return ok

    # -- scratch -------------------------------------------------------
    def fresh_dir(self, label: str) -> str:
        return tempfile.mkdtemp(prefix=f"{label}-", dir=self.tmp)

    def child_env(self, **extra: str) -> dict[str, str]:
        """Environment for a subprocess: ``repro`` importable, scratch
        inside the checkout, no program switches."""
        env = dict(os.environ)
        scrub_environment(env)
        env["PYTHONPATH"] = SRC
        env["TMPDIR"] = self.tmp
        env.update(extra)
        return env

    # -- clocks --------------------------------------------------------
    @contextlib.contextmanager
    def one_cpu(self, wanted: bool = True) -> Iterator[None]:
        """Pin this process (and what it spawns meanwhile) to the first
        sampled CPU, so that a single-process region is scaled by the
        speed of the very CPU it ran on.  The CPUs drift apart, and a
        sampler on the idle one says little about the busy one.
        ``wanted=False`` (a fleet that needs both CPUs) does nothing."""
        if not wanted or self.region_cpus is not None:  # or pinned already
            yield
            return
        cpu = self.host.cpus[0]
        os.sched_setaffinity(0, {cpu})
        self.region_cpus = (cpu,)
        try:
            yield
        finally:
            self.region_cpus = None
            os.sched_setaffinity(0, set(self.host.cpus))

    @contextlib.contextmanager
    def timed(self) -> Iterator[Timed]:
        region = Timed(start=time.perf_counter())
        try:
            yield region
        finally:
            region.end = time.perf_counter()
            region.ref_s = self.host.scale(region.start, region.end,
                                           self.region_cpus)

    @contextlib.contextmanager
    def span(self, name: str, kind: str, parent=None, **attrs):
        """A span when tracing is on; nothing when it is off."""
        if self.tracer is None:
            yield None
            return
        span = self.tracer.start(name, kind, parent=parent, **attrs)
        try:
            yield span
        except BaseException:
            self.tracer.finish(span, "failed")
            raise
        self.tracer.finish(span)


@contextlib.contextmanager
def open_ledger(workload: str, seed: int, seconds: float,
                trace: bool) -> Iterator[Ledger]:
    """Scratch dir, scrubbed environment, host-speed sampler, tracer."""
    from repro.obs.clock import wall_clock
    from repro.obs.spans import Tracer

    scrub_environment()
    # The ledger lives on two CPUs wherever it runs: the fleets are two
    # workers wide, and each CPU used gets its own speed sampler.
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)[:MAX_CPUS]
    os.sched_setaffinity(0, set(cpus))
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_PARENT)
    # Library code (multiprocessing, ResultCache) asks tempfile for
    # scratch; keep that inside the checkout too.
    saved_tempdir = tempfile.tempdir
    tempfile.tempdir = tmp
    try:
        with HostSpeed(tmp, cpus) as host:
            host.wait_ready()
            tracer = Tracer(clock=wall_clock()) if trace else None
            yield Ledger(workload=workload, seed=seed, seconds=seconds,
                         tmp=tmp, host=host, tracer=tracer)
    finally:
        tempfile.tempdir = saved_tempdir
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP_PARENT)


def cold_import_s(ledger: Ledger, modules: str) -> Timed:
    """A fresh interpreter importing ``modules``: what every CLI run of
    the program pays before its first line of work, and the one part of
    set-up that can be repeated inside a single run."""
    with ledger.one_cpu(), ledger.timed() as region:
        subprocess.run([sys.executable, "-c", f"import {modules}"],
                       env=ledger.child_env(), check=True, timeout=120)
    return region


def describe_host() -> str:
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"commit={commit_id()}")
