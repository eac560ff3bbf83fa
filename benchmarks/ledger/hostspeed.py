"""Host-speed calibration: cancel the machine's drift out of CPU-bound walls.

On a shared VM identical pure-Python work takes 45-90 ms from one
15-second window to the next, and the two CPUs drift apart from each
other, so a raw wall-clock cannot hold a regression bound.  One sampler
process per CPU, pinned to it, runs a fixed loop every ``INTERVAL``
seconds and records the CPU time it took.  A timed region is then
reported in *reference seconds*::

    wall * mean(REFERENCE_S / sample) over the samples inside the region

(work done is speed integrated over time, and speed is 1 / sample, so
samples are averaged as speeds, not as costs).  A region that ran
pinned to one CPU uses that CPU's samples; one that used both uses the
mean of both.

The loop touches no repo code, so a change to ``src/`` moves the wall
and not the scale.  CPU time (not wall) keeps preemption by busy worker
processes out of a sample, and the best of ``BURST`` back-to-back loops
keeps the cold caches of a process that just woke up out of it.  The
samplers are processes, not threads: they never take the benchmark's
GIL, and ``repro.dist`` only forks its workers from a single-threaded
parent.  Wait-bound timings (the service's timer-dominated exchanges)
are reported raw: scaling a sleep by CPU speed would add the noise this
module removes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Iterable, Optional

#: Iterations of the calibration loop (about half a millisecond here).
LOOP = 10_000

#: Loops per sample; the fastest one is the sample.
BURST = 3

#: CPU seconds the loop takes on the reference host state.
REFERENCE_S = 0.0005

#: Seconds between samples: host speed drifts over seconds, not millis.
INTERVAL = 0.05


def calibration_loop(n: int = LOOP) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def _sampler_main(path: str, cpu: int) -> None:
    """Child entry: append ``perf_counter cpu_cost`` rows until killed.

    ``perf_counter`` is CLOCK_MONOTONIC on Linux, one epoch for every
    process, so the parent can window these rows with its own clock.
    """
    os.sched_setaffinity(0, {cpu})
    with open(path, "a", encoding="ascii", buffering=1) as handle:
        while True:
            best = float("inf")
            for _ in range(BURST):
                started = time.process_time()
                calibration_loop()
                best = min(best, time.process_time() - started)
            handle.write(f"{time.perf_counter()!r} {best!r}\n")
            time.sleep(INTERVAL)


class HostSpeed:
    """Samples each CPU's speed in a pinned child; scales walls by it."""

    def __init__(self, directory: str, cpus: Iterable[int]) -> None:
        self.cpus = tuple(cpus)
        self._paths = {cpu: os.path.join(directory, f"hostspeed.{cpu}.txt")
                       for cpu in self.cpus}
        self._children: list[subprocess.Popen] = []

    def __enter__(self) -> "HostSpeed":
        for cpu, path in self._paths.items():
            self._children.append(subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), path, str(cpu)],
                stdin=subprocess.DEVNULL))
        return self

    def __exit__(self, *exc_info) -> None:
        for child in self._children:
            child.kill()
        for child in self._children:
            child.wait()
        self._children = []

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every child has written its first sample."""
        deadline = time.monotonic() + timeout
        while not all(self.samples(cpu) for cpu in self.cpus):
            if any(child.poll() is not None for child in self._children):
                raise RuntimeError("a host-speed sampler exited")
            if time.monotonic() > deadline:
                raise RuntimeError("a host-speed sampler wrote no sample")
            time.sleep(0.01)

    def samples(self, cpu: int) -> list[tuple[float, float]]:
        rows = []
        path = self._paths[cpu]
        if not os.path.exists(path):
            return rows
        with open(path, "r", encoding="ascii") as handle:
            for line in handle:
                at, _, cost = line.partition(" ")
                if cost.endswith("\n"):  # a torn last row has no newline
                    rows.append((float(at), float(cost)))
        return rows

    def _cpu_factor(self, cpu: int, start: float, end: float) -> float:
        samples = self.samples(cpu)
        inside = [cost for at, cost in samples if start <= at <= end]
        if not inside:
            # A window shorter than the interval: the nearest sample.
            middle = (start + end) / 2.0
            inside = [min(samples, key=lambda row: abs(row[0] - middle))[1]]
        return sum(REFERENCE_S / cost for cost in inside) / len(inside)

    def factor(self, start: float, end: float,
               cpus: Optional[Iterable[int]] = None) -> float:
        """Reference-speed scale for the ``perf_counter`` window given,
        over the CPUs the region ran on (default: all sampled)."""
        chosen = tuple(cpus) if cpus is not None else self.cpus
        return sum(self._cpu_factor(cpu, start, end)
                   for cpu in chosen) / len(chosen)

    def scale(self, start: float, end: float,
              cpus: Optional[Iterable[int]] = None) -> float:
        """``end - start`` in reference seconds."""
        return (end - start) * self.factor(start, end, cpus)


if __name__ == "__main__":
    _sampler_main(sys.argv[1], int(sys.argv[2]))
