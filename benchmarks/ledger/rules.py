"""The ledger's arithmetic: percentiles, span self-time, bound checks.

Pure functions over plain numbers and ``repro.obs`` spans, so the tests
can pin each rule without running a workload.
"""

from __future__ import annotations

import math
import re
from typing import Sequence

#: What a metric or workload name may look like (the driver's rule).
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` % of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def highest_percentile(count: int, beyond: int = TAIL_SAMPLES) -> int:
    """The highest whole percentile that leaves ``beyond`` samples past
    it; 50 when the sample is too small to have such a tail."""
    if count <= 0:
        raise ValueError("no samples")
    return max(50, math.floor(100.0 * (count - beyond) / count))


def tail_percentile(samples: Sequence[float], wanted: int) -> tuple[int, float]:
    """``(pct, value)``: ``wanted`` when enough samples lie beyond it,
    else the highest percentile the sample supports."""
    pct = min(wanted, highest_percentile(len(samples)))
    return pct, percentile(samples, pct)


def worsening(baseline: float, value: float, better: str) -> float:
    """How much worse ``value`` is than ``baseline``, as a share of the
    baseline; negative when it improved."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower or higher, got {better!r}")
    if baseline == 0:
        return 0.0 if value == 0 else float("inf")
    change = (value - baseline) / abs(baseline)
    return change if better == "lower" else -change


def within_bound(baseline: float, value: float, better: str,
                 bound: float) -> bool:
    return worsening(baseline, value, better) <= bound


def self_times(spans) -> dict[int, float]:
    """Each finished span's duration minus the part of its interval its
    direct children cover (overlapping children count once)."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent_id is not None and span.finished:
            children.setdefault(span.parent_id, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        if not span.finished:
            continue
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()),
                            key=lambda item: item.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.duration - covered
    return result
