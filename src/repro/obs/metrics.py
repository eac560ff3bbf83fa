"""Named counters, gauges and histograms with labeled streams.

The measurement side of :mod:`repro.obs`.  A :class:`MetricsRegistry`
owns metric *families* (one name, one type, fixed label names); each
distinct label-value combination is a *child* instrument.  Families
without labels proxy straight to their single child, so plain metrics
read naturally::

    reg = MetricsRegistry()
    jobs = reg.counter("grid_jobs_submitted_total", "jobs the schedd accepted")
    jobs.inc()

    cmds = reg.counter("ftsh_commands_total", "commands run",
                       labels=("command", "outcome"))
    cmds.labels(command="condor_submit", outcome="ok").inc()

Metrics keep current values only, no history: a figure's series comes
from :mod:`repro.sim.monitor`.  Counters and gauges may be *functions*
(``set_function``), evaluated at export: the ``grid_*`` counters read
the substrate's own :class:`repro.sim.monitor.Counter`, and the
carrier-sense view of a substrate (free FDs, free buffer MB) is such a
gauge.

Everything is thread-safe (real-runtime ``forall`` branches are
threads).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterator, Mapping, Optional


#: Default histogram bucket upper bounds, in seconds: spans the paper's
#: scales from a 1 ms scheduling quantum to the 1 h backoff ceiling.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
    60.0, 300.0, 900.0, 3600.0,
)

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


class _Child:
    """Base of one concrete instrument (one label-value combination)."""

    __slots__ = ("family", "label_values")

    def __init__(self, family: "MetricFamily", label_values: tuple[str, ...]) -> None:
        self.family = family
        self.label_values = label_values

    def labels_dict(self) -> dict[str, str]:
        return dict(zip(self.family.label_names, self.label_values))


class CounterChild(_Child):
    """A monotone count (floats allowed: megabytes are counted too), or a
    view of a count kept elsewhere (``set_function``)."""

    __slots__ = ("_value", "_fn")

    def __init__(self, family: "MetricFamily", label_values: tuple[str, ...]) -> None:
        super().__init__(family, label_values)
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.family.name}: negative inc {amount}")
        with self.family.registry._lock:
            self._value += amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Make this counter read ``fn()`` (a monotone count) at export."""
        self._fn = fn

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value


class GaugeChild(_Child):
    """A settable level, or a live function of the world's state."""

    __slots__ = ("_value", "_fn")

    def __init__(self, family: "MetricFamily", label_values: tuple[str, ...]) -> None:
        super().__init__(family, label_values)
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self.family.registry._lock:
            self._value = float(value)
            self._fn = None

    def inc(self, amount: float = 1.0) -> None:
        with self.family.registry._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Make this gauge a live probe, evaluated at export time."""
        self._fn = fn

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value


class HistogramChild(_Child):
    """Observations bucketed by fixed upper bounds (Prometheus-style)."""

    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, family: "MetricFamily", label_values: tuple[str, ...]) -> None:
        super().__init__(family, label_values)
        self.bucket_counts = [0] * len(family.buckets)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self.family.registry._lock:
            for index, bound in enumerate(self.family.buckets):
                if value <= bound:
                    self.bucket_counts[index] += 1
                    break
            self.total += value
            self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper-bound, cumulative-count) pairs, +Inf last."""
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.family.buckets, self.bucket_counts):
            running += bucket
            pairs.append((bound, running))
        pairs.append((float("inf"), self.count))
        return pairs

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


_CHILD_TYPES = {COUNTER: CounterChild, GAUGE: GaugeChild, HISTOGRAM: HistogramChild}


class MetricFamily:
    """One metric name: type, help text, label names, children.

    A family with no labels proxies the instrument methods of its single
    child, so ``family.inc()`` / ``family.set(...)`` / ``family.observe(...)``
    work directly.
    """

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        kind: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.registry = registry
        self.name = name
        self.help = help
        self.kind = kind
        self.label_names = label_names
        self.buckets = tuple(sorted(buckets))
        self._children: dict[tuple[str, ...], _Child] = {}

    # ------------------------------------------------------------------
    def labels(self, **label_values: str) -> Any:
        """The child instrument for this label-value combination."""
        if set(label_values) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {tuple(label_values)}"
            )
        key = tuple(str(label_values[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self.registry._lock:
                child = self._children.get(key)
                if child is None:
                    child = _CHILD_TYPES[self.kind](self, key)
                    self._children[key] = child
        return child

    def children(self) -> Iterator[_Child]:
        """All children, sorted by label values for stable export."""
        # Snapshot under the registry lock: exports run concurrently
        # with threads creating new label children (the service plane
        # serialises its own live registry), and iterating the dict
        # bare would race those inserts.
        with self.registry._lock:
            snapshot = list(self._children.values())
        return iter(sorted(snapshot, key=lambda c: c.label_values))

    # -- no-label proxies ------------------------------------------------
    def _sole(self) -> Any:
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} has labels {self.label_names}; "
                "use .labels(...) first"
            )
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._sole().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._sole().dec(amount)

    def set(self, value: float) -> None:
        self._sole().set(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._sole().set_function(fn)

    def observe(self, value: float) -> None:
        self._sole().observe(value)

    @property
    def value(self) -> float:
        return self._sole().value


class MetricsRegistry:
    """All of a run's metric families.

    ``const_labels`` are attached to every sample at export time — the
    idiomatic way to tag a whole run with its scenario and discipline
    ("labeled streams" without threading labels through every call site).
    """

    enabled = True

    def __init__(self, const_labels: Optional[Mapping[str, str]] = None) -> None:
        self.const_labels: dict[str, str] = dict(const_labels or {})
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def _family(self, name: str, help: str, kind: str,
                labels: tuple[str, ...], buckets: tuple[float, ...]) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"not {kind}"
                )
            return family
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(self, name, help, kind, tuple(labels), buckets)
                self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labels: tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, help, COUNTER, labels, DEFAULT_BUCKETS)

    def gauge(self, name: str, help: str = "",
              labels: tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, help, GAUGE, labels, DEFAULT_BUCKETS)

    def histogram(self, name: str, help: str = "",
                  labels: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> MetricFamily:
        return self._family(name, help, HISTOGRAM, labels, buckets)

    # ------------------------------------------------------------------
    def families(self) -> list[MetricFamily]:
        """All families, name-sorted (the export order)."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)


class _NullInstrument:
    """Accepts the whole instrument surface and does nothing."""

    __slots__ = ()
    value = 0.0
    count = 0
    total = 0.0

    def labels(self, **label_values: str) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_function(self, fn: Callable[[], float]) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Disabled registry: every instrument is the shared null instrument."""

    enabled = False
    const_labels: dict[str, str] = {}

    __slots__ = ()

    def counter(self, name: str, help: str = "",
                labels: tuple[str, ...] = ()) -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "",
              labels: tuple[str, ...] = ()) -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "",
                  labels: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> _NullInstrument:
        return NULL_INSTRUMENT

    def families(self) -> list[MetricFamily]:
        return []

    def get(self, name: str) -> None:
        return None


NULL_METRICS = NullMetrics()
