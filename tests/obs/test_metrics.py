"""Counters, gauges, histograms and labeled streams."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    MetricsRegistry,
)
from repro.sim import Engine
from repro.sim.monitor import Counter


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_accumulates(self, registry):
        jobs = registry.counter("jobs_total", "jobs")
        jobs.inc()
        jobs.inc(2.5)
        assert jobs.value == 3.5

    def test_negative_inc_rejected(self, registry):
        jobs = registry.counter("jobs_total")
        with pytest.raises(ValueError):
            jobs.inc(-1)

    def test_function_backed_reads_the_substrate_counter(self, registry):
        """A counter can be a view of a count kept elsewhere: it reads
        the substrate's own ``sim.monitor.Counter`` at every export."""
        substrate = Counter(Engine(), "jobs", keep_series=False)
        jobs = registry.counter("jobs_total", "jobs")
        jobs.set_function(lambda: substrate.count)
        assert jobs.value == 0.0  # a view exports from registration on
        substrate.increment(3)
        assert jobs.value == 3.0
        assert [c.value for c in jobs.children()] == [3.0]


class TestGauge:
    def test_set_inc_dec(self, registry):
        fds = registry.gauge("free_fds")
        fds.set(100)
        fds.dec(3)
        fds.inc()
        assert fds.value == 98.0

    def test_function_gauge_reads_live(self, registry):
        state = {"free": 50}
        fds = registry.gauge("free_fds")
        fds.set_function(lambda: state["free"])
        assert fds.value == 50.0
        state["free"] = 7
        assert fds.value == 7.0

    def test_set_clears_function(self, registry):
        fds = registry.gauge("free_fds")
        fds.set_function(lambda: 99)
        fds.set(3)
        assert fds.value == 3.0


class TestHistogram:
    def test_observe_buckets_and_totals(self, registry):
        hist = registry.histogram("wait_seconds", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 5.0, 100.0):
            hist.observe(value)
        child = hist.labels()
        assert child.count == 4
        assert child.total == pytest.approx(110.5)
        assert child.mean() == pytest.approx(110.5 / 4)
        assert child.cumulative() == [(1.0, 1), (10.0, 3), (float("inf"), 4)]

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestLabels:
    def test_labeled_children_are_distinct(self, registry):
        cmds = registry.counter("cmds_total", labels=("command", "outcome"))
        cmds.labels(command="submit", outcome="ok").inc()
        cmds.labels(command="submit", outcome="failed").inc(2)
        assert cmds.labels(command="submit", outcome="ok").value == 1.0
        assert cmds.labels(command="submit", outcome="failed").value == 2.0

    def test_same_labels_same_child(self, registry):
        cmds = registry.counter("cmds_total", labels=("command",))
        assert cmds.labels(command="x") is cmds.labels(command="x")

    def test_wrong_label_names_rejected(self, registry):
        cmds = registry.counter("cmds_total", labels=("command",))
        with pytest.raises(ValueError):
            cmds.labels(nope="x")

    def test_plain_methods_rejected_on_labeled_family(self, registry):
        cmds = registry.counter("cmds_total", labels=("command",))
        with pytest.raises(ValueError):
            cmds.inc()

    def test_children_sorted_for_export(self, registry):
        cmds = registry.counter("cmds_total", labels=("command",))
        cmds.labels(command="zz").inc()
        cmds.labels(command="aa").inc()
        assert [c.label_values for c in cmds.children()] == [("aa",), ("zz",)]

    def test_labels_dict(self, registry):
        cmds = registry.counter("cmds_total", labels=("command", "outcome"))
        child = cmds.labels(command="submit", outcome="ok")
        assert child.labels_dict() == {"command": "submit", "outcome": "ok"}


class TestRegistry:
    def test_reregistration_is_idempotent(self, registry):
        one = registry.counter("jobs_total", "first help")
        two = registry.counter("jobs_total", "other help")
        assert one is two
        assert one.help == "first help"

    def test_kind_mismatch_raises(self, registry):
        registry.counter("jobs_total")
        with pytest.raises(ValueError):
            registry.gauge("jobs_total")

    def test_families_name_sorted(self, registry):
        registry.gauge("zz")
        registry.counter("aa")
        assert [f.name for f in registry.families()] == ["aa", "zz"]

    def test_get(self, registry):
        registry.counter("jobs_total")
        assert registry.get("jobs_total").name == "jobs_total"
        assert registry.get("absent") is None

    def test_const_labels_kept(self):
        registry = MetricsRegistry(const_labels={"discipline": "ethernet"})
        assert registry.const_labels == {"discipline": "ethernet"}


class TestNullMetrics:
    def test_noop_surface(self):
        assert not NULL_METRICS.enabled
        counter = NULL_METRICS.counter("x")
        counter.inc()
        counter.labels(a="b").inc()
        gauge = NULL_METRICS.gauge("y")
        gauge.set(5)
        gauge.set_function(lambda: 1.0)
        assert gauge.value == 0.0
        NULL_METRICS.histogram("z").observe(1.0)
        assert counter.value == 0.0
        assert NULL_METRICS.families() == []
        assert NULL_METRICS.get("x") is None
