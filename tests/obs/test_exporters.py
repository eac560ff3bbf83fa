"""Exporters: JSONL round-trip, Chrome trace_event JSON, Prometheus text."""

import json

import pytest

from repro.obs.api import Observability
from repro.obs.exporters import (
    chrome_trace_events,
    chrome_trace_json,
    instrumented_cell,
    prometheus_text,
    read_spans_jsonl,
    spans_jsonl,
    write_obs_bundle,
    write_spans_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import STATUS_FAILED, STATUS_OK, Tracer

from tests.experiments.test_chaos import TINY as TINY_CHAOS


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    """A small two-track trace: one finished tree, one open root."""
    tracer = Tracer(clock=clock)
    root = tracer.start("script", "script")
    cmd = tracer.start("command:sh", "command", parent=root, argv="sh -c")
    clock.now = 1.5
    tracer.finish(cmd, STATUS_FAILED, exit_code=1)
    clock.now = 2.0
    tracer.finish(root, STATUS_OK)
    tracer.start("script", "script")  # left open
    return tracer


class TestSpansJsonl:
    def test_one_line_per_span(self, tracer):
        lines = spans_jsonl(tracer).splitlines()
        assert len(lines) == 3
        assert all(json.loads(line) for line in lines)

    def test_round_trip(self, tracer, tmp_path):
        path = str(tmp_path / "run.spans.jsonl")
        write_spans_jsonl(tracer, path)
        again = read_spans_jsonl(path)
        assert [s.to_dict() for s in again] == [s.to_dict() for s in tracer]

    def test_round_trip_preserves_structure(self, tracer, tmp_path):
        path = str(tmp_path / "run.spans.jsonl")
        write_spans_jsonl(tracer, path)
        rebuilt = Tracer()
        rebuilt.spans = read_spans_jsonl(path)
        assert rebuilt.structure() == tracer.structure()

    def test_empty_tracer_writes_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        write_spans_jsonl(Tracer(), path)
        assert open(path).read() == ""
        assert read_spans_jsonl(path) == []


class TestChromeTrace:
    def test_json_is_valid_array(self, tracer):
        events = json.loads(chrome_trace_json(tracer))
        assert isinstance(events, list)
        assert len(events) == 3

    def test_finished_spans_are_complete_events(self, tracer):
        events = chrome_trace_events(tracer)
        cmd = next(e for e in events if e["name"] == "command:sh")
        assert cmd["ph"] == "X"
        assert cmd["ts"] == 0.0
        assert cmd["dur"] == pytest.approx(1.5e6)  # microseconds
        assert cmd["cat"] == "command"
        assert cmd["args"]["status"] == "failed"
        assert cmd["args"]["exit_code"] == 1

    def test_open_spans_are_instants(self, tracer):
        events = chrome_trace_events(tracer)
        assert events[-1]["ph"] == "i"
        assert "dur" not in events[-1]

    def test_one_track_per_root(self, tracer):
        events = chrome_trace_events(tracer)
        script_tids = {e["tid"] for e in events if e["name"] == "script"}
        cmd = next(e for e in events if e["name"] == "command:sh")
        assert len(script_tids) == 2  # two roots, two tracks
        assert cmd["tid"] in script_tids  # child rides its root's track


class TestPrometheusText:
    def test_counter_and_help_type_lines(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs accepted").inc(3)
        text = prometheus_text(registry)
        assert "# HELP jobs_total jobs accepted\n" in text
        assert "# TYPE jobs_total counter\n" in text
        assert "jobs_total 3\n" in text

    def test_labels_and_const_labels(self):
        registry = MetricsRegistry(const_labels={"discipline": "ethernet"})
        cmds = registry.counter("cmds_total", labels=("command",))
        cmds.labels(command="submit").inc()
        text = prometheus_text(registry)
        assert 'cmds_total{command="submit",discipline="ethernet"} 1' in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        cmds = registry.counter("cmds_total", labels=("arg",))
        cmds.labels(arg='say "hi"\n').inc()
        assert r'arg="say \"hi\"\n"' in prometheus_text(registry)

    def test_function_gauge_sampled_at_export(self):
        registry = MetricsRegistry()
        registry.gauge("free_fds").set_function(lambda: 42.0)
        assert "free_fds 42\n" in prometheus_text(registry)

    def test_histogram_buckets_sum_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("wait_seconds", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        text = prometheus_text(registry)
        assert 'wait_seconds_bucket{le="1"} 1' in text
        assert 'wait_seconds_bucket{le="10"} 2' in text
        assert 'wait_seconds_bucket{le="+Inf"} 2' in text
        assert "wait_seconds_sum 5.5" in text
        assert "wait_seconds_count 2" in text

    def test_empty_registry_empty_text(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestBundle:
    def test_writes_all_three_files(self, tmp_path, clock):
        obs = Observability(clock=clock)
        span = obs.tracer.start("script", "script")
        obs.tracer.finish(span, STATUS_OK)
        obs.metrics.counter("jobs_total").inc()

        paths = write_obs_bundle(obs, str(tmp_path / "out"), "run")
        names = sorted(p.rsplit("/", 1)[-1] for p in paths)
        assert names == ["run.prom", "run.spans.jsonl", "run.trace.json"]
        for path in paths:
            assert open(path).read()
        trace = json.load(open(str(tmp_path / "out" / "run.trace.json")))
        assert trace[0]["name"] == "script"
        assert "jobs_total 1" in open(str(tmp_path / "out" / "run.prom")).read()


class TestInstrumentedCell:
    """A campaign cell run through ``instrumented_cell`` measures what
    its plain run measures: telemetry only watches."""

    @pytest.mark.parametrize("pick", ["fig1", "chaos"])
    def test_same_result_as_the_plain_run(self, pick):
        from repro.experiments import chaos
        from repro.experiments.figure1 import submit_cells
        from repro.parallel.transport import to_jsonable

        cell = (submit_cells((20,), 10.0, 2003)[0] if pick == "fig1" else
                chaos.campaign_cells(TINY_CHAOS, 11)[-1])
        (params,) = cell.args
        plain = to_jsonable(cell.fn(params))
        value, bundle = instrumented_cell(
            cell.fn, params, {"cell": cell.key}, cell.key)
        assert to_jsonable(value) == plain
        stem = cell.key.replace("/", "_")
        assert f'cell="{cell.key}"' in bundle[f"{stem}.prom"]
        assert bundle[f"{stem}.spans.jsonl"]

    def test_no_export_no_bundle(self):
        from repro.experiments import chaos

        cell = chaos.campaign_cells(TINY_CHAOS, 11)[0]
        value, bundle = instrumented_cell(cell.fn, cell.args[0], {},
                                          cell.key, export=False)
        assert bundle == {}
        assert value == cell.fn(cell.args[0])
