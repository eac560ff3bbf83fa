"""Push side of fleet observability: URLs, wire encoding, transport.

Covers the opt-in precedence (flag beats $REPRO_OBS_PUSH), the
Observability-to-records serialisation (spans fold into three counters
at the source), the hello-first batch layout, and the best-effort
transport contract — an unreachable aggregator returns False, never
raises.
"""

import json

import pytest

from repro.dist.worker import WorkerTelemetry
from repro.obs.aggregator import FleetAggregator
from repro.obs.api import Observability
from repro.obs.push import (
    BUSY_COUNTER,
    ELAPSED_COUNTER,
    PUSH_ENV,
    SPANS_COUNTER,
    encode_batch,
    normalize_push_url,
    observability_records,
    push_batch,
    push_observability,
    resolve_push_url,
)
from repro.service.http import bind_server, serve_in_thread


class StepClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def timed_span(obs, clock, kind, start, end, status="ok"):
    clock.now = start
    span = obs.tracer.start(kind, kind)
    clock.now = end
    obs.tracer.finish(span, status)
    return span


@pytest.fixture
def obs():
    out = Observability.wall(const_labels={"discipline": "ethernet"})
    span = out.tracer.start("condor_submit", "command")
    out.tracer.finish(span)
    out.metrics.counter("ftsh_try_attempts_total").inc(5)
    out.metrics.gauge("dist_queue_depth").set(2)
    out.metrics.histogram("ftsh_backoff_seconds").observe(0.5)
    return out


@pytest.fixture
def live_aggregator():
    agg = FleetAggregator()
    server = bind_server(agg.handle, "127.0.0.1", 0)
    host, port = server.server_address[:2]
    stop = serve_in_thread(server)
    try:
        yield agg, f"http://{host}:{port}"
    finally:
        stop()


class TestUrls:
    def test_normalize_appends_ingest_path(self):
        assert normalize_push_url("http://h:1") == "http://h:1/obs/ingest"
        assert normalize_push_url("http://h:1/") == "http://h:1/obs/ingest"

    def test_normalize_keeps_full_endpoint(self):
        assert normalize_push_url("http://h:1/obs/ingest") == \
            "http://h:1/obs/ingest"

    def test_resolve_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv(PUSH_ENV, "http://env:1")
        assert resolve_push_url("http://flag:2") == "http://flag:2/obs/ingest"

    def test_resolve_falls_back_to_env(self, monkeypatch):
        monkeypatch.setenv(PUSH_ENV, "http://env:1")
        assert resolve_push_url(None) == "http://env:1/obs/ingest"

    def test_resolve_off_by_default(self, monkeypatch):
        monkeypatch.delenv(PUSH_ENV, raising=False)
        assert resolve_push_url(None) is None
        monkeypatch.setenv(PUSH_ENV, "")
        assert resolve_push_url(None) is None


class TestSerialisation:
    def test_records_cover_all_kinds(self, obs):
        records = list(observability_records(obs))
        kinds = [row["type"] for row in records]
        assert set(kinds) == {"counter", "gauge", "hist"}
        assert {SPANS_COUNTER, BUSY_COUNTER, ELAPSED_COUNTER} <= {
            row["name"] for row in records}

    def test_spans_fold_into_a_count_and_a_command_busy_window_pair(self):
        clock = StepClock()
        obs = Observability(clock=clock)
        timed_span(obs, clock, "try", 1.0, 9.0)
        timed_span(obs, clock, "command", 2.0, 5.0)
        timed_span(obs, clock, "command", 4.0, 8.0, status="failed")
        timed_span(obs, clock, "backoff", 8.0, 10.0)
        clock.now = 6.0
        obs.tracer.start("open", "command")  # unfinished: no busy time
        # The tracer also folds these spans into ftsh_* metrics; only
        # the three span counters are under test here.
        counters = {row["name"]: row["value"]
                    for row in observability_records(obs)
                    if row["name"].startswith("obs_")}
        assert counters == {SPANS_COUNTER: 5, BUSY_COUNTER: 7.0,
                            ELAPSED_COUNTER: 9.0}

    def test_a_tracer_without_spans_adds_no_records(self):
        assert list(observability_records(Observability.wall())) == []

    def test_hist_buckets_are_finite_and_nonzero_only(self, obs):
        rows = [r for r in observability_records(obs)
                if r["type"] == "hist"]
        (row,) = [r for r in rows if r["name"] == "ftsh_backoff_seconds"]
        assert row["count"] == 1
        assert row["sum"] == pytest.approx(0.5)
        for row in rows:  # ftsh_command_seconds too, folded from the span
            assert all(count > 0 for _, count in row["buckets"])
            assert all(bound != float("inf") for bound, _ in row["buckets"])

    def test_encode_batch_hello_first(self):
        body = encode_batch("src", 7, [{"type": "counter", "name": "x",
                                        "labels": {}, "value": 1}],
                            labels={"a": "b"})
        lines = body.decode().splitlines()
        hello = json.loads(lines[0])
        assert hello == {"type": "hello", "source": "src", "seq": 7,
                         "labels": {"a": "b"}}
        assert json.loads(lines[1])["type"] == "counter"

    def test_encoded_batch_round_trips_through_aggregator(self, obs):
        agg = FleetAggregator()
        body = encode_batch("cell", 1, observability_records(obs),
                            labels=obs.metrics.const_labels)
        summary = agg.ingest(body)
        assert summary["malformed"] == 0
        snap = agg.snapshot()
        assert snap["sources"]["cell"]["spans"] == 1
        assert "ethernet" in snap["disciplines"]


def fixed_observability():
    """Spans on a stepped clock, a labelled counter, a gauge and a
    histogram with an observation past its last finite bound."""
    clock = StepClock()
    obs = Observability(clock=clock, const_labels={"discipline": "ethernet"})
    for kind, start, end, status in (("try", 1.0, 9.5, "ok"),
                                     ("command", 2.0, 5.25, "ok"),
                                     ("command", 4.0, 8.0, "failed"),
                                     ("backoff", 8.0, 9.0, "ok")):
        timed_span(obs, clock, kind, start, end, status)
    fetches = obs.metrics.counter("grid_fetch_total", labels=("host",))
    fetches.labels(host="b").inc(3)
    fetches.labels(host="a").inc(0.5)
    obs.metrics.gauge("dist_queue_depth").set(2)
    hist = obs.metrics.histogram("ftsh_backoff_seconds")
    for value in (0.05, 0.5, 0.7, 30.0, 1e9):
        hist.observe(value)
    return obs


#: What ``encode_batch`` wrote for :func:`fixed_observability` when its
#: records were dict literals, before they were declared dataclasses.
PINNED_BATCH = (
    b'{"labels":{"discipline":"ethernet","scenario":"submit"},"seq":3,"source":"cell/a","type":"hello"}\n'
    b'{"labels":{},"name":"obs_spans_total","type":"counter","value":4}\n'
    b'{"labels":{},"name":"obs_command_busy_seconds_total","type":"counter","value":7.25}\n'
    b'{"labels":{},"name":"obs_span_elapsed_seconds_total","type":"counter","value":8.5}\n'
    b'{"labels":{},"name":"dist_queue_depth","type":"gauge","value":2.0}\n'
    b'{"labels":{},"name":"ftsh_backoff_initiations_total","type":"counter","value":1.0}\n'
    b'{"buckets":[[0.001,1],[0.05,1],[0.5,1],[1.0,1],[30.0,1]],"count":6,"labels":{},"name":"ftsh_backoff_seconds","sum":1000000031.25,"type":"hist"}\n'
    b'{"buckets":[[5.0,1]],"count":1,"labels":{"command":""},"name":"ftsh_command_seconds","sum":3.25,"type":"hist"}\n'
    b'{"labels":{"command":"","outcome":"failed"},"name":"ftsh_commands_total","type":"counter","value":1.0}\n'
    b'{"labels":{"command":"","outcome":"ok"},"name":"ftsh_commands_total","type":"counter","value":1.0}\n'
    b'{"labels":{"host":"a"},"name":"grid_fetch_total","type":"counter","value":0.5}\n'
    b'{"labels":{"host":"b"},"name":"grid_fetch_total","type":"counter","value":3.0}\n'
)


def test_a_pushed_batch_is_the_bytes_the_literal_records_made():
    assert encode_batch(
        "cell/a", 3, observability_records(fixed_observability()),
        labels={"scenario": "submit", "discipline": "ethernet"},
    ) == PINNED_BATCH


class TestTransport:
    def test_push_observability_live(self, obs, live_aggregator):
        agg, url = live_aggregator
        assert push_observability(url, obs, source="cell/a")
        snap = agg.snapshot()
        assert snap["sources"]["cell/a"]["labels"] == \
            {"discipline": "ethernet"}
        assert snap["disciplines"]["ethernet"]["attempts"] == 5.0

    def test_push_is_best_effort_when_unreachable(self, obs):
        # Reserved port with nothing listening: must return False fast,
        # never raise.
        assert push_observability("http://127.0.0.1:9", obs,
                                  source="x", timeout=0.5) is False
        assert push_batch("http://127.0.0.1:9", b"", timeout=0.5) is False

    def test_pusher_sequences_and_tallies(self, live_aggregator):
        agg, url = live_aggregator
        telemetry = WorkerTelemetry(url, "w0")
        telemetry.claim("tasks")
        telemetry.push()
        telemetry.claim("tasks")
        telemetry.push()
        assert (telemetry.seq, telemetry.pushed, telemetry.failed) == \
            (2, 2, 0)
        source = agg.snapshot()["sources"]["worker/w0"]
        assert source["last_seq"] == 2
        # Cumulative re-push replaced, not added: 2 claims, not 3.
        (claims,) = [entry[1] for key, entry
                     in agg._sources["worker/w0"].metrics.items()
                     if key[1] == "dist_worker_claims_total"]
        assert claims == 2.0

    def test_pusher_ships_new_spans_exactly_once(self, obs,
                                                 live_aggregator):
        agg, url = live_aggregator
        assert push_observability(url, obs, source="w1", seq=1)
        later = obs.tracer.start("second", "command")
        obs.tracer.finish(later)
        assert push_observability(url, obs, source="w1", seq=2)
        assert push_observability(url, obs, source="w1", seq=3)
        assert agg.snapshot()["sources"]["w1"]["spans"] == 2

    def test_pusher_counts_failures(self):
        telemetry = WorkerTelemetry("http://127.0.0.1:9", "w")
        telemetry.timeout = 0.5
        telemetry.push()
        assert (telemetry.seq, telemetry.pushed, telemetry.failed) == \
            (1, 0, 1)
