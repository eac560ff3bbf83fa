"""Push side of fleet observability: URLs, wire encoding, transport.

Covers the opt-in precedence (flag beats $REPRO_OBS_PUSH), the
Observability-to-records serialisation, the hello-first batch layout,
and the best-effort transport contract — an unreachable aggregator
returns False, never raises.
"""

import json

import pytest

from repro.obs.aggregator import FleetAggregator, make_obs_server
from repro.obs.api import Observability
from repro.obs.push import (
    DEFAULT_MAX_SPANS,
    PUSH_ENV,
    ObsPusher,
    encode_batch,
    normalize_push_url,
    observability_records,
    push_batch,
    push_observability,
    resolve_push_url,
)
from repro.service.http import serve_in_thread


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
    server = make_obs_server(agg, port=0)
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
        assert kinds.count("span") == 1
        assert "counter" in kinds and "gauge" in kinds and "hist" in kinds

    def test_hist_buckets_are_finite_and_nonzero_only(self, obs):
        rows = [r for r in observability_records(obs)
                if r["type"] == "hist"]
        (row,) = rows
        assert row["count"] == 1
        assert row["sum"] == pytest.approx(0.5)
        assert all(count > 0 for _, count in row["buckets"])
        assert all(bound != float("inf") for bound, _ in row["buckets"])

    def test_max_spans_caps_output(self):
        obs = Observability.wall()
        for _ in range(5):
            span = obs.tracer.start("x", "command")
            obs.tracer.finish(span)
        spans = [r for r in observability_records(obs, max_spans=3)
                 if r["type"] == "span"]
        assert len(spans) == 3
        assert DEFAULT_MAX_SPANS >= 1000

    def test_encode_batch_hello_first(self):
        body = encode_batch("src", 7, [{"type": "counter", "name": "x",
                                        "labels": {}, "value": 1}],
                            labels={"a": "b"}, clock="sim")
        lines = body.decode().splitlines()
        hello = json.loads(lines[0])
        assert hello == {"type": "hello", "source": "src", "seq": 7,
                         "labels": {"a": "b"}, "clock": "sim"}
        assert json.loads(lines[1])["type"] == "counter"

    def test_encoded_batch_round_trips_through_aggregator(self, obs):
        agg = FleetAggregator()
        body = encode_batch("cell", 1, observability_records(obs),
                            labels=obs.metrics.const_labels, clock="sim")
        summary = agg.ingest(body)
        assert summary["malformed"] == 0
        snap = agg.snapshot()
        assert snap["sources"]["cell"]["spans"] == 1
        assert "ethernet" in snap["disciplines"]


class TestTransport:
    def test_push_observability_live(self, obs, live_aggregator):
        agg, url = live_aggregator
        assert push_observability(url, obs, source="cell/a", clock="sim")
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

    def test_pusher_sequences_and_tallies(self, obs, live_aggregator):
        agg, url = live_aggregator
        pusher = ObsPusher(url, source="worker/w0",
                           labels={"component": "test"})
        assert pusher.push(obs)
        obs.metrics.counter("ftsh_try_attempts_total").inc(5)
        assert pusher.push(obs)
        assert (pusher.seq, pusher.pushed, pusher.failed) == (2, 2, 0)
        snap = agg.snapshot()
        source = snap["sources"]["worker/w0"]
        assert source["last_seq"] == 2
        # Cumulative re-push replaced, not added: total is 10, not 15.
        assert snap["disciplines"]["ethernet"]["attempts"] == 10.0
        # The pusher ships only the undelivered span tail, so the span
        # from the first batch is never re-folded under a newer seq.
        assert source["spans"] == 1

    def test_pusher_ships_new_spans_exactly_once(self, obs,
                                                 live_aggregator):
        agg, url = live_aggregator
        pusher = ObsPusher(url, source="worker/w1")
        assert pusher.push(obs)
        later = obs.tracer.start("second", "command")
        obs.tracer.finish(later)
        assert pusher.push(obs)
        assert pusher.push(obs)
        assert agg.snapshot()["sources"]["worker/w1"]["spans"] == 2

    def test_span_offset_skips_shipped_prefix(self, obs):
        later = obs.tracer.start("second", "command")
        obs.tracer.finish(later)
        spans = [r for r in observability_records(obs, span_offset=1)
                 if r["type"] == "span"]
        assert [s["name"] for s in spans] == ["second"]

    def test_pusher_counts_failures(self, obs):
        pusher = ObsPusher("http://127.0.0.1:9", source="w", timeout=0.5)
        assert pusher.push(obs) is False
        assert (pusher.seq, pusher.pushed, pusher.failed) == (1, 0, 1)

    def test_push_records_raw(self, live_aggregator):
        agg, url = live_aggregator
        pusher = ObsPusher(url, source="svc")
        assert pusher.push_records(
            [{"type": "counter", "name": "grid_buffer_collisions_total",
              "labels": {}, "value": 3}])
        assert agg.snapshot()["totals"]["collisions"] == 3.0
