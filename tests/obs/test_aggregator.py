"""FleetAggregator: folding, sequence guards, rollups, bounded state.

The ingest contract under fire: out-of-order and replayed batches must
never regress or double-count, malformed lines must never poison their
batchmates, and the folded state must stay bounded and JSON-safe no
matter what arrives.
"""

import json
import math

import pytest

from repro.obs.aggregator import (
    DEFAULT_MAX_SOURCES,
    FleetAggregator,
    make_obs_server,
)
from repro.service.http import dumps, http_request, serve_in_thread


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def batch(source, seq, *records, labels=None, clock="sim"):
    rows = [{"type": "hello", "source": source, "seq": seq,
             "labels": labels or {}, "clock": clock}]
    rows.extend(records)
    return ("\n".join(json.dumps(r) for r in rows) + "\n").encode()


def span(name="cmd", kind="command", start=0.0, end=1.0, status="ok"):
    return {"type": "span", "name": name, "kind": kind,
            "start": start, "end": end, "status": status}


def counter(name, value, labels=None):
    return {"type": "counter", "name": name, "labels": labels or {},
            "value": value}


def gauge(name, value, labels=None):
    return {"type": "gauge", "name": name, "labels": labels or {},
            "value": value}


def hist(name, buckets, total, count, labels=None):
    return {"type": "hist", "name": name, "labels": labels or {},
            "buckets": buckets, "sum": total, "count": count}


class TestIngest:
    def test_basic_fold(self):
        agg = FleetAggregator(clock=FakeClock())
        summary = agg.ingest(batch(
            "cell/a", 1,
            span(start=0.0, end=2.0),
            span(start=2.0, end=3.0),
            counter("grid_buffer_collisions_total", 4),
        ))
        assert summary == {"accepted": 4, "malformed": 0, "stale_spans": 0}
        snap = agg.snapshot()
        assert snap["totals"]["sources"] == 1
        assert snap["totals"]["spans"] == 2
        assert snap["totals"]["collisions"] == 4.0
        source = snap["sources"]["cell/a"]
        assert source["busy_seconds"] == pytest.approx(3.0)
        assert source["window_seconds"] == pytest.approx(3.0)
        assert source["utilisation"] == pytest.approx(1.0)

    def test_replay_is_idempotent(self):
        agg = FleetAggregator(clock=FakeClock())
        body = batch("cell/a", 1, span(), counter("x_total", 7))
        agg.ingest(body)
        again = agg.ingest(body)
        assert again["stale_spans"] == 1
        snap = agg.snapshot()
        assert snap["totals"]["spans"] == 1
        assert snap["totals"]["stale_batches"] == 1
        assert snap["sources"]["cell/a"]["spans"] == 1

    def test_out_of_order_batches_never_regress(self):
        agg = FleetAggregator(clock=FakeClock())
        agg.ingest(batch("w", 3, span(), counter("done_total", 30)))
        # A delayed older batch arrives after: its metric totals are
        # stale and must not wind the counter back; its spans were
        # already superseded by a newer snapshot of the same source.
        summary = agg.ingest(batch("w", 1, span(), counter("done_total", 10)))
        assert summary["accepted"] == 3
        assert summary["stale_spans"] == 1
        snap = agg.snapshot()
        assert snap["sources"]["w"]["last_seq"] == 3
        assert snap["totals"]["spans"] == 1
        # Counter kept the seq-3 value.
        agg2_state = list(agg._sources["w"].counters.values())
        assert agg2_state == [[3, 30.0]]

    def test_newer_batch_after_old_applies(self):
        agg = FleetAggregator(clock=FakeClock())
        agg.ingest(batch("w", 1, counter("done_total", 10)))
        agg.ingest(batch("w", 2, counter("done_total", 25)))
        assert list(agg._sources["w"].counters.values()) == [[2, 25.0]]

    def test_malformed_lines_do_not_poison_the_batch(self):
        agg = FleetAggregator(clock=FakeClock())
        rows = [
            'not json at all',
            json.dumps({"type": "hello", "source": "s", "seq": 1,
                        "labels": {}, "clock": "sim"}),
            json.dumps({"type": "counter", "name": "ok_total",
                        "labels": {}, "value": 1}),
            json.dumps(["a", "list"]),
            json.dumps({"type": "counter", "name": "no_value"}),
            json.dumps({"type": "mystery"}),
            json.dumps({"type": "span", "kind": "command",
                        "start": 0.0, "end": 1.0}),
        ]
        summary = agg.ingest(("\n".join(rows) + "\n").encode())
        assert summary["malformed"] == 4
        assert summary["accepted"] == 3
        snap = agg.snapshot()
        assert snap["totals"]["malformed"] == 4
        assert snap["totals"]["spans"] == 1

    def test_records_before_hello_are_malformed(self):
        agg = FleetAggregator(clock=FakeClock())
        summary = agg.ingest(
            (json.dumps(counter("x_total", 1)) + "\n"
             + json.dumps(span()) + "\n").encode())
        assert summary == {"accepted": 0, "malformed": 2, "stale_spans": 0}
        assert agg.snapshot()["totals"]["sources"] == 0

    def test_undecodable_bytes_and_blank_lines(self):
        agg = FleetAggregator(clock=FakeClock())
        summary = agg.ingest(b"\n\n\xff\xfe garbage \n\n")
        assert summary["accepted"] == 0
        assert summary["malformed"] == 1

    def test_max_sources_evicts_least_recently_seen(self):
        clock = FakeClock()
        agg = FleetAggregator(max_sources=2, clock=clock)
        agg.ingest(batch("old", 1))
        clock.advance(10.0)
        agg.ingest(batch("mid", 1))
        clock.advance(10.0)
        agg.ingest(batch("new", 1))
        snap = agg.snapshot()
        assert set(snap["sources"]) == {"mid", "new"}
        assert snap["totals"]["evicted"] == 1

    def test_default_capacity_is_generous(self):
        assert DEFAULT_MAX_SOURCES >= 256


class TestSnapshot:
    def test_snapshot_is_json_safe(self):
        agg = FleetAggregator(clock=FakeClock())
        agg.ingest(batch(
            "s", 1,
            hist("ftsh_backoff_seconds", [[0.1, 2], [1.0, 5]], 4.2, 9),
            gauge("dist_queue_depth", 3),
        ))
        text = json.dumps(agg.snapshot())
        decoded = json.loads(text)
        assert "Infinity" not in text and "NaN" not in text
        assert all(math.isfinite(v) for v in decoded["queues"].values())

    def test_discipline_rollup_sums_across_sources(self):
        agg = FleetAggregator(clock=FakeClock())
        for index, source in enumerate(("cell/a", "cell/b")):
            agg.ingest(batch(
                source, 1,
                counter("grid_replica_collisions_total", 5),
                counter("ftsh_try_attempts_total", 50),
                counter("ftsh_backoff_initiations_total", 4),
                counter("ftsh_try_exhausted_total", index),
                hist("ftsh_backoff_seconds", [[1.0, 4]], 2.0, 4),
                labels={"discipline": "aloha"},
            ))
        agg.ingest(batch("cell/c", 1,
                         counter("grid_replica_collisions_total", 1),
                         labels={"discipline": "ethernet"}))
        disciplines = agg.snapshot()["disciplines"]
        assert set(disciplines) == {"aloha", "ethernet"}
        aloha = disciplines["aloha"]
        assert aloha["sources"] == 2
        assert aloha["collisions"] == 10.0
        assert aloha["attempts"] == 100.0
        assert aloha["collision_rate"] == pytest.approx(0.1)
        assert aloha["backoffs"] == 8.0
        assert aloha["exhausted"] == 1.0
        merged = aloha["backoff_seconds"]
        assert merged["count"] == 8
        assert merged["sum"] == pytest.approx(4.0)
        assert merged["p50"] == 1.0

    def test_collision_suffix_and_enrolled_names(self):
        agg = FleetAggregator(clock=FakeClock())
        agg.ingest(batch("s", 1,
                         counter("grid_buffer_collisions_total", 2),
                         counter("grid_connections_refused_total", 3),
                         counter("grid_emfile_failures_total", 4),
                         counter("grid_jobs_submitted_total", 99)))
        assert agg.snapshot()["totals"]["collisions"] == 9.0

    def test_utilisation_from_busy_elapsed_counter_pair(self):
        # Sources without spans (the dist worker) report utilisation
        # through the *_busy_seconds_total / *_elapsed_seconds_total
        # counter convention.
        agg = FleetAggregator(clock=FakeClock())
        agg.ingest(batch("worker/w0", 1,
                         counter("dist_worker_busy_seconds_total", 3.0),
                         counter("dist_worker_elapsed_seconds_total", 4.0)))
        source = agg.snapshot()["sources"]["worker/w0"]
        assert source["utilisation"] == pytest.approx(0.75)

    def test_queue_gauges_summed_across_sources(self):
        agg = FleetAggregator(clock=FakeClock())
        agg.ingest(batch("a", 1, gauge("dist_queue_depth", 3)))
        agg.ingest(batch("b", 1, gauge("dist_queue_depth", 4),
                         gauge("grid_fds_free", 100)))
        queues = agg.snapshot()["queues"]
        assert queues == {"dist_queue_depth": 7.0}

    def test_span_failure_counting(self):
        agg = FleetAggregator(clock=FakeClock())
        agg.ingest(batch("s", 1,
                         span(status="ok"), span(status="failed"),
                         span(status="timeout")))
        kinds = agg.snapshot()["sources"]["s"]["span_kinds"]
        assert kinds["command"]["count"] == 3
        assert kinds["command"]["failed"] == 2

    def test_ingest_rate_ewma_uses_injected_clock(self):
        clock = FakeClock()
        agg = FleetAggregator(clock=clock)
        agg.ingest(batch("s", 1))
        clock.advance(1.0)
        agg.ingest(batch("s", 2, counter("x_total", 1), counter("y_total", 1)))
        # Second batch: 3 records over 1s -> EWMA = 0.3 * 3.0.
        assert agg.snapshot()["totals"]["ingest_rate_ewma"] == \
            pytest.approx(0.9)


class TestHandle:
    """The aggregator's whole HTTP surface, called without a socket."""

    def test_ingest_then_fleet_and_healthz(self):
        agg = FleetAggregator(clock=FakeClock())
        status, ctype, payload = agg.handle(
            "POST", "/obs/ingest", batch("s", 1, span()))
        assert (status, ctype) == (202, "application/json")
        assert json.loads(payload) == {
            "accepted": 2, "malformed": 0, "stale_spans": 0}
        status, _, payload = agg.handle("GET", "/obs/fleet?pretty=1")
        assert status == 200
        assert payload == dumps(agg.snapshot())
        assert agg.handle("GET", "/healthz/")[2] == \
            b'{"sources":1,"status":"ok"}\n'

    @pytest.mark.parametrize("method, target", [
        ("GET", "/nope"), ("GET", "/"), ("POST", "/obs/fleet"),
        ("GET", "/obs/ingest"), ("DELETE", "/obs/fleet"),
    ])
    def test_unknown_route_is_the_shared_error_document(self, method,
                                                        target):
        status, _, payload = FleetAggregator().handle(method, target)
        assert status == 404
        assert json.loads(payload) == {"error": {
            "code": "unknown-route", "details": [],
            "message": f"no route {method} {target}"}}

    @pytest.mark.parametrize("method, target, broken", [
        ("POST", "/obs/ingest", "ingest"), ("GET", "/obs/fleet", "snapshot"),
    ])
    def test_a_raising_aggregator_is_a_500_not_a_dropped_peer(
            self, monkeypatch, method, target, broken):
        agg = FleetAggregator()

        def boom(*args):
            raise RuntimeError("fold exploded")

        monkeypatch.setattr(agg, broken, boom)
        status, _, payload = agg.handle(method, target, b"x")
        assert status == 500
        error = json.loads(payload)["error"]
        assert error["code"] == "internal"
        assert error["message"] == "RuntimeError: fold exploded"


class TestStandaloneServer:
    def test_ingest_and_fleet_over_http(self, monkeypatch):
        agg = FleetAggregator(clock=FakeClock())
        server = make_obs_server(agg, port=0)
        host, port = server.server_address[:2]
        stop = serve_in_thread(server)
        try:
            url = f"http://{host}:{port}"
            posted = http_request(url + "/obs/ingest", method="POST",
                                  body=batch("s", 1, span()))
            assert posted.status == 202
            assert json.loads(posted.body)["accepted"] == 2
            fleet = http_request(url + "/obs/fleet")
            assert fleet.status == 200
            assert json.loads(fleet.body)["totals"]["spans"] == 1
            health = http_request(url + "/healthz")
            assert health.status == 200
            missing = http_request(url + "/nope")
            assert missing.status == 404
            assert missing.body == agg.handle("GET", "/nope")[2]
            bad_post = http_request(url + "/obs/nope", method="POST",
                                    body=b"")
            assert bad_post.status == 404
            monkeypatch.setattr(agg, "snapshot", lambda: 1 / 0)
            broken = http_request(url + "/obs/fleet")
            assert broken.status == 500
            assert json.loads(broken.body)["error"]["code"] == "internal"
        finally:
            stop()
