"""FleetAggregator: folding, sequence guards, rollups, bounded state.

The ingest contract under fire: out-of-order and replayed batches must
never regress or double-count, malformed lines must never poison their
batchmates, and the folded state must stay bounded and JSON-safe no
matter what arrives.
"""

import json
import sys

import pytest

from repro.obs.aggregator import (
    DEFAULT_MAX_SOURCES,
    MAX_KEYS_PER_SOURCE,
    FleetAggregator,
)
from repro.service.http import dumps


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def batch(source, seq, *records, labels=None):
    rows = [{"type": "hello", "source": source, "seq": seq,
             "labels": labels or {}}]
    rows.extend(records)
    return ("\n".join(json.dumps(r) for r in rows) + "\n").encode()


def counter(name, value, labels=None):
    return {"type": "counter", "name": name, "labels": labels or {},
            "value": value}


def gauge(name, value, labels=None):
    return {"type": "gauge", "name": name, "labels": labels or {},
            "value": value}


def hist(name, buckets, total, count, labels=None):
    return {"type": "hist", "name": name, "labels": labels or {},
            "buckets": buckets, "sum": total, "count": count}


def spans(count, busy, elapsed):
    """The three counters a pusher folds a tracer into."""
    return (counter("obs_spans_total", count),
            counter("obs_command_busy_seconds_total", busy),
            counter("obs_span_elapsed_seconds_total", elapsed))


def strict_loads(text):
    """A JSON parser that, like most outside this repo, rejects
    ``NaN``/``Infinity``."""
    def refuse(token):
        raise ValueError(token)

    return json.loads(text, parse_constant=refuse)


class TestIngest:
    def test_basic_fold(self):
        agg = FleetAggregator(clock=FakeClock())
        summary = agg.ingest(batch(
            "cell/a", 1,
            *spans(2, busy=3.0, elapsed=3.0),
            counter("grid_buffer_collisions_total", 4),
        ))
        assert summary == {"accepted": 5, "malformed": 0}
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
        body = batch("cell/a", 1, *spans(1, 1.0, 1.0), counter("x_total", 7))
        agg.ingest(body)
        again = agg.ingest(body)
        assert again == {"accepted": 5, "malformed": 0}
        snap = agg.snapshot()
        assert snap["totals"]["spans"] == 1
        assert snap["totals"]["stale_batches"] == 1
        assert snap["sources"]["cell/a"]["spans"] == 1
        assert snap["sources"]["cell/a"]["batches"] == 2

    def test_out_of_order_batches_never_regress(self):
        agg = FleetAggregator(clock=FakeClock())
        agg.ingest(batch("w", 3, counter("done_total", 30)))
        # A delayed older batch arrives after: its totals are stale and
        # must not wind the counter back.
        summary = agg.ingest(batch("w", 1, counter("done_total", 10)))
        assert summary["accepted"] == 2
        snap = agg.snapshot()
        assert snap["sources"]["w"]["last_seq"] == 3
        assert snap["totals"]["stale_batches"] == 1
        assert list(agg._sources["w"].metrics.values()) == [[3, 30.0]]

    def test_newer_batch_after_old_applies(self):
        agg = FleetAggregator(clock=FakeClock())
        agg.ingest(batch("w", 1, counter("done_total", 10)))
        agg.ingest(batch("w", 2, counter("done_total", 25)))
        assert list(agg._sources["w"].metrics.values()) == [[2, 25.0]]

    def test_malformed_lines_do_not_poison_the_batch(self):
        agg = FleetAggregator(clock=FakeClock())
        rows = [
            'not json at all',
            json.dumps({"type": "hello", "source": "s", "seq": 1,
                        "labels": {}}),
            json.dumps({"type": "counter", "name": "ok_total",
                        "labels": {}, "value": 1}),
            json.dumps(["a", "list"]),
            json.dumps({"type": "counter", "name": "no_value"}),
            json.dumps({"type": "mystery"}),
            json.dumps({"type": "counter", "name": "x", "labels": [1],
                        "value": 1}),
            # spans fold at the source; a span row is no record type
            json.dumps({"type": "span", "kind": "command",
                        "start": 0.0, "end": 1.0}),
            # json.loads raises RecursionError here, not ValueError
            "[" * 100_000 + "]" * 100_000,
        ]
        summary = agg.ingest(("\n".join(rows) + "\n").encode())
        assert summary == {"accepted": 2, "malformed": 7}
        assert agg.snapshot()["totals"]["malformed"] == 7

    def test_records_before_hello_are_malformed(self):
        agg = FleetAggregator(clock=FakeClock())
        summary = agg.ingest(
            (json.dumps(counter("x_total", 1)) + "\n"
             + json.dumps(gauge("y", 1)) + "\n").encode())
        assert summary == {"accepted": 0, "malformed": 2}
        assert agg.snapshot()["totals"]["sources"] == 0

    @pytest.mark.parametrize("hello", [
        {"type": "hello", "source": "b", "seq": None},
        {"type": "hello", "source": "b", "seq": "three"},
        {"type": "hello", "source": "b", "seq": 1, "labels": ["x"]},
        {"type": "hello", "seq": 1},
    ])
    def test_a_malformed_hello_selects_no_source(self, hello):
        """A hello is parsed whole before any state is touched: the
        bad one creates no source, and the rows after it are "before
        hello" — even when a good batch preceded it in the body."""
        agg = FleetAggregator(clock=FakeClock())
        body = (batch("a", 1, counter("x_total", 1))
                + (json.dumps(hello) + "\n"
                   + json.dumps(counter("x_total", 99)) + "\n").encode())
        assert agg.ingest(body) == {"accepted": 2, "malformed": 2}
        snap = agg.snapshot()
        assert set(snap["sources"]) == {"a"}
        assert snap["totals"]["batches"] == 1
        assert list(agg._sources["a"].metrics.values()) == [[1, 1.0]]

    @pytest.mark.parametrize("source", [{"id": 1}, "", 5, ["s"], True])
    def test_a_hello_source_must_be_a_non_empty_string(self, source):
        """An object used to become a source id through ``str()`` and
        take one of the ``max_sources`` slots."""
        agg = FleetAggregator(clock=FakeClock())
        hello = {"type": "hello", "source": source, "seq": 1, "labels": {}}
        body = (json.dumps(hello) + "\n"
                + json.dumps(counter("x_total", 1)) + "\n").encode()
        assert agg.ingest(body) == {"accepted": 0, "malformed": 2}
        snap = agg.snapshot()
        assert snap["totals"]["malformed"] == 2
        assert snap["sources"] == {}

    @pytest.mark.parametrize("seq", [1.5, "7", True, -0.0])
    def test_a_hello_seq_must_be_an_integer(self, seq):
        agg = FleetAggregator(clock=FakeClock())
        hello = {"type": "hello", "source": "s", "seq": seq, "labels": {}}
        body = (json.dumps(hello) + "\n"
                + json.dumps(counter("x_total", 1)) + "\n").encode()
        assert agg.ingest(body) == {"accepted": 0, "malformed": 2}
        snap = agg.snapshot()
        assert snap["totals"]["malformed"] == 2
        assert snap["sources"] == {}

    @pytest.mark.parametrize("record", [
        counter("c_total", "5"), gauge("g", True), counter("c_total", [1]),
        counter(7, 1), counter("c_total", 1, labels={"host": 1}),
        hist("h", [[1.0, 2.5]], 1.0, 2), hist("h", [[1.0, 2]], 1.0, 2.0),
        hist("h", [[1.0]], 1.0, 1), hist("h", [[1.0, 1]], "1", 1),
    ])
    def test_a_metric_value_must_be_a_number(self, record):
        """``float()`` used to read ``"5"`` and ``true`` as values and
        ``int()`` a fractional count; ``str()`` made a name or a label
        value of anything."""
        agg = FleetAggregator(clock=FakeClock())
        assert agg.ingest(batch("s", 1, record)) == {
            "accepted": 1, "malformed": 1}
        assert agg.snapshot()["totals"]["malformed"] == 1
        assert agg._sources["s"].metrics == {}

    @pytest.mark.parametrize("line", [
        '{"type":"counter","name":"c_total","labels":{},"value":NaN}',
        '{"type":"counter","name":"c_total","labels":{},"value":Infinity}',
        '{"type":"gauge","name":"g","labels":{},"value":-Infinity}',
        '{"type":"counter","name":"c_total","labels":{},"value":"NaN"}',
        '{"type":"counter","name":"c_total","labels":{},"value":1e999}',
        '{"type":"hist","name":"h","labels":{},"buckets":[[1.0,1e999]],'
        '"sum":1.0,"count":1}',
        '{"type":"hist","name":"h","labels":{},"buckets":[[1.0,1]],'
        '"sum":NaN,"count":1}',
    ])
    def test_a_non_finite_number_is_malformed(self, line):
        agg = FleetAggregator(clock=FakeClock())
        body = batch("s", 1) + line.encode() + b"\n"
        assert agg.ingest(body) == {"accepted": 1, "malformed": 1}
        text = agg.handle("GET", "/obs/fleet")[2].decode()
        strict_loads(text)

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


class TestFlood:
    """The memory ceilings, asserted: per-source keys and sources."""

    def test_one_source_holds_at_most_its_key_cap(self):
        agg = FleetAggregator(clock=FakeClock())
        malformed = 0
        for seq in range(1, 51):
            body = batch("flood", seq, *(
                counter("flood_total", 1, labels={"n": f"{seq}-{i}"})
                for i in range(1000)))
            malformed += agg.ingest(body)["malformed"]
        assert len(agg._sources["flood"].metrics) == MAX_KEYS_PER_SOURCE
        assert malformed == 50 * 1000 - MAX_KEYS_PER_SOURCE
        assert agg.snapshot()["totals"]["malformed"] == malformed
        # keys already held still update past the cap
        agg.ingest(batch("flood", 51,
                         counter("flood_total", 5, labels={"n": "1-0"})))
        assert agg._sources["flood"].metrics[
            ("counter", "flood_total", (("n", "1-0"),))] == [51, 5.0]

    def test_many_sources_hold_at_most_max_sources(self):
        clock = FakeClock()
        agg = FleetAggregator(max_sources=64, clock=clock)
        for index in range(1000):
            clock.advance(1.0)
            agg.ingest(batch(f"cell/{index}", 1, counter("x_total", 1)))
        snap = agg.snapshot()
        assert snap["totals"]["sources"] == 64
        assert snap["totals"]["evicted"] == 1000 - 64
        assert set(snap["sources"]) == {f"cell/{i}" for i in range(936, 1000)}


class TestSnapshot:
    def test_snapshot_is_json_safe(self):
        agg = FleetAggregator(clock=FakeClock())
        agg.ingest(batch(
            "s", 1,
            hist("ftsh_backoff_seconds", [[0.1, 2], [1.0, 5]], 4.2, 9),
            gauge("dist_queue_depth", 3),
            counter("obs_command_busy_seconds_total", 1.0),
            labels={"discipline": "aloha"},
        ))
        strict_loads(json.dumps(agg.snapshot()))

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
        # Every source reports utilisation through the
        # *_busy_seconds_total / *_elapsed_seconds_total convention:
        # the dist worker counts its own, a cell's spans are folded
        # into one at the source.
        agg = FleetAggregator(clock=FakeClock())
        agg.ingest(batch("worker/w0", 1,
                         counter("dist_worker_busy_seconds_total", 3.0),
                         counter("dist_worker_elapsed_seconds_total", 4.0)))
        agg.ingest(batch("cell/a", 1, *spans(9, busy=12.0, elapsed=6.0)))
        agg.ingest(batch("cell/idle", 1, counter("x_total", 1)))
        sources = agg.snapshot()["sources"]
        assert sources["worker/w0"]["utilisation"] == pytest.approx(0.75)
        assert sources["cell/a"]["utilisation"] == pytest.approx(2.0)
        assert sources["cell/idle"]["utilisation"] is None


class TestSaturation:
    """Every number the snapshot derives saturates at the largest finite
    float, so whatever values the door accepts, ``GET /obs/fleet``
    answers 200 with strict JSON."""

    MAX = sys.float_info.max

    def fleet(self, agg):
        status, _, payload = agg.handle("GET", "/obs/fleet")
        assert status == 200, payload
        return strict_loads(payload)

    def test_span_totals_past_the_float_range(self):
        # (an OverflowError converting the summed infinity to int, a 500)
        agg = FleetAggregator(clock=FakeClock())
        for source in ("cell/a", "cell/b"):
            agg.ingest(batch(source, 1, counter("obs_spans_total", 1e308)))
        assert self.fleet(agg)["totals"]["spans"] == int(self.MAX)

    def test_collision_totals_past_the_float_range(self):
        # (``"collisions":Infinity``, which no strict parser reads)
        agg = FleetAggregator(clock=FakeClock())
        for source in ("cell/a", "cell/b"):
            agg.ingest(batch(
                source, 1, counter("grid_buffer_collisions_total", 1e308),
                labels={"discipline": "aloha"}))
        doc = self.fleet(agg)
        assert doc["totals"]["collisions"] == self.MAX
        assert doc["disciplines"]["aloha"]["collisions"] == self.MAX

    def test_ratios_and_histogram_counts_past_the_float_range(self):
        agg = FleetAggregator(clock=FakeClock())
        agg.ingest(batch(
            "s", 1, *spans(1, busy=1e300, elapsed=1e-300),
            counter("grid_buffer_collisions_total", 1e300),
            counter("ftsh_try_attempts_total", 1e-300),
            hist("ftsh_backoff_seconds", [[1.0, 10**400]], 1e308, 10**400),
            hist("ftsh_backoff_seconds", [[1.0, 1]], 1e308, 1,
                 labels={"site": "b"}),
            labels={"discipline": "aloha"}))
        doc = self.fleet(agg)
        assert doc["sources"]["s"]["utilisation"] == self.MAX
        aloha = doc["disciplines"]["aloha"]
        assert aloha["collision_rate"] == self.MAX
        assert aloha["backoff_seconds"]["count"] == 10**400 + 1
        assert aloha["backoff_seconds"]["sum"] == self.MAX
        assert aloha["backoff_seconds"]["p50"] == 1.0


class TestHandle:
    """The aggregator's whole HTTP surface, called without a socket."""

    def test_ingest_then_fleet_and_healthz(self):
        agg = FleetAggregator(clock=FakeClock())
        status, ctype, payload = agg.handle(
            "POST", "/obs/ingest", batch("s", 1, counter("x_total", 1)))
        assert (status, ctype) == (202, "application/json")
        assert json.loads(payload) == {"accepted": 2, "malformed": 0}
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
