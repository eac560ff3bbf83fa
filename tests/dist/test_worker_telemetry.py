"""WorkerTelemetry: the dist fleet measuring its own contention."""

import pytest

from repro.dist.worker import WorkerTelemetry
from repro.obs.aggregator import FleetAggregator, make_obs_server
from repro.service.http import serve_in_thread


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


class TestDisabled:
    def test_disabled_is_a_cheap_noop(self):
        telemetry = WorkerTelemetry.disabled()
        assert telemetry.enabled is False
        # Every hook must be callable without a registry behind it.
        telemetry.claim("lease")
        telemetry.idle_sleep(0.5)
        telemetry.batch_done({"c1": "executed"}, 1.0, 4)
        telemetry.push()

    def test_no_url_means_disabled(self):
        assert WorkerTelemetry(None, "w9").enabled is False


class TestEnabled:
    def test_counters_fold_into_fleet_utilisation(self, live_aggregator):
        agg, url = live_aggregator
        telemetry = WorkerTelemetry(url, "w0")
        telemetry.claim("lease")
        telemetry.claim("lease")
        telemetry.claim("empty")
        telemetry.idle_sleep(0.25)
        telemetry.batch_done({"c1": "executed", "c2": "cached"},
                             elapsed=2.0, next_batch=8)
        snap = agg.snapshot()
        source = snap["sources"]["worker/w0"]
        assert source["labels"]["component"] == "dist-worker"
        assert source["batches"] == 1
        # busy/elapsed counter pair drives utilisation; elapsed is real
        # wall time here so just check the ratio is sane and positive.
        assert source["busy_seconds"] == pytest.approx(2.0)
        assert source["utilisation"] is not None
        assert source["utilisation"] > 0

    def test_repeated_pushes_stay_cumulative(self, live_aggregator):
        agg, url = live_aggregator
        telemetry = WorkerTelemetry(url, "w1")
        telemetry.batch_done({"c1": "executed"}, elapsed=1.0, next_batch=4)
        telemetry.batch_done({"c2": "executed"}, elapsed=1.0, next_batch=4)
        telemetry.push()
        source = agg.snapshot()["sources"]["worker/w1"]
        assert source["last_seq"] == 3
        assert source["busy_seconds"] == pytest.approx(2.0)
        assert telemetry._pusher.failed == 0

    def test_unreachable_aggregator_never_raises(self):
        telemetry = WorkerTelemetry("http://127.0.0.1:9", "w2")
        telemetry._pusher.timeout = 0.5
        telemetry.batch_done({"c1": "executed"}, elapsed=1.0, next_batch=4)
        assert telemetry._pusher.failed == 1
