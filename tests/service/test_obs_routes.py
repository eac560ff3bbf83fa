"""The service plane's mounted aggregator: /obs/ingest and /obs/fleet."""

import json

import pytest

from repro.obs import Observability
from repro.obs.aggregator import FleetAggregator
from repro.service.app import ServiceApp, make_server
from repro.service.jobs import JobStore
from repro.service.sandbox import SandboxPolicy


@pytest.fixture
def app():
    with JobStore(policy=SandboxPolicy(wall_budget=60.0),
                  workers=2, obs=Observability()) as store:
        yield ServiceApp(store)


def call(app, method, path, doc=None, raw=None):
    if raw is not None:
        body = raw
    else:
        body = json.dumps(doc).encode() if doc is not None else b""
    status, _ctype, payload = app.handle(method, path, body)
    try:
        return status, json.loads(payload)
    except ValueError:
        return status, payload.decode()


BATCH = (b'{"type":"hello","source":"cell/x","seq":1,'
         b'"labels":{"discipline":"ethernet"}}\n'
         b'{"type":"counter","name":"obs_command_busy_seconds_total",'
         b'"labels":{},"value":2.0}\n'
         b'{"type":"counter","name":"obs_span_elapsed_seconds_total",'
         b'"labels":{},"value":2.0}\n'
         b'{"type":"counter","name":"grid_buffer_collisions_total",'
         b'"labels":{},"value":6}\n')


class TestObsRoutes:
    def test_ingest_accepts_batch(self, app):
        status, doc = call(app, "POST", "/obs/ingest", raw=BATCH)
        assert status == 202
        assert doc == {"accepted": 4, "malformed": 0}

    def test_fleet_reflects_ingested_batches(self, app):
        call(app, "POST", "/obs/ingest", raw=BATCH)
        status, doc = call(app, "GET", "/obs/fleet")
        assert status == 200
        assert doc["totals"]["collisions"] == 6.0
        assert doc["sources"]["cell/x"]["utilisation"] == pytest.approx(1.0)
        assert "ethernet" in doc["disciplines"]

    def test_fleet_empty_on_fresh_app(self, app):
        status, doc = call(app, "GET", "/obs/fleet")
        assert status == 200
        assert doc["totals"]["sources"] == 0

    def test_unknown_obs_route_404(self, app):
        status, _ = call(app, "GET", "/obs/nope")
        assert status == 404
        status, _ = call(app, "POST", "/obs/fleet", raw=b"")
        assert status == 404

    def test_malformed_batch_is_202_with_counts(self, app):
        # Ingest is deliberately permissive: transport succeeded, the
        # summary reports what was dropped.
        status, doc = call(app, "POST", "/obs/ingest", raw=b"not json\n")
        assert status == 202
        assert doc["malformed"] == 1

    def test_injected_aggregator_is_shared(self, app):
        agg = FleetAggregator()
        shared = ServiceApp(app.store, aggregator=agg)
        shared.handle("POST", "/obs/ingest", BATCH)
        assert agg.snapshot()["totals"]["batches"] == 1

    def test_answers_are_byte_identical_to_the_aggregators_own(self, app):
        """The service forwards /obs/* to the aggregator's ``handle``:
        same aggregator state in, same bytes out — 2xx and error
        documents alike."""
        def frozen():
            return FleetAggregator(clock=lambda: 5.0)

        bare, mounted = frozen(), frozen()
        service = ServiceApp(app.store, aggregator=mounted)
        for method, target, body in [
            ("POST", "/obs/ingest", BATCH),
            ("GET", "/obs/fleet", b""),
            ("POST", "/obs/ingest", b"not json\n"),
            ("GET", "/obs/fleet", b""),
            ("GET", "/obs/nope", b""),
            ("POST", "/obs/fleet", b""),
        ]:
            assert service.handle(method, target, body) \
                == bare.handle(method, target, body), (method, target)

    def test_make_server_exposes_aggregator(self):
        with JobStore(policy=SandboxPolicy(wall_budget=60.0),
                      workers=1, obs=Observability()) as store:
            server = make_server(store, port=0)
            try:
                assert isinstance(server.fleet_aggregator, FleetAggregator)
            finally:
                server.server_close()
