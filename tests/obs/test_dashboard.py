"""Dashboard rendering and fetch: pure functions plus the CLI gate."""

import pytest

from repro.obs.aggregator import FleetAggregator
from repro.obs.dashboard import (
    fetch_snapshot,
    main,
    normalize_fleet_url,
    render_text,
)
from repro.service.http import (
    JSON,
    BadReply,
    bind_server,
    error_doc,
    serve_in_thread,
)

SNAPSHOT = {
    "version": 2,
    "uptime_seconds": 12.5,
    "totals": {"sources": 2, "batches": 4, "records": 40, "spans": 10,
               "collisions": 7.0, "malformed": 1, "stale_batches": 0,
               "evicted": 0},
    "sources": {
        "chaos/submit/cell_a": {
            "labels": {"discipline": "ethernet"},
            "batches": 2, "spans": 6, "last_seq": 2,
            "age_seconds": 0.5, "busy_seconds": 21.0,
            "window_seconds": 30.0, "utilisation": 0.7,
        },
        "worker/w0": {
            "labels": {"component": "dist-worker"},
            "batches": 2, "spans": 0, "last_seq": 2,
            "age_seconds": 0.1, "busy_seconds": 9.0,
            "window_seconds": 4.0, "utilisation": 2.25,
        },
    },
    "disciplines": {
        "ethernet": {"sources": 1, "collisions": 7.0, "attempts": 70.0,
                     "collision_rate": 0.1, "backoffs": 5.0,
                     "exhausted": 0.0, "utilisation": 0.7,
                     "backoff_seconds": {"count": 5, "sum": 2.5,
                                         "mean": 0.5, "p50": 0.5,
                                         "p90": 1.0, "p99": 1.0}},
    },
}

EMPTY = {"version": 2, "uptime_seconds": 0.0,
         "totals": {"sources": 0, "batches": 0, "records": 0, "spans": 0,
                    "collisions": 0.0, "malformed": 0, "stale_batches": 0,
                    "evicted": 0},
         "sources": {}, "disciplines": {}}


class TestRenderText:
    def test_full_snapshot(self):
        frame = render_text(SNAPSHOT)
        assert "collisions 7" in frame
        assert "ethernet" in frame
        assert "chaos/submit/cell_a" in frame
        assert "0.50/1.00/1.00" in frame  # backoff quantiles

    def test_busiest_sources_ranked_and_capped(self):
        frame = render_text(SNAPSHOT, max_sources=1)
        # worker/w0 has the higher utilisation, so it survives the cap.
        assert "worker/w0" in frame
        assert "chaos/submit/cell_a" not in frame

    def test_utilisation_above_one_clamps_the_bar_only(self):
        frame = render_text(SNAPSHOT)
        # Mean busy-parallelism above 1 renders a full bar but keeps
        # the honest number.
        assert "2.250" in frame
        assert "#" * 20 in frame

    def test_empty_snapshot(self):
        frame = render_text(EMPTY)
        assert "sources 0" in frame
        assert "discipline" not in frame
        assert "busiest" not in frame


class TestFetchAndCli:
    @pytest.fixture
    def live(self):
        agg = FleetAggregator()
        agg.ingest(b'{"type":"hello","source":"s","seq":1,"labels":{}}\n')
        server = bind_server(agg.handle, "127.0.0.1", 0)
        host, port = server.server_address[:2]
        stop = serve_in_thread(server)
        try:
            yield f"http://{host}:{port}"
        finally:
            stop()

    def test_normalize_fleet_url(self):
        assert normalize_fleet_url("http://h:1") == "http://h:1/obs/fleet"
        assert normalize_fleet_url("http://h:1/obs/fleet") == \
            "http://h:1/obs/fleet"

    def test_fetch_snapshot(self, live):
        snap = fetch_snapshot(live)
        assert snap["totals"]["sources"] == 1

    def test_fetch_raises_on_bad_route(self, live):
        with pytest.raises(BadReply, match="HTTP 404 reply: unknown-route"):
            fetch_snapshot(live + "/nope/obs/fleet")

    def test_cli_once_prints_one_frame(self, live, capsys):
        assert main([live, "--once", "--max-sources", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("repro fleet observability") == 1
        assert "sources 1" in out
        assert "busiest sources (1 of 1)" in out

    def test_cli_once_fails_cleanly_when_unreachable(self, capsys):
        assert main(["http://127.0.0.1:9", "--once"]) == 1
        assert "fleet fetch failed" in capsys.readouterr().out


class TestRepliesThatAreNotSnapshots:
    """Whatever a server answers, ``--once`` prints one failure line and
    exits 1: a reply is read through the HTTP kit's ``json_exchange``."""

    @pytest.fixture
    def stub(self):
        servers = []

        def serve(status, payload):
            server = bind_server(lambda method, target, body:
                                 (status, JSON, payload), "127.0.0.1", 0)
            host, port = server.server_address[:2]
            servers.append(serve_in_thread(server))
            return f"http://{host}:{port}"

        yield serve
        for stop in servers:
            stop()

    def test_a_json_list_is_a_bad_reply(self, stub, capsys):
        url = stub(200, b"[]")
        with pytest.raises(BadReply, match="not a fleet snapshot"):
            fetch_snapshot(url)
        assert main([url, "--once"]) == 1
        assert "fleet fetch failed: HTTP 200 reply" in capsys.readouterr().out

    def test_an_error_document_is_a_bad_reply(self, stub, capsys):
        url = stub(503, error_doc("unavailable", "aggregator draining"))
        with pytest.raises(BadReply, match="HTTP 503 reply: unavailable"):
            fetch_snapshot(url)
        assert main([url, "--once"]) == 1
        out = capsys.readouterr().out
        assert "fleet fetch failed: HTTP 503 reply: unavailable: " \
            "aggregator draining" in out
