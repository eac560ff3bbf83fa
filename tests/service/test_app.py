"""HTTP layer: routing/status codes, and the end-to-end acceptance test —
a campaign over a real socket whose result is byte-identical to a direct
``run_cells`` call, with the second identical submission a cache hit."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import Observability
from repro.parallel.cache import ResultCache
from repro.parallel.executor import run_cells
from repro.parallel.transport import to_jsonable
from repro.service.app import ServiceApp, make_server
from repro.service.http import serve_in_thread
from repro.service.jobs import JobStore
from repro.service.sandbox import SandboxPolicy, admit_campaign, cells_for
from repro.service.schemas import CampaignSubmission, TERMINAL

GOOD = 'try for 5 minutes\n    condor_submit submit.job\nend\n'

#: One fast cell; small enough that the socket test stays sub-second
#: per execution.
CAMPAIGN_DOC = {
    "scenario": "submit",
    "disciplines": ["ethernet"],
    "overrides": {"submit_clients": 10, "submit_duration": 10},
}


@pytest.fixture
def app():
    with JobStore(policy=SandboxPolicy(wall_budget=60.0),
                  workers=2, obs=Observability()) as store:
        yield ServiceApp(store)


def call(app, method, path, doc=None):
    body = json.dumps(doc).encode() if doc is not None else b""
    status, _ctype, payload = app.handle(method, path, body)
    try:
        return status, json.loads(payload)
    except ValueError:
        return status, payload.decode()


def wait_done(app, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, doc = call(app, "GET", f"/jobs/{job_id}")
        if doc["state"] in TERMINAL:
            return doc
        time.sleep(0.02)
    raise AssertionError("job never finished")


class TestRouting:
    def test_submit_script_202(self, app):
        status, doc = call(app, "POST", "/scripts",
                           {"script": GOOD, "timeout": 600})
        assert status == 202
        assert doc["state"] in {"queued", "running"} | TERMINAL
        wait_done(app, doc["job_id"])

    def test_unknown_route_404(self, app):
        status, doc = call(app, "GET", "/teapots")
        assert status == 404
        assert doc["error"]["code"] == "unknown-route"

    def test_unknown_job_404(self, app):
        status, doc = call(app, "GET", "/jobs/beefcafe")
        assert status == 404
        assert doc["error"]["code"] == "unknown-job"

    def test_bad_json_400(self, app):
        status, _, payload = app.handle("POST", "/scripts", b"{nope")
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "schema"

    def test_empty_body_400(self, app):
        status, _, payload = app.handle("POST", "/scripts", b"")
        assert status == 400

    def test_schema_error_400(self, app):
        status, doc = call(app, "POST", "/scripts", {"timeout": 600})
        assert status == 400
        assert doc["error"]["code"] == "schema"

    def test_sandbox_rejection_422(self, app):
        status, doc = call(app, "POST", "/scripts",
                           {"script": "try for 2 bananas\nend\n"})
        assert status == 422
        assert doc["error"]["code"] == "syntax"

    def test_result_before_done_409(self, app):
        _, doc = call(app, "POST", "/scripts",
                      {"script": GOOD, "timeout": 600})
        job_id = doc["job_id"]
        record = app.store._records[job_id]
        wait_done(app, job_id)
        with app.store._lock:
            record.state = "running"
        try:
            status, doc = call(app, "GET", f"/jobs/{job_id}/result")
            assert status == 409
            assert doc["error"]["code"] == "not-finished"
        finally:
            with app.store._lock:
                record.state = "done"

    def test_events_since_cursor(self, app):
        _, doc = call(app, "POST", "/scripts",
                      {"script": GOOD, "timeout": 600})
        wait_done(app, doc["job_id"])
        status, stream = call(app, "GET", f"/jobs/{doc['job_id']}/events")
        assert status == 200
        assert stream["events"][0]["state"] == "queued"
        cursor = stream["next"]
        _, tail = call(app, "GET",
                       f"/jobs/{doc['job_id']}/events?since={cursor}")
        assert tail["events"] == []

    def test_events_bad_since_400(self, app):
        _, doc = call(app, "POST", "/scripts",
                      {"script": GOOD, "timeout": 600})
        status, _ = call(app, "GET",
                         f"/jobs/{doc['job_id']}/events?since=soon")
        assert status == 400
        wait_done(app, doc["job_id"])

    def test_delete_cancels(self, app):
        _, doc = call(app, "POST", "/scripts",
                      {"script": GOOD, "timeout": 600})
        wait_done(app, doc["job_id"])
        status, after = call(app, "DELETE", f"/jobs/{doc['job_id']}")
        assert status == 200
        assert after["state"] in TERMINAL

    def test_jobs_listing(self, app):
        _, doc = call(app, "POST", "/scripts",
                      {"script": GOOD, "timeout": 600})
        wait_done(app, doc["job_id"])
        status, listing = call(app, "GET", "/jobs")
        assert status == 200
        assert any(job["job_id"] == doc["job_id"]
                   for job in listing["jobs"])

    def test_healthz(self, app):
        status, doc = call(app, "GET", "/healthz")
        assert status == 200
        assert doc["status"] == "ok"

    def test_metricsz_prometheus(self, app):
        call(app, "GET", "/healthz")
        status, _ctype, payload = app.handle("GET", "/metricsz")
        assert status == 200
        text = payload.decode()
        assert "service_requests_total" in text


class TestSocketEndToEnd:
    """The acceptance criterion, over a real TCP socket."""

    def _post(self, url, path, doc):
        request = urllib.request.Request(
            url + path, data=json.dumps(doc).encode(),
            headers={"Content-Type": "application/json"}, method="POST")
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())

    def _get(self, url, path):
        with urllib.request.urlopen(url + path, timeout=30) as response:
            return response.status, json.loads(response.read())

    def _wait(self, url, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, doc = self._get(url, f"/jobs/{job_id}")
            if doc["state"] in TERMINAL:
                return doc
            time.sleep(0.05)
        raise AssertionError("job never finished")

    def test_campaign_byte_identical_and_warm_cache(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        policy = SandboxPolicy(wall_budget=120.0)
        with JobStore(policy=policy, cache=cache, workers=2,
                      obs=Observability()) as store:
            server = make_server(store, port=0)
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            stop = serve_in_thread(server)
            try:
                status, doc = self._post(url, "/campaigns", CAMPAIGN_DOC)
                assert status == 202
                job_id = doc["job_id"]
                cold = self._wait(url, job_id)
                assert cold["state"] == "done"
                assert cold["cache_hit"] is False

                _, served = self._get(url, f"/jobs/{job_id}/result")

                # The same cells, run directly through the executor.
                admitted = admit_campaign(
                    CampaignSubmission.from_jsonable(
                        dict(CAMPAIGN_DOC, kind="campaign")),
                    policy)
                direct = [to_jsonable(result) for result in
                          run_cells(cells_for(admitted, policy))]
                assert (json.dumps(served["result"], sort_keys=True)
                        == json.dumps(direct, sort_keys=True))

                # Second identical submission: served from the
                # content-addressed cache, observable in job metadata.
                status, again = self._post(url, "/campaigns", CAMPAIGN_DOC)
                assert status == 202
                assert again["job_id"] == job_id
                warm = self._wait(url, job_id)
                assert warm["cache_hit"] is True
                _, warm_served = self._get(url, f"/jobs/{job_id}/result")
                assert warm_served["result"] == served["result"]
            finally:
                stop()

    def test_rejection_over_socket(self):
        with JobStore(policy=SandboxPolicy(lint_warn_as_error=True),
                      workers=1, obs=Observability()) as store:
            server = make_server(store, port=0)
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            stop = serve_in_thread(server)
            try:
                aloha = ('try for 5 minutes\n'
                         '    condor_submit submit.job\nend\n')
                with pytest.raises(urllib.error.HTTPError) as exc:
                    self._post(url, "/scripts", {"script": aloha})
                assert exc.value.code == 422
                error = json.loads(exc.value.read())["error"]
                assert error["code"] == "lint"
                assert any("FTL010" in line for line in error["details"])
            finally:
                stop()

