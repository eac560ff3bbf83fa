"""Client + CLI against a live in-process server, and ``ftsh --submit``."""

import json
import threading

import pytest

from repro.cli import main as ftsh_main
from repro.obs import Observability
from repro.parallel.cache import ResultCache
from repro.service.app import make_server
from repro.service.client import ServiceClient, ServiceError
from repro.service.client import main as client_main
from repro.service.http import serve_in_thread
from repro.service.jobs import JobStore
from repro.service.sandbox import SandboxPolicy

GOOD = 'try for 5 minutes\n    condor_submit submit.job\nend\n'
ALOHA_ONLY = 'try for 5 minutes\n    condor_submit submit.job\nend\n'


@pytest.fixture
def service(tmp_path):
    """(url, store) for a live server backed by a tmp cache."""
    cache = ResultCache(root=str(tmp_path / "cache"))
    with JobStore(policy=SandboxPolicy(wall_budget=60.0), cache=cache,
                  workers=2, obs=Observability()) as store:
        server = make_server(store, port=0)
        host, port = server.server_address[:2]
        stop = serve_in_thread(server)
        try:
            yield f"http://{host}:{port}", store
        finally:
            stop()


class TestServiceClient:
    def test_submit_wait_result(self, service):
        url, _store = service
        client = ServiceClient(url=url)
        status = client.submit_script(GOOD, timeout=600.0)
        final = client.wait(status.job_id, timeout=30.0)
        assert final.state == "done"
        result = client.result(status.job_id)
        assert result.result["success"] is True
        events = client.events(status.job_id)
        assert events[0].state == "queued"

    def test_wait_follows_the_event_stream_without_sleeping(
            self, service, monkeypatch):
        """``wait`` long-polls the events route: it never sleeps between
        status polls, and still sees the job through to ``done``."""
        url, _store = service
        client = ServiceClient(url=url)

        def no_sleep(seconds):
            raise AssertionError(f"wait slept {seconds}s")

        monkeypatch.setattr("time.sleep", no_sleep)
        status = client.submit_script(GOOD, timeout=600.0)
        final = client.wait(status.job_id, timeout=30.0)
        assert final.state == "done"

    def test_wait_raises_timeout_for_a_job_that_never_ends(
            self, service, monkeypatch):
        """A job held running past ``timeout``: ``wait`` gives up with a
        TimeoutError, still without sleeping."""
        url, store = service
        gate = threading.Event()

        def held(record, cancel):
            gate.wait(30.0)
            raise RuntimeError("released")

        monkeypatch.setattr(store, "_execute", held)
        monkeypatch.setattr("time.sleep", lambda seconds: 1 / 0)
        client = ServiceClient(url=url)
        status = client.submit_script(GOOD, timeout=600.0)
        try:
            with pytest.raises(TimeoutError, match="still (queued|running)"):
                client.wait(status.job_id, timeout=0.3)
        finally:
            gate.set()

    def test_wait_on_a_resubmitted_job_waits_for_its_new_run(
            self, service, monkeypatch):
        """The stream of a finished job that was submitted again still
        holds its first run's ``done``; ``wait`` must not stop there."""
        url, store = service
        client = ServiceClient(url=url)
        first = client.submit_script(GOOD, timeout=600.0)
        client.wait(first.job_id, timeout=30.0)
        gate = threading.Event()
        execute = store._execute

        def held(record, cancel):
            gate.wait(30.0)
            return execute(record, cancel)

        monkeypatch.setattr(store, "_execute", held)
        again = client.submit_script(GOOD, timeout=600.0)
        assert again.job_id == first.job_id
        try:
            with pytest.raises(TimeoutError, match="still (queued|running)"):
                client.wait(again.job_id, timeout=0.3)
        finally:
            gate.set()
        assert client.wait(again.job_id, timeout=30.0).state == "done"
        assert client.result(again.job_id).state == "done"

    def test_rejection_becomes_service_error(self, service):
        url, _store = service
        client = ServiceClient(url=url)
        with pytest.raises(ServiceError) as exc:
            client.submit_script("try for 2 bananas\nend\n")
        assert exc.value.status == 422
        assert exc.value.code == "syntax"

    def test_unreachable_server(self):
        client = ServiceClient(url="http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError) as exc:
            client.healthz()
        assert exc.value.code == "unreachable"

    def test_health_and_metrics(self, service):
        url, _store = service
        client = ServiceClient(url=url)
        assert client.healthz()["status"] == "ok"
        assert "service_requests_total" in client.metrics()

    def test_campaign_submission(self, service):
        url, _store = service
        client = ServiceClient(url=url)
        status = client.submit_campaign(
            "submit", disciplines=("ethernet",),
            overrides={"submit_clients": 10, "submit_duration": 10})
        final = client.wait(status.job_id, timeout=60.0)
        assert final.state == "done"
        assert len(client.result(status.job_id).result) == 1


class TestClientCli:
    def test_submit_wait_exit_zero(self, service, tmp_path, capsys):
        url, _store = service
        script = tmp_path / "ok.ftsh"
        script.write_text(GOOD)
        rc = client_main(["--url", url, "submit", str(script),
                          "--timeout", "600", "--wait"])
        out = capsys.readouterr().out
        assert rc == 0
        assert json.loads(out)["result"]["success"] is True

    def test_syntax_rejection_exits_two(self, service, tmp_path, capsys):
        url, _store = service
        script = tmp_path / "bad.ftsh"
        script.write_text("try for 2 bananas\nend\n")
        rc = client_main(["--url", url, "submit", str(script), "--wait"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "syntax" in err

    def test_missing_file_exits_two(self, service, capsys):
        url, _store = service
        rc = client_main(["--url", url, "submit", "/no/such.ftsh"])
        assert rc == 2

    def test_status_result_events_health(self, service, tmp_path, capsys):
        url, _store = service
        script = tmp_path / "ok.ftsh"
        script.write_text(GOOD)
        rc = client_main(["--url", url, "submit", str(script),
                          "--timeout", "600"])
        assert rc == 0
        job_id = json.loads(capsys.readouterr().out)["job_id"]
        assert client_main(["--url", url, "wait", job_id]) == 0
        capsys.readouterr()
        assert client_main(["--url", url, "status", job_id]) == 0
        assert json.loads(capsys.readouterr().out)["state"] == "done"
        assert client_main(["--url", url, "result", job_id]) == 0
        capsys.readouterr()
        assert client_main(["--url", url, "events", job_id]) == 0
        assert "queued" in capsys.readouterr().out
        assert client_main(["--url", url, "health"]) == 0

    def test_unknown_job_exits_two(self, service, capsys):
        url, _store = service
        rc = client_main(["--url", url, "status", "beefcafe"])
        assert rc == 2
        assert "unknown-job" in capsys.readouterr().err


class TestFtshSubmit:
    def test_ftsh_submit_runs_remotely(self, service, tmp_path, capsys):
        url, _store = service
        script = tmp_path / "ok.ftsh"
        script.write_text(GOOD)
        rc = ftsh_main(["--submit", url, "-t", "600", str(script)])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["result"]["success"] is True
        counters = {name: value
                    for name, value in doc["result"]["counters"]}
        assert counters["jobs_submitted"] >= 1

    def test_ftsh_submit_failed_script_exits_one(self, service, tmp_path,
                                                 capsys):
        url, _store = service
        script = tmp_path / "fail.ftsh"
        script.write_text("try for 10 seconds\n    failure\nend\n")
        rc = ftsh_main(["--submit", url, str(script)])
        capsys.readouterr()
        assert rc == 1

    def test_ftsh_submit_lint_gate_exits_two(self, tmp_path, capsys):
        # A separate strict server: warnings are admission errors.
        with JobStore(policy=SandboxPolicy(lint_warn_as_error=True),
                      workers=1, obs=Observability()) as store:
            server = make_server(store, port=0)
            host, port = server.server_address[:2]
            stop = serve_in_thread(server)
            try:
                script = tmp_path / "aloha.ftsh"
                script.write_text(ALOHA_ONLY)
                rc = ftsh_main(
                    ["--submit", f"http://{host}:{port}", str(script)])
                err = capsys.readouterr().err
                assert rc == 2
                assert "FTL010" in err
            finally:
                stop()
