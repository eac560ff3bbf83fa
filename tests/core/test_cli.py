"""The ``ftsh`` command-line front end."""

import pytest

from repro.cli import _parse_timeout, main


def write_script(tmp_path, text, name="script.ftsh"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestTimeoutParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("300", 300.0),
            ("300s", 300.0),
            ("5 minutes", 300.0),
            ("5minutes", 300.0),
            ("1.5h", 5400.0),
            ("2 hours", 7200.0),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert _parse_timeout(text) == expected


class TestExitCodes:
    def test_success(self, tmp_path):
        assert main([write_script(tmp_path, "sh -c 'exit 0'")]) == 0

    def test_script_failure(self, tmp_path):
        assert main([write_script(tmp_path, "sh -c 'exit 1'")]) == 1

    def test_syntax_error(self, tmp_path, capsys):
        code = main([write_script(tmp_path, "try 5 times\ncmd\n")])
        assert code == 2
        assert "ftsh:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/path.ftsh"]) == 2

    def test_inline_command(self):
        assert main(["-c", "sh -c 'exit 0'"]) == 0

    def test_inline_failure(self):
        assert main(["-c", "failure"]) == 1


class TestOptions:
    def test_parse_only_valid(self, tmp_path):
        assert main(["--parse-only", write_script(tmp_path, "try 1 times\nx=1\nend")]) == 0

    def test_parse_only_does_not_run(self, tmp_path):
        marker = tmp_path / "ran"
        script = write_script(tmp_path, f"touch {marker}")
        assert main(["--parse-only", script]) == 0
        assert not marker.exists()

    def test_defines(self, tmp_path):
        target = tmp_path / "out"
        script = write_script(tmp_path, f"echo ${{greeting}} > {target}")
        assert main(["-D", "greeting=hello", script]) == 0
        assert target.read_text().strip() == "hello"

    def test_bad_define(self, tmp_path):
        assert main(["-D", "novalue", write_script(tmp_path, "x=1")]) == 2

    def test_timeout_kills(self, tmp_path):
        import time

        started = time.monotonic()
        code = main(["-t", "0.5", write_script(tmp_path, "sleep 30")])
        assert code == 1
        assert time.monotonic() - started < 10

    def test_bad_timeout(self, tmp_path):
        assert main(["-t", "soon", write_script(tmp_path, "x=1")]) == 2

    @pytest.mark.parametrize("flags", [
        ["-t", "-5"], ["-t", "0"], ["-t", "0s"],
        # Refused before any request: nothing listens on the discard port.
        ["--submit", "http://127.0.0.1:9", "-t", "0"],
    ], ids=["negative", "zero", "zero-with-unit", "zero-submit"])
    def test_non_positive_timeout_is_refused(self, tmp_path, capsys, flags):
        # Used to run the script and exit 1 ("true hit time limit"),
        # while '-5 seconds' exited 2 and the service refused a 0.
        marker = tmp_path / "ran"
        assert main([*flags, "-c", f"touch {marker}"]) == 2
        assert "bad timeout" in capsys.readouterr().err
        assert not marker.exists()

    def test_log_file(self, tmp_path):
        log = tmp_path / "run.log"
        assert main(["--log", str(log), "-c", "x=1"]) == 0
        assert "script-result" in log.read_text()

    def test_every_backoff_counts_the_failures(self, tmp_path):
        # A fixed `every` delay draws no jitter, so the backoff state's
        # failure count never moves; the alarm counts attempts instead.
        log = tmp_path / "run.log"
        script = "try 3 times every 0.01 seconds\n  sh -c 'exit 1'\nend"
        assert main(["--log", str(log), "-c", script]) == 1
        backoffs = [line.split("try-backoff")[1].strip()
                    for line in log.read_text().splitlines()
                    if "try-backoff" in line]
        assert backoffs == ["failure 1: waiting 0.010s",
                            "failure 2: waiting 0.010s"]

    def test_summary(self, capsys):
        assert main(["--summary", "-c", "x=1"]) == 0
        assert "execution log summary" in capsys.readouterr().err


class TestVersion:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("ftsh ")
        assert out.split()[1][0].isdigit()

    def test_version_matches_package(self, capsys):
        import repro

        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out.strip() == f"ftsh {repro.__version__}"


class TestObservabilityFlags:
    SCRIPT = "try 2 times\n  sh -c 'exit 1'\ncatch\n  sh -c 'exit 0'\nend"

    def test_trace_writes_chrome_json(self, tmp_path):
        import json

        trace = tmp_path / "run.trace.json"
        assert main(["--trace", str(trace), "-c", self.SCRIPT]) == 0
        events = json.loads(trace.read_text())
        assert isinstance(events, list) and events
        names = {event["name"] for event in events}
        assert "script" in names and "try" in names

    def test_spans_writes_jsonl(self, tmp_path):
        from repro.obs.exporters import read_spans_jsonl

        spans_file = tmp_path / "run.spans.jsonl"
        assert main(["--spans", str(spans_file), "-c", self.SCRIPT]) == 0
        spans = read_spans_jsonl(str(spans_file))
        assert {s.kind for s in spans} >= {"script", "try", "attempt", "command"}
        assert all(s.finished for s in spans)

    def test_metrics_writes_prometheus_text(self, tmp_path):
        prom = tmp_path / "run.prom"
        assert main(["--metrics", str(prom), "-c", self.SCRIPT]) == 0
        text = prom.read_text()
        assert "# TYPE ftsh_commands_total counter" in text
        assert "ftsh_try_attempts_total 2" in text

    def test_obs_report_prints_to_stderr(self, capsys):
        assert main(["--obs-report", "-c", "sh -c 'exit 0'"]) == 0
        assert "ftsh telemetry report" in capsys.readouterr().err

    def test_unwritable_export_warns_not_crashes(self, capsys):
        code = main(["--trace", "/nonexistent/dir/run.json",
                     "-c", "sh -c 'exit 0'"])
        assert code == 0
        assert "cannot write" in capsys.readouterr().err

    def test_no_flags_no_obs_overhead(self, tmp_path):
        # without any obs flag the run must not instantiate telemetry
        assert main(["-c", "sh -c 'exit 0'"]) == 0


class TestFaultInjection:
    def test_injected_eperm_fails_matching_command(self, tmp_path):
        marker = tmp_path / "ran"
        code = main(["--inject-fault", "touch:eperm",
                     "-c", f"try 1 times\n  touch {marker}\nend"])
        assert code == 1
        assert not marker.exists()

    def test_unmatched_command_unaffected(self, tmp_path):
        marker = tmp_path / "ran"
        code = main(["--inject-fault", "wget:eperm",
                     "-c", f"touch {marker}"])
        assert code == 0
        assert marker.exists()

    def test_bad_spec_is_usage_error(self, capsys):
        code = main(["--inject-fault", "nonsense", "-c", "sh -c 'exit 0'"])
        assert code == 2
        assert "bad --inject-fault" in capsys.readouterr().err

    def test_flaky_fault_seed_reproducible(self, tmp_path):
        # With p=0.5 and a fixed seed, the verdict sequence is a pure
        # function of --fault-seed: the same invocation twice agrees.
        script = "try 1 times\n  sh -c 'exit 0'\nend"
        codes = [
            main(["--inject-fault", "sh:kill:flaky:p=0.5",
                  "--fault-seed", "7", "-c", script])
            for _ in range(2)
        ]
        assert codes[0] == codes[1]
