"""The runall driver (quick scale): reports land on disk, summary prints."""

import json
import os

import pytest

from repro.experiments.runall import SCALES, Scale, main


class TestScales:
    def test_three_scales_defined(self):
        assert set(SCALES) == {"quick", "medium", "full"}

    def test_full_matches_paper_parameters(self):
        full = SCALES["full"]
        assert full.fig1_counts[-1] == 500
        assert full.fig1_duration == 300.0      # "jobs submitted in five minutes"
        assert full.timeline_clients == 400     # "400 clients"
        assert full.timeline_duration == 1800.0  # "thirty minutes"
        assert full.reader_duration == 900.0    # "try for 900 seconds"

    def test_scales_ordered_by_size(self):
        quick, medium, full = SCALES["quick"], SCALES["medium"], SCALES["full"]
        assert len(quick.fig1_counts) <= len(medium.fig1_counts) <= len(full.fig1_counts)
        assert quick.timeline_duration <= medium.timeline_duration <= full.timeline_duration


#: "quick" shrunk to well under a second: every figure group, and two
#: fig1 counts, so only the top one (n5) is instrumented.
TINY = Scale(
    "quick",
    fig1_counts=(3, 5),
    fig1_duration=2.0,
    timeline_clients=3,
    timeline_duration=10.0,
    buffer_counts=(2, 3),
    buffer_duration=5.0,
    reader_duration=30.0,
)


def run_tiny(monkeypatch, out, *flags):
    """``runall --scale quick`` at :data:`TINY`, uncached."""
    monkeypatch.setitem(SCALES, "quick", TINY)
    assert main(["--scale", "quick", "--no-cache", "--out", str(out),
                 *flags]) == 0


class TestWriteObservability:
    """``--obs-dir``: runall instruments its own fig1 cells at the top
    count, one per discipline, and writes their bundles."""

    def test_bundle_per_discipline_plus_combined(self, tmp_path,
                                                 monkeypatch):
        obs_dir = tmp_path / "obs"
        run_tiny(monkeypatch, tmp_path / "out", "--obs-dir", str(obs_dir))
        expected = sorted(
            [f"fig1_{d}_n5.{ext}"
             for d in ("aloha", "ethernet", "fixed")
             for ext in ("trace.json", "spans.jsonl", "prom", "report.txt")]
            + [f"combined.{ext}"
               for ext in ("trace.json", "spans.jsonl", "prom")]
        )
        assert sorted(os.listdir(obs_dir)) == expected

    def test_worker_telemetry_lands_in_combined_bundle(self, tmp_path,
                                                       monkeypatch):
        """Bundles produced in worker processes merge into one parent
        view instead of being dropped (runall --obs-dir --jobs N)."""
        obs_dir = str(tmp_path / "obs")
        run_tiny(monkeypatch, tmp_path / "out", "--obs-dir", obs_dir,
                 "--jobs", "2")
        combined = open(os.path.join(obs_dir, "combined.prom")).read()
        for discipline in ("aloha", "ethernet", "fixed"):
            assert f'discipline="{discipline}"' in combined
        spans = open(os.path.join(obs_dir, "combined.spans.jsonl")).read()
        assert spans.count("\n") >= 3
        with open(os.path.join(obs_dir, "combined.trace.json")) as fh:
            events = json.load(fh)
        # One Chrome pid per source bundle keeps the cells separate.
        assert len({e["pid"] for e in events}) == 3

    @pytest.mark.slow
    def test_socket_backend_ships_bundles_through_the_store(self, tmp_path,
                                                            monkeypatch):
        """Socket workers do not (conceptually) share a filesystem with
        --obs-dir, so bundles must travel back as cell results through
        the queue/artifact store and be written by the parent."""
        obs_dir = str(tmp_path / "obs")
        run_tiny(monkeypatch, tmp_path / "out", "--obs-dir", obs_dir,
                 "--jobs", "2", "--backend", "socket")
        names = sorted(os.listdir(obs_dir))
        for discipline in ("aloha", "ethernet", "fixed"):
            assert f"fig1_{discipline}_n5.spans.jsonl" in names
        combined = open(os.path.join(obs_dir, "combined.prom")).read()
        for discipline in ("aloha", "ethernet", "fixed"):
            assert f'discipline="{discipline}"' in combined

    def test_exports_are_valid_and_labeled(self, tmp_path, monkeypatch):
        obs_dir = str(tmp_path / "obs")
        run_tiny(monkeypatch, tmp_path / "out", "--obs-dir", obs_dir)

        with open(os.path.join(obs_dir, "fig1_ethernet_n5.trace.json")) as fh:
            events = json.load(fh)
        assert isinstance(events, list) and events
        assert {"script", "try"} <= {e["name"] for e in events}

        prom = open(os.path.join(obs_dir, "fig1_ethernet_n5.prom")).read()
        assert 'discipline="ethernet"' in prom
        assert 'scenario="submit"' in prom
        assert "ftsh_commands_total" in prom
        assert "grid_fds_free" in prom

        report = open(os.path.join(obs_dir, "fig1_ethernet_n5.report.txt")).read()
        assert "ftsh telemetry report" in report

    def test_reports_do_not_depend_on_telemetry(self, tmp_path, monkeypatch,
                                                capsys):
        """The --out tree, summary.txt included, is the same bytes with
        or without --obs-dir; the telemetry directory is named on
        stdout only."""
        run_tiny(monkeypatch, tmp_path / "plain")
        assert "telemetry:" not in capsys.readouterr().out
        obs_dir = str(tmp_path / "obs")
        run_tiny(monkeypatch, tmp_path / "observed", "--obs-dir", obs_dir)
        assert f"telemetry: {obs_dir}" in capsys.readouterr().out.splitlines()
        assert tree(tmp_path / "observed") == tree(tmp_path / "plain")


def tree(root):
    """Every file under ``root`` as ``{name: bytes}``."""
    return {path.name: path.read_bytes() for path in root.iterdir()}


@pytest.mark.slow
class TestRunAllQuick:
    def test_writes_every_report(self, tmp_path, capsys):
        code = main(["--scale", "quick", "--no-cache", "--out",
                     str(tmp_path)])
        assert code == 0
        names = sorted(os.listdir(tmp_path))
        assert names == [
            "figure1.txt", "figure2.txt", "figure3.txt", "figure4.txt",
            "figure5.txt", "figure6.txt", "figure7.txt", "summary.txt",
        ]
        summary = (tmp_path / "summary.txt").read_text()
        assert "fig1" in summary and "fig7" in summary
        for name in names[:-1]:
            content = (tmp_path / name).read_text()
            assert len(content.splitlines()) > 5

    def test_obs_dir_leaves_the_reports_alone(self, tmp_path):
        """At the real quick scale too: the instrumented top-count fig1
        cells feed the figures the same values as plain ones."""
        plain, observed = tmp_path / "plain", tmp_path / "observed"
        assert main(["--scale", "quick", "--no-cache", "--jobs", "2",
                     "--out", str(plain)]) == 0
        assert main(["--scale", "quick", "--no-cache", "--jobs", "2",
                     "--out", str(observed),
                     "--obs-dir", str(tmp_path / "obs")]) == 0
        assert tree(observed) == tree(plain)
        stems = {name.split(".")[0] for name in os.listdir(tmp_path / "obs")}
        assert stems == {"combined", "fig1_aloha_n400", "fig1_ethernet_n400",
                         "fig1_fixed_n400"}
