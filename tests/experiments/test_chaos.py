"""The chaos campaign: cell metrics, ordering check, determinism."""

import dataclasses
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.experiments.chaos import (
    FAULT_CLASSES,
    LEVELS,
    SCALES,
    ChaosCell,
    ChaosParams,
    ChaosScale,
    campaign_cells,
    check_ordering,
    recovery_time,
    render_scorecard,
    run_cell,
    run_chaos_campaign,
    starvation_events,
)
from repro.faults.injectors import FaultSpec
from repro.faults.schedule import FaultWindow, Periodic
from repro.obs.exporters import instrumented_cell
from repro.sim.monitor import TimeSeries


def series_at(times):
    series = TimeSeries("s")
    for index, t in enumerate(times):
        series.record(t, float(index + 1))
    return series


WINDOWS = [FaultWindow(40.0, 20.0)]


class TestRecoveryTime:
    def test_no_windows_means_zero(self):
        assert recovery_time(series_at([1.0, 2.0]), [], 100.0) == 0.0

    def test_gap_after_last_window(self):
        # Last window ends at 60; first mark after that is 72.
        series = series_at([10.0, 30.0, 72.0, 80.0])
        assert recovery_time(series, WINDOWS, 100.0) == pytest.approx(12.0)

    def test_never_recovers(self):
        series = series_at([10.0, 30.0])
        assert recovery_time(series, WINDOWS, 100.0) == float("inf")

    def test_window_clamped_to_horizon(self):
        windows = [FaultWindow(90.0, 50.0)]  # runs past the horizon
        series = series_at([95.0, 99.0])
        assert recovery_time(series, windows, 100.0) == float("inf")


class TestStarvation:
    def test_no_windows_means_zero(self):
        assert starvation_events(series_at([1.0]), [], 100.0, 5.0) == 0

    def test_counts_long_gaps_from_first_fault(self):
        # Faults start at 40; gaps: 40->41 (ok), 41->60 (starved),
        # 60->65 (ok), 65->100 tail (starved).
        series = series_at([5.0, 41.0, 60.0, 65.0])
        assert starvation_events(series, WINDOWS, 100.0, 10.0) == 2

    def test_pre_fault_gaps_ignored(self):
        series = series_at([1.0, 39.0, 45.0, 50.0, 55.0, 60.0, 95.0, 99.0])
        # The 1->39 gap predates the fault; 60->95 counts.
        assert starvation_events(series, WINDOWS, 100.0, 20.0) == 1


def cell(fault, discipline, goodput, intensity=3):
    return ChaosCell(fault=fault, scenario="x", intensity=intensity,
                     discipline=discipline, goodput=goodput,
                     retained=1.0, recovery=0.0, starvation=0)


class TestCheckOrdering:
    def test_holds(self):
        cells = [cell(fc.name, d, g)
                 for fc in FAULT_CLASSES
                 for d, g in (("fixed", 1.0), ("aloha", 2.0), ("ethernet", 3.0))]
        assert check_ordering(cells, 3) == []

    def test_ties_allowed(self):
        cells = [cell(fc.name, d, 5.0)
                 for fc in FAULT_CLASSES
                 for d in ("fixed", "aloha", "ethernet")]
        assert check_ordering(cells, 3) == []

    def test_violation_named(self):
        name = FAULT_CLASSES[0].name
        cells = [cell(name, "fixed", 9.0), cell(name, "aloha", 2.0),
                 cell(name, "ethernet", 3.0)]
        violations = check_ordering(cells, 3)
        assert len(violations) == 1
        assert name in violations[0]

    def test_other_intensities_ignored(self):
        name = FAULT_CLASSES[0].name
        cells = [cell(name, "fixed", 9.0, intensity=1),
                 cell(name, "aloha", 2.0, intensity=1),
                 cell(name, "ethernet", 3.0, intensity=1)]
        assert check_ordering(cells, 3) == []


#: Every spec the campaign builds over a 600 s run, written out:
#: (class, level) -> (period, window duration, first start, severity).
#: The golden and CI's smoke scale run level 3 only; this pins 1 and 2.
SPECS_600 = {
    ("schedd-crash", 1): (600.0, 12.0, 240.0, None),
    ("schedd-crash", 2): (300.0, 6.0, 120.0, None),
    ("schedd-crash", 3): (200.0, 4.0, 80.0, None),
    ("fd-squeeze", 1): (300.0, 135.0, 120.0, 3276),
    ("fd-squeeze", 2): (300.0, 135.0, 120.0, 5324),
    ("fd-squeeze", 3): (300.0, 135.0, 120.0, 7372),
    ("enospc", 1): (300.0, 135.0, 120.0, 36.0),
    ("enospc", 2): (300.0, 135.0, 120.0, 72.0),
    ("enospc", 3): (300.0, 135.0, 120.0, 108.0),
    ("slow-disk", 1): (300.0, 135.0, 120.0, 2.0),
    ("slow-disk", 2): (300.0, 135.0, 120.0, 4.0),
    ("slow-disk", 3): (300.0, 135.0, 120.0, 8.0),
    ("http-5xx", 1): (100.0, 20.0, 40.0, 0.25),
    ("http-5xx", 2): (100.0, 20.0, 40.0, 0.5),
    ("http-5xx", 3): (100.0, 20.0, 40.0, 0.9),
    ("accept-queue", 1): (200.0, 80.0, 80.0, 1.0),
    ("accept-queue", 2): (200.0, 80.0, 80.0, 3.0),
    ("accept-queue", 3): (200.0, 80.0, 80.0, 6.0),
    ("wan-partition", 1): (200.0, 30.0, 80.0, None),
    ("wan-partition", 2): (200.0, 60.0, 80.0, None),
    ("wan-partition", 3): (200.0, 90.0, 80.0, None),
}


class TestFaultClasses:
    def test_every_spec_at_every_level(self):
        built = {(fc.name, level): fc.build(level, 600.0)
                 for fc in FAULT_CLASSES for level in LEVELS}
        assert built == {
            (name, level): (FaultSpec(name, Periodic(period=period,
                                                     duration=duration,
                                                     start=start),
                                      severity),)
            for (name, level), (period, duration, start, severity)
            in SPECS_600.items()}


class TestCellKeys:
    def test_a_cell_is_named_by_its_params(self):
        scale = SCALES["smoke"]
        baseline = ChaosParams("buffer", "fixed", None, 0, scale, 1).cell()
        faulted = ChaosParams("buffer", "aloha", "enospc", 2, scale, 1).cell()
        assert baseline.key == "chaos/buffer/baseline/fixed"
        assert faulted.key == "chaos/enospc/i2/aloha"
        assert faulted.fn is run_cell
        assert faulted.args == (
            ChaosParams("buffer", "aloha", "enospc", 2, scale, 1),)

    def test_campaign_keys_are_the_params_keys(self):
        cells = campaign_cells(SCALES["quick"], 2003)
        assert [cell.key for cell in cells] == [cell.args[0].key
                                                for cell in cells]
        assert len(cells) == 12 + 7 * 3 * 3
        assert cells[0].key == "chaos/submit/baseline/fixed"
        assert cells[12].key == "chaos/schedd-crash/i1/fixed"
        assert cells[-1].key == "chaos/wan-partition/i3/ethernet"


GOLDEN = pathlib.Path(__file__).parent / "golden_chaos_tiny.txt"

#: A miniature sweep: every fault class exercised, seconds of wall time.
TINY = ChaosScale(
    "tiny", levels=(3,),
    submit_clients=30, submit_duration=30.0,
    buffer_producers=5, buffer_duration=20.0,
    replica_clients=3, replica_duration=120.0,
    kangaroo_producers=5, kangaroo_duration=60.0,
)


class TestCampaign:
    def test_same_seed_identical_report(self):
        first = run_chaos_campaign(TINY, seed=11)
        second = run_chaos_campaign(TINY, seed=11)
        assert first == second
        assert render_scorecard(first) == render_scorecard(second)

    def test_covers_every_class_and_discipline(self):
        report = run_chaos_campaign(TINY, seed=11)
        seen = {(c.fault, c.intensity, c.discipline) for c in report.cells}
        for fault_class in FAULT_CLASSES:
            for discipline in ("fixed", "aloha", "ethernet"):
                assert (fault_class.name, 0, discipline) in seen
                assert (fault_class.name, 3, discipline) in seen

    def test_baselines_fully_retained(self):
        report = run_chaos_campaign(TINY, seed=11)
        for c in report.cells:
            if c.intensity == 0:
                assert c.retained == 1.0
                assert c.starvation == 0

    def test_scorecard_renders_every_cell(self):
        report = run_chaos_campaign(TINY, seed=11)
        text = render_scorecard(report)
        assert text.count("\n") >= len(report.cells)
        assert "seed=11" in text

    def test_scorecard_byte_identical_to_golden(self):
        """The tiny campaign is interrupt-heavy (fault windows cancel and
        restart client processes), so this pins the kernel's dispatch
        order byte-for-byte: any reordering in the event list shows up as
        a diff against the committed scorecard."""
        text = render_scorecard(run_chaos_campaign(TINY, seed=11))
        assert text == GOLDEN.read_text()

    def test_obs_dir_holds_one_bundle_per_cell(self, tmp_path):
        """Every instrumented cell delivers its own four-file bundle,
        named by its key, through the socket fleet too; the parent
        merges them, and the scorecard is the plain run's."""
        obs_dir = tmp_path / "obs"
        report = run_chaos_campaign(TINY, seed=11, jobs=2, backend="socket",
                                    obs_dir=str(obs_dir))
        assert render_scorecard(report) == GOLDEN.read_text()
        stems = {cell.key.replace("/", "_")
                 for cell in campaign_cells(TINY, 11)}
        assert "chaos_kangaroo_baseline_fixed" in stems
        names = {path.name for path in obs_dir.iterdir()}
        assert names == {f"{stem}.{ext}" for stem in stems
                         for ext in ("prom", "spans.jsonl", "trace.json",
                                     "report.txt")} | \
            {f"combined.{ext}" for ext in ("prom", "spans.jsonl",
                                           "trace.json")}

    def test_a_cell_returns_its_bundle_and_writes_nothing(self, tmp_path,
                                                          monkeypatch):
        """The bundle travels back as the cell's result, so a worker on
        another filesystem still delivers it; the parent writes it."""
        monkeypatch.chdir(tmp_path)
        params = ChaosParams("buffer", "ethernet", None, 0, TINY, 11)
        (goodput, series), bundle = instrumented_cell(
            run_cell, params, params.labels(), "chaos/buffer/baseline/ethernet")
        assert list(tmp_path.iterdir()) == []
        stem = "chaos_buffer_baseline_ethernet"
        assert sorted(bundle) == [f"{stem}.prom", f"{stem}.report.txt",
                                  f"{stem}.spans.jsonl", f"{stem}.trace.json"]
        prom = bundle[f"{stem}.prom"]
        assert 'discipline="ethernet"' in prom and 'fault="none"' in prom
        # Telemetry changes nothing the cell measures.
        assert run_cell(params) == (goodput, series)

    def test_golden_reproduced_by_the_forced_tree_walker(self, monkeypatch):
        """The end-to-end oracle: every script reaches the interpreter
        as a parsed ``Script`` — and the scorecard must not move."""
        from repro.core.ast_nodes import Script
        from repro.core.interpreter import Interpreter

        walked = []
        execute = Interpreter.execute

        def counting(self, script, *args, **kwargs):
            assert isinstance(script, Script)
            walked.append(script)
            return execute(self, script, *args, **kwargs)

        monkeypatch.setattr(Interpreter, "execute", counting)
        text = render_scorecard(run_chaos_campaign(TINY, seed=11, jobs=1))
        assert text == GOLDEN.read_text()
        assert len(walked) > 1000  # 2,936 scripts when this was written

    @pytest.mark.slow
    def test_smoke_scale_ordering_holds(self):
        """The acceptance claim: at smoke scale with the default seed the
        ordering holds for every fault class at the highest intensity."""
        report = run_chaos_campaign(SCALES["smoke"], seed=2003)
        assert report.violations == ()


#: Runs the campaign twice over one cache directory with "smoke" shrunk
#: to TINY, in the order given: through the library
#: (``chaos.main([...])``) and as ``python -m repro.experiments.chaos``
#: would (the module executed as ``__main__``).  Each pass prints its
#: ``cache:`` line.
_TWO_ENTRY_POINTS = f"""
import runpy, sys
import repro.experiments.chaos as chaos
from repro.experiments.chaos import ChaosScale

chaos.SCALES["smoke"] = {dataclasses.replace(TINY, name="smoke")!r}
root = sys.argv[1]
for entry in sys.argv[2:]:
    argv = ["--scale", "smoke", "--seed", "11", "--out", root + "/" + entry,
            "--cache-dir", root + "/cache"]
    if entry == "library":
        chaos.main(argv)
    else:
        sys.argv = ["chaos"] + argv
        try:
            runpy.run_module("repro.experiments.chaos", run_name="__main__",
                             alter_sys=True)
        except SystemExit:
            pass
"""


def _python(*args):
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], env=env, text=True,
                          capture_output=True, check=True, timeout=120)


class TestEntryPoints:
    @pytest.mark.parametrize("order", [("library", "cli"),
                                       ("cli", "library")])
    def test_library_and_cli_share_one_cache(self, tmp_path, order):
        """Cache keys carry the cell function's module, so ``python -m``
        must hand the executor the importable ``run_cell``, not the
        ``__main__`` copy's: whichever entry point fills the cache, the
        other finds every cell in it and renders the same bytes."""
        done = _python("-c", _TWO_ENTRY_POINTS, str(tmp_path), *order)
        tallies = re.findall(r"cache: (\d+) hits, (\d+) misses", done.stdout)
        assert len(tallies) == 2
        cells = int(tallies[0][1])
        assert tallies == [("0", str(cells)), (str(cells), "0")]
        first, second = (
            (tmp_path / entry / "scorecard_smoke.txt").read_bytes()
            for entry in order)
        assert first == second

    def test_import_leaves_the_http_stack_out(self):
        """Only a run that pushes telemetry pays for the HTTP client and
        the server kit behind ``repro.service.http``."""
        _python("-c", """
import sys
import repro.experiments.chaos
loaded = {"http.client", "http.server", "socketserver"} & set(sys.modules)
assert not loaded, loaded
from repro.obs.push import push_batch
assert push_batch("http://127.0.0.1:9", b"{}", timeout=1.0) is False
assert "http.client" in sys.modules
""")

    @pytest.mark.parametrize("module", ["chaos", "runall"])
    def test_import_leaves_the_telemetry_out(self, module):
        """Only ``--obs-dir``/``--obs-push`` (or ``$REPRO_OBS_PUSH``)
        load the exporters, the report and the pusher with its codec."""
        _python("-c", f"""
import sys
import repro.experiments.{module}
loaded = {{"repro.obs.exporters", "repro.obs.report", "repro.obs.push",
          "repro.service.codec"}} & set(sys.modules)
assert not loaded, loaded
""")
