"""Hygiene and plumbing: environment scrub, scratch, spans, output rows."""

import io
import json
import os

import catalogue
import harness
import run
import workloads
from conftest import ROOT


def test_scrub_drops_every_program_switch():
    environ = {"REPRO_CACHE_DIR": "/x", "REPRO_DIST_BACKEND": "socket",
               "REPRO_DIST_BATCH": "0", "REPRO_NO_COMPILE": "1",
               "REPRO_OBS_PUSH": "http://x", "REPRO_DIST_FORK": "0",
               "PATH": "/bin", "HOME": "/root"}
    dropped = harness.scrub_environment(environ)
    assert len(dropped) == 6
    assert environ == {"PATH": "/bin", "HOME": "/root"}


def test_ledger_scratch_lives_inside_the_checkout_and_is_removed():
    os.environ["REPRO_NO_COMPILE"] = "1"
    with harness.open_ledger("dist_fleet", 1, 0.0, trace=True) as ledger:
        assert "REPRO_NO_COMPILE" not in os.environ
        assert ledger.tmp.startswith(ROOT + os.sep)
        assert os.path.isdir(ledger.tmp)
        env = ledger.child_env()
        assert env["TMPDIR"] == ledger.tmp
        assert not [name for name in env if name.startswith("REPRO_")]
        with ledger.timed() as region:
            sum(range(200_000))
        assert region.raw_s > 0 and region.ref_s > 0
        kept = ledger.tmp
    assert not os.path.exists(kept)


def test_check_counts_a_failure_as_a_failed_operation():
    ledger = harness.Ledger("w", 1, 1.0, tmp="", host=None)
    assert ledger.check("fine", True)
    assert not ledger.check("broken", False, "because")
    ledger.count(10, 2)
    assert (ledger.attempted, ledger.failed) == (12, 3)
    assert ledger.problems == ["broken: because"]


def test_progress_lines_become_cell_spans():
    with harness.open_ledger("figures_full", 1, 0.0, trace=True) as ledger:
        with ledger.span("runall.main", "experiments") as root:
            sink = workloads.LineSpans(ledger, root)
            sink.write("Campaign: 2 cells (jobs=serial, cache=off) ...\n")
            sink.write("  fig1/aloha/n50 [run]\n  fig45/")
            sink.write("fixed/p5 [run]\n")
            sink.write("Figure 1: job-submission sweep ...\n")
            sink.finish()
        names = [span.name for span in ledger.tracer.spans]
        assert names == ["runall.main", "cell:fig1/aloha/n50",
                         "cell:fig45/fixed/p5", "after-cells:Figure 1"]
        assert all(span.finished for span in ledger.tracer.spans)
        assert "Campaign: 2 cells" in sink.text.getvalue()


def test_line_spans_are_silent_with_tracing_off():
    with harness.open_ledger("figures_full", 1, 0.0, trace=False) as ledger:
        sink = workloads.LineSpans(ledger, None)
        print("  fig1/aloha/n50 [run]", file=sink)
        sink.finish()
        assert ledger.tracer is None
        assert sink.text.getvalue() == "  fig1/aloha/n50 [run]\n"


def test_printed_rows_are_exactly_the_registered_rows():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        document = json.load(fh)
    outcome = workloads.Outcome(metrics={"campaign_wall_s": 10.0},
                                wall_s=10.0, units=40)
    rows = run.end_to_end_rows(outcome, setup_s=0.5)
    assert list(rows) == [m["name"] for m in document["end_to_end"]]
    assert rows["campaign_wall_s"][0] == 10.0
    assert rows["cells_per_s.pool"][0] == 4.0            # fill: 40 / 10 s
    assert rows["repeat_p50_ms"][0] == 250.0             # fill: 10 s / 40
    assert all(value > 0 for value, _note in rows.values())
    layer_names = [m["name"] for m in document["per_layer"]]
    assert layer_names == [m.name for m in catalogue.PER_LAYER]


def test_vetted_seeds_are_all_pinned():
    expected = workloads.load_expected()
    for seed in workloads.VETTED_SEEDS:
        assert workloads.pinned("figures", workloads.FIGURE_SCALE, seed)
        assert workloads.pinned("chaos", workloads.CHAOS_SCALE, seed)
    assert set(expected) == {"figures", "chaos"}
    assert workloads.campaign_seed(2003) in workloads.VETTED_SEEDS
    assert workloads.campaign_seed(2003) == 2003
    assert workloads.campaign_seed(7) == workloads.campaign_seed(2003)
