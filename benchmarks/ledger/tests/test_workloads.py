"""Each workload, called from Python at a tiny size, finishes and
verifies its own output."""

import shutil

import harness
import layers
import workloads


def _run(name, trace=False):
    return harness.open_ledger(name, seed=3, seconds=0.0, trace=trace)


def test_figures_full_small():
    with _run("figures_full", trace=True) as ledger:
        outcome = workloads.figures_body(ledger, scale="quick")
        assert ledger.failed == 0, ledger.problems
        assert outcome.metrics["campaign_wall_s"] > 0
        assert outcome.units == outcome.extra["cells"] > 0
        cells = [s for s in ledger.tracer.spans if s.kind == "cell"]
        assert len(cells) == outcome.units
        # quick scale has no pin: the run says so instead of passing mutely
        assert any("not pinned" in note for note in ledger.notes)


def test_figures_full_catches_a_wrong_pin(monkeypatch):
    monkeypatch.setattr(workloads, "pinned", lambda *args: "0" * 64)
    with _run("figures_full") as ledger:
        workloads.figures_body(ledger, scale="quick")
        assert ledger.failed == 1
        assert "pinned sha256" in ledger.problems[0]


def test_chaos_cache_small():
    with _run("chaos_cache") as ledger:
        outcome = workloads.chaos_body(ledger, warm_reruns=2)
        assert ledger.failed == 0, ledger.problems
        assert outcome.extra["hit_ratio"] == 1.0
        assert outcome.extra["cells"] == 33
        assert 0 < outcome.metrics["warm_rerun_s"] \
            < outcome.metrics["campaign_wall_s"]


def test_dist_fleet_small():
    with _run("dist_fleet", trace=True) as ledger:
        setup_s, _kept = workloads.dist_setup(ledger)
        outcome = workloads.dist_body(ledger, cells_per_round=6,
                                      min_rounds=1)
        assert setup_s > 0
        assert ledger.failed == 0, ledger.problems
        assert set(outcome.metrics) == {
            "cells_per_s.serial", "cells_per_s.pool",
            "cells_per_s.worksteal", "cells_per_s.socket"}
        assert all(rate > 0 for rate in outcome.metrics.values())
        serial_cells = [s for s in ledger.tracer.spans if s.kind == "cell"]
        assert len(serial_cells) == 6


def test_service_mix_small():
    with _run("service_mix", trace=True) as ledger:
        setup_s, service = workloads.service_setup(ledger)
        try:
            outcome = workloads.service_body(ledger, service,
                                             ops_per_thread=8)
            assert ledger.failed == 0, ledger.problems
            ops = outcome.extra["ops"]
            assert len(ops) == 16
            assert sum(op.kind == "repeat" for op in ops) == 4
            assert outcome.metrics["ops_per_s"] > 0
            rows = layers.service_layers(ledger, outcome, outcome, service)
            assert rows["service.rejected"] == 0
            assert rows["service.cell_share"] < 0.1
            assert 3.0 <= rows["service.exchanges_per_op"] <= 5.0
        finally:
            service.close()
        assert setup_s > 0
        assert service.child.poll() is not None
        shutil.rmtree(service.cache_dir, ignore_errors=True)
