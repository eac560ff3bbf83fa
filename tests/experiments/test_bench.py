"""``repro.experiments.bench.bench_interp``: the one function the perf
ledger imports from ``src/`` for its ``core.interpreter.*`` rows.

``benchmarks/ledger/layers.py`` (``figures_layers``) reads exactly the
keys checked here; a break would otherwise only show in a traced
ledger run.
"""

from repro.experiments import bench


def test_bench_interp_returns_what_the_ledger_reads():
    interp = bench.bench_interp(attempts=5, runs=1)
    assert interp["identical"] is True
    retry = interp["dispatch"]["retry"]
    assert (retry["attempts"], retry["runs"]) == (5, 1)
    assert {"compiled_s", "tree_s"} <= set(retry)
    forall = interp["dispatch"]["forall"]
    assert forall["branches"] == 8 and forall["runs"] > 0
    assert "compiled_s" in forall
