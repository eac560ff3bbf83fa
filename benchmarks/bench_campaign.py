"""Campaign-layer benchmarks: executor dispatch, cache key hashing,
and cold/warm content-addressed cache round-trips.

These are the ``repro.parallel`` counterparts to the engine micro-
benchmarks: they put numbers on the machinery that ``runall --jobs``
and ``--cache-dir`` add around the simulations, so overhead regressions
(hashing, pickling, pool spin-up) show up as numbers.  The end-to-end
campaign timing is the perf ledger's, ``python3 benchmarks/ledger/run.py``.
"""

from repro.clients.base import ETHERNET
from repro.experiments.scenario_submit import SubmitParams, run_submission
from repro.parallel.cache import ResultCache, canonical_json
from repro.parallel.executor import CellSpec, run_cells

PARAMS = SubmitParams(discipline=ETHERNET, n_clients=5, duration=5.0,
                      seed=2003)
CELLS = [
    CellSpec(key=f"bench/submit/{seed}", fn=run_submission,
             args=(SubmitParams(discipline=ETHERNET, n_clients=5,
                                duration=5.0, seed=seed),))
    for seed in range(2003, 2007)
]


def bench_cell_dispatch_serial(benchmark):
    """run_cells overhead + four small submission cells, serial."""
    results = benchmark(run_cells, CELLS)
    assert len(results) == 4


def bench_cache_key(benchmark):
    """Canonicalize + hash a full params dataclass into a cache key."""
    cache = ResultCache.__new__(ResultCache)
    cache.fingerprint = "bench-fingerprint"

    key = benchmark(cache.key_for, run_submission, (PARAMS,), {})
    assert len(key) == 64


def bench_canonical_json(benchmark):
    """Dataclass -> canonical JSON (the hashing payload) alone."""
    text = benchmark(canonical_json, PARAMS)
    assert "SubmitParams" in text


def bench_cache_roundtrip(benchmark, tmp_path):
    """Store + reload one pickled scenario result (warm-hit cost)."""
    cache = ResultCache(str(tmp_path))
    result = run_submission(PARAMS)
    key = cache.key_for(run_submission, (PARAMS,), {})
    cache.put(key, result)

    def roundtrip():
        hit, value = cache.get(key)
        return hit, value

    hit, value = benchmark(roundtrip)
    assert hit and value.jobs_submitted == result.jobs_submitted
