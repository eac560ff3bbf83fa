"""The contract the whole parallel layer sells: same seed means
byte-identical campaign output whether cells ran serially, on a
process pool, or out of a warm cache."""

import json

import pytest

from repro.experiments.chaos import render_scorecard, run_chaos_campaign
from repro.experiments.figure1 import submit_cells
from repro.experiments.figure4 import (
    assemble_buffer_sweep,
    buffer_cells,
    render_figure4,
    render_figure5,
)
from repro.experiments.runall import Scale, build_figures, campaign_cells
from repro.parallel.cache import ResultCache
from repro.parallel.executor import run_cells
from repro.parallel.transport import to_jsonable

from tests.experiments.test_chaos import TINY
from tests.experiments.test_figures import render_all

#: A seconds-scale runall grid covering every figure group.
SMALL = Scale(
    "test-small",
    fig1_counts=(5, 10),
    fig1_duration=10.0,
    timeline_clients=10,
    timeline_duration=30.0,
    buffer_counts=(3, 6),
    buffer_duration=10.0,
    reader_duration=60.0,
)


def campaign_json(jobs=None, cache=None, seed=2003):
    cells = [cell for group in campaign_cells(SMALL, seed).values()
             for cell in group]
    results = run_cells(cells, jobs=jobs, cache=cache)
    return json.dumps([to_jsonable(result) for result in results],
                      sort_keys=True)


@pytest.mark.slow
class TestRunallDeterminism:
    def test_jobs_1_vs_jobs_4_vs_warm_cache(self, tmp_path):
        serial = campaign_json(jobs=1)
        parallel = campaign_json(jobs=4)
        assert parallel == serial

        cache = ResultCache(str(tmp_path))
        cold = campaign_json(cache=cache)
        assert cold == serial
        misses_after_cold = cache.misses
        warm = campaign_json(cache=cache)
        assert warm == serial
        # The warm pass recomputed nothing.
        assert cache.hits == misses_after_cold
        assert cache.misses == misses_after_cold

    def test_figure_render_identical_across_modes(self, tmp_path):
        """All seven figures, as runall assembles them, render the same
        serially, on a pool, and out of a warm cache."""
        serial = render_all(build_figures(SMALL, seed=5))
        assert render_all(build_figures(SMALL, seed=5, jobs=2)) == serial
        cache = ResultCache(str(tmp_path))
        build_figures(SMALL, seed=5, cache=cache)          # populate
        misses = cache.misses
        warm = render_all(build_figures(SMALL, seed=5, cache=cache))
        assert warm == serial
        assert cache.hits == misses
        assert cache.misses == misses

    def test_buffer_sweep_identical_across_modes(self):
        counts, duration = (3, 5), 8.0

        def sweep(jobs):
            cells = buffer_cells(counts, duration, seed=5)
            result = assemble_buffer_sweep(counts, duration,
                                           run_cells(cells, jobs=jobs))
            return render_figure4(result) + render_figure5(result)

        assert sweep(jobs=4) == sweep(jobs=1)


@pytest.mark.slow
class TestChaosDeterminism:
    def test_scorecard_identical_across_modes(self, tmp_path):
        serial = run_chaos_campaign(TINY, seed=11)
        parallel = run_chaos_campaign(TINY, seed=11, jobs=4)
        assert parallel == serial
        assert render_scorecard(parallel) == render_scorecard(serial)

        cache = ResultCache(str(tmp_path))
        run_chaos_campaign(TINY, seed=11, cache=cache)   # populate
        recomputed = cache.misses
        warm = run_chaos_campaign(TINY, seed=11, jobs=4, cache=cache)
        assert render_scorecard(warm) == render_scorecard(serial)
        # Every cell came from the cache on the warm pass.
        assert cache.hits == recomputed
        assert cache.misses == recomputed


def fig1_cells(duration=5.0, seed=1):
    return submit_cells((3,), duration, seed)


class TestCacheInvalidation:
    def test_different_seed_is_a_different_campaign(self):
        assert campaign_json(seed=2003) != campaign_json(seed=2004)

    def test_seed_change_misses_warm_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_cells(fig1_cells(seed=1), cache=cache)
        assert cache.hits == 0
        run_cells(fig1_cells(seed=2), cache=cache)
        assert cache.hits == 0                  # nothing reusable
        run_cells(fig1_cells(seed=1), cache=cache)
        assert cache.hits > 0                   # same seed hits again

    def test_param_change_misses_warm_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_cells(fig1_cells(duration=5.0), cache=cache)
        run_cells(fig1_cells(duration=6.0), cache=cache)
        assert cache.hits == 0

    def test_code_change_misses_warm_cache(self, tmp_path):
        before = ResultCache(str(tmp_path))
        run_cells(fig1_cells(), cache=before)
        after_edit = ResultCache(str(tmp_path), fingerprint="edited")
        run_cells(fig1_cells(), cache=after_edit)
        assert after_edit.hits == 0
        assert after_edit.misses > 0
