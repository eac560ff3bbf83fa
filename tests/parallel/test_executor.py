"""The campaign executor: serial/parallel dispatch, cache plumbing,
progress reporting, and worker-count resolution."""

import os
import threading
import time

import pytest

from repro.parallel.cache import ResultCache
from repro.parallel.executor import CellSpec, resolve_jobs, run_cells


def square(x):
    return x * x


def boom(x):
    raise RuntimeError(f"cell exploded on {x}")


def late_boom(x):
    """Fails after any neighbour's result has reached the parent."""
    time.sleep(0.2)
    raise RuntimeError(f"cell exploded on {x}")


def slow_mark(directory, x):
    """Leaves a file behind when it *starts*, then takes a while."""
    open(os.path.join(directory, str(x)), "w").close()
    time.sleep(0.2)
    return x


def cells_for(values, cacheable=True):
    return [CellSpec(key=f"t/sq/{v}", fn=square, args=(v,),
                     cacheable=cacheable) for v in values]


class TestResolveJobs:
    def test_none_means_serial(self):
        assert resolve_jobs(None) == 1

    def test_zero_means_one_per_cpu(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestRunCells:
    def test_serial_preserves_input_order(self):
        assert run_cells(cells_for([4, 2, 9])) == [16, 4, 81]

    def test_parallel_matches_serial(self):
        cells = cells_for(list(range(8)))
        assert run_cells(cells, jobs=4) == run_cells(cells)

    def test_single_cell_runs_inline_even_with_jobs(self):
        assert run_cells(cells_for([7]), jobs=4) == [49]

    def test_empty_input(self):
        assert run_cells([]) == []

    def test_worker_exception_propagates(self):
        cells = [CellSpec(key="t/boom", fn=boom, args=(1,))]
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_cells(cells)
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_cells(cells + cells_for([1]), jobs=2)

    def test_failing_cell_shuts_the_pool_down(self, tmp_path):
        """The queued cells are dropped and the pool's thread and
        workers go away, instead of the rest of the campaign running
        on in the background after run_cells has raised."""
        cells = [CellSpec(key="t/boom", fn=boom, args=(1,))] + [
            CellSpec(key=f"t/mark/{v}", fn=slow_mark,
                     args=(str(tmp_path), v)) for v in range(12)]
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_cells(cells, jobs=2)
        deadline = time.monotonic() + 5.0
        while threading.active_count() > threads \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        # (<=: an earlier test's pool may have been winding down too.)
        assert threading.active_count() <= threads
        # Only what the workers had already been handed (one cell each
        # plus the pool's prefetch of jobs + 1) ever started.
        assert len(os.listdir(tmp_path)) <= 5

    def test_progress_reports_run_then_done(self):
        events = []
        run_cells(cells_for([1, 2]),
                  progress=lambda key, status: events.append((key, status)))
        assert events == [("t/sq/1", "run"), ("t/sq/1", "done"),
                          ("t/sq/2", "run"), ("t/sq/2", "done")]


class TestCachePlumbing:
    def test_second_run_served_entirely_from_cache(self, tmp_path):
        cells = cells_for([3, 5, 8])
        cache = ResultCache(str(tmp_path))
        first = run_cells(cells, cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (0, 3, 3)
        second = run_cells(cells, cache=cache)
        assert second == first
        assert cache.hits == 3

    def test_warm_hits_reported_as_hit_not_run(self, tmp_path):
        cells = cells_for([3])
        cache = ResultCache(str(tmp_path))
        run_cells(cells, cache=cache)
        events = []
        run_cells(cells, cache=cache,
                  progress=lambda key, status: events.append(status))
        assert events == ["hit"]

    def test_uncacheable_cells_always_recompute(self, tmp_path):
        cells = cells_for([3], cacheable=False)
        cache = ResultCache(str(tmp_path))
        run_cells(cells, cache=cache)
        run_cells(cells, cache=cache)
        assert (cache.hits, cache.stores) == (0, 0)

    @pytest.mark.parametrize("jobs", [None, 2], ids=["serial", "pool"])
    def test_failed_campaign_keeps_finished_cells(self, jobs, tmp_path):
        """Results are put as they land, not after the last cell."""
        cells = (cells_for([3, 5])
                 + [CellSpec(key="t/boom", fn=late_boom, args=(1,))]
                 + cells_for([8]))
        cache = ResultCache(str(tmp_path))
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_cells(cells, jobs=jobs, cache=cache)
        events = []
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_cells(cells, jobs=jobs, cache=cache,
                      progress=lambda key, status: events.append(
                          (key, status)))
        assert events[:2] == [("t/sq/3", "hit"), ("t/sq/5", "hit")]

    def test_parallel_run_populates_cache_for_serial(self, tmp_path):
        cells = cells_for([2, 4, 6, 8])
        cache = ResultCache(str(tmp_path))
        parallel = run_cells(cells, jobs=2, cache=cache)
        serial = run_cells(cells, cache=cache)
        assert serial == parallel
        assert cache.hits == 4
