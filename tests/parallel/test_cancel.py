"""Cooperative cancellation and graceful shutdown in ``run_cells``."""

import threading
import time

import pytest

from repro.parallel.cache import ResultCache
from repro.parallel.executor import CampaignCancelled, CellSpec, run_cells


def square(x):
    return x * x


def slow_square(x):
    time.sleep(0.05)
    return x * x


def cells_for(values, fn=square):
    return [CellSpec(key=f"t/cancel/{fn.__name__}/{v}", fn=fn, args=(v,))
            for v in values]


class TestSerialCancel:
    def test_preset_event_cancels_before_first_cell(self):
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(CampaignCancelled):
            run_cells(cells_for([1, 2, 3]), cancel=cancel)

    def test_callable_cancel_supported(self):
        calls = []

        def cancel():
            calls.append(1)
            return len(calls) > 1  # let exactly one cell through

        with pytest.raises(CampaignCancelled):
            run_cells(cells_for([1, 2, 3]), cancel=cancel)

    def test_mid_campaign_cancel_names_the_cell(self):
        cancel = threading.Event()

        def arm_after_first(x):
            cancel.set()
            return x

        cells = [CellSpec(key=f"t/arm/{v}", fn=arm_after_first, args=(v,))
                 for v in [1, 2]]
        with pytest.raises(CampaignCancelled) as exc:
            run_cells(cells, cancel=cancel)
        assert "t/arm/2" in str(exc.value)

    def test_no_cancel_still_runs_everything(self):
        assert run_cells(cells_for([1, 2, 3])) == [1, 4, 9]

    def test_unset_event_runs_everything(self):
        cancel = threading.Event()
        assert run_cells(cells_for([1, 2]), cancel=cancel) == [1, 4]


class TestParallelCancel:
    def test_preset_event_cancels_pool(self):
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(CampaignCancelled):
            run_cells(cells_for(list(range(8)), fn=slow_square),
                      jobs=2, cancel=cancel)

    def test_deferred_cancel_interrupts_pool(self):
        cancel = threading.Event()
        timer = threading.Timer(0.05, cancel.set)
        timer.start()
        try:
            with pytest.raises(CampaignCancelled):
                run_cells(cells_for(list(range(64)), fn=slow_square),
                          jobs=2, cancel=cancel)
        finally:
            timer.cancel()

    def test_uncancelled_parallel_unchanged(self):
        cancel = threading.Event()
        results = run_cells(cells_for([1, 2, 3, 4]), jobs=2, cancel=cancel)
        assert results == [1, 4, 9, 16]


class TestCacheInteraction:
    def test_cancel_before_first_cell_leaves_cache_empty(self, tmp_path):
        cache = ResultCache(root=str(tmp_path), fingerprint="t")
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(CampaignCancelled):
            run_cells(cells_for([1, 2]), cache=cache, cancel=cancel)
        assert cache.disk_stats()["entries"] == 0

    def test_cancelled_campaign_keeps_finished_cells(self, tmp_path):
        cache = ResultCache(root=str(tmp_path), fingerprint="t")
        checks = []

        def cancel():
            checks.append(1)
            return len(checks) > 2  # let exactly two cells through

        cells = cells_for([1, 2, 3])
        with pytest.raises(CampaignCancelled):
            run_cells(cells, cache=cache, cancel=cancel)
        events = []
        assert run_cells(cells, cache=cache,
                         progress=lambda _key, status: events.append(status)
                         ) == [1, 4, 9]
        assert events == ["hit", "hit", "run", "done"]
