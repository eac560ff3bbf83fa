"""The pluggable backends behind run_cells: selection, execution,
fault tolerance, and the shared artifact store's cross-worker serves."""

import threading
import time

import pytest

from repro.dist import BACKEND_ENV, BATCH_ENV, resolve_backend, run_dist_cells
from repro.dist.backends import BackendError, _fork_allowed
from repro.dist.coordinator import CoordinatorServer
from repro.dist.queue import TaskQueue
from repro.dist.store import ArtifactStore
from repro.dist.wire import encode_cell
from repro.dist.worker import worker_loop
from repro.parallel.cache import ResultCache
from repro.parallel.executor import CampaignCancelled, CellSpec, run_cells


def square(x):
    return x * x


def boom(x):
    raise RuntimeError(f"cell exploded on {x}")


def cells_for(values, cacheable=True):
    return [CellSpec(key=f"t/sq/{v}", fn=square, args=(v,),
                     cacheable=cacheable) for v in values]


class TestResolveBackend:
    def test_default_is_inprocess(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(None) == "inprocess"

    def test_aliases_normalize(self):
        assert resolve_backend("in-process") == "inprocess"
        assert resolve_backend("WORKSTEALING") == "work-stealing"
        assert resolve_backend("http") == "socket"

    def test_env_var_applies_without_explicit_arg(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "work-stealing")
        assert resolve_backend(None) == "work-stealing"
        # An explicit argument always wins over the environment.
        assert resolve_backend("inprocess") == "inprocess"

    def test_unknown_name_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown dist backend"):
            resolve_backend("carrier-pigeon")
        monkeypatch.setenv(BACKEND_ENV, "carrier-pigeon")
        with pytest.raises(ValueError, match="unknown dist backend"):
            run_cells(cells_for([1]))


class TestWorkStealingBackend:
    def test_matches_serial(self, tmp_path):
        cells = cells_for([4, 2, 9, 7])
        serial = run_cells(cells)
        cache = ResultCache(str(tmp_path))
        assert run_cells(cells, jobs=2, cache=cache,
                         backend="work-stealing") == serial

    def test_workers_publish_into_the_shared_store(self, tmp_path):
        """A distributed run leaves the same warm cache a local run does."""
        cells = cells_for([3, 5])
        cache = ResultCache(str(tmp_path))
        run_cells(cells, jobs=2, cache=cache, backend="work-stealing")
        statuses = []
        rerun = run_cells(cells, cache=cache,
                          progress=lambda _k, s: statuses.append(s))
        assert rerun == [9, 25]
        assert statuses == ["hit", "hit"]

    def test_cell_failure_propagates(self, tmp_path):
        cells = [CellSpec(key="t/boom", fn=boom, args=(1,))] + cells_for([2])
        with pytest.raises(BackendError, match="t/boom"):
            run_cells(cells, jobs=2, cache=ResultCache(str(tmp_path)),
                      backend="work-stealing")

    def test_cancel_raises_campaign_cancelled(self):
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(CampaignCancelled):
            run_dist_cells("work-stealing", cells_for([1, 2, 3]),
                           jobs=2, cancel=cancel)

    def test_no_thread_outlives_the_campaign(self, monkeypatch):
        """The task queue's feeder thread used to be closed but not
        joined, so for a moment after the return the parent was still
        threaded — and the *next* campaign then spawned fresh
        interpreters instead of forking.  A feeder made slow to die
        turns that race into a certainty."""
        from multiprocessing import queues as mp_queues

        real_feed = mp_queues.Queue._feed

        def slow_to_die(*args, **kwargs):
            real_feed(*args, **kwargs)
            time.sleep(0.1)

        monkeypatch.setattr(mp_queues.Queue, "_feed",
                            staticmethod(slow_to_die))
        monkeypatch.delenv("REPRO_DIST_FORK", raising=False)
        if threading.active_count() != 1:
            pytest.skip("needs a single-threaded parent to begin with")
        assert run_cells(cells_for(range(12)), jobs=2,
                         backend="work-stealing") \
            == [v * v for v in range(12)]
        assert threading.active_count() == 1
        assert _fork_allowed()


class TestSocketBackend:
    def test_matches_serial(self, tmp_path):
        cells = cells_for([4, 2, 9])
        serial = run_cells(cells)
        cache = ResultCache(str(tmp_path))
        assert run_cells(cells, jobs=2, cache=cache,
                         backend="socket") == serial

    def test_cell_failure_propagates(self, tmp_path):
        cells = [CellSpec(key="t/boom", fn=boom, args=(1,))]
        with pytest.raises(BackendError, match="t/boom"):
            run_cells(cells, jobs=1, cache=ResultCache(str(tmp_path)),
                      backend="socket")

    @pytest.mark.parametrize("batch", [None, "0"],
                             ids=["batched", "unbatched"])
    def test_coordinator_publishes_into_the_shared_store(
            self, batch, tmp_path, monkeypatch):
        """By the time run_cells returns, every result is in the cache:
        the coordinator published each before its ack settled."""
        if batch is None:
            monkeypatch.delenv(BATCH_ENV, raising=False)
        else:
            monkeypatch.setenv(BATCH_ENV, batch)
        cells = cells_for(range(20))
        cache = ResultCache(str(tmp_path))
        expected = [v * v for v in range(20)]
        assert run_cells(cells, jobs=2, cache=cache,
                         backend="socket") == expected
        statuses = []
        assert run_cells(cells, cache=cache,
                         progress=lambda _k, s: statuses.append(s)) \
            == expected
        assert statuses == ["hit"] * 20

    def test_uncacheable_cells_leave_no_artifacts(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert run_cells(cells_for([3, 4], cacheable=False), jobs=2,
                         cache=cache, backend="socket") == [9, 16]
        assert list(cache.entries()) == []


class TestCrossWorkerWarmth:
    def test_cell_computed_by_one_worker_serves_another(self, tmp_path):
        """The acceptance criterion, at the protocol level: worker A
        computes a cell and the coordinator publishes it; when worker B
        claims the same cell later the coordinator settles it as
        ``source: "store"`` without shipping it, and hands B the next
        cell in the same exchange."""
        store = ArtifactStore(ResultCache(str(tmp_path)))
        spec_one, spec_two = cells_for([6, 8])

        def enqueue(queue, spec):
            return queue.submit(encode_cell(spec), key=spec.key,
                                artifact=store.key_for(spec),
                                cacheable=True)

        first = TaskQueue(lease=10.0)
        task_a = enqueue(first, spec_one)
        with CoordinatorServer(first, store) as url:
            first_handled = worker_loop(url, "worker-a", poll=0.05,
                                        max_tasks=1)
        assert (first_handled, task_a.source) == (1, "computed")

        second = TaskQueue(lease=10.0)
        task_b1 = enqueue(second, spec_one)  # same cell, different worker
        task_b2 = enqueue(second, spec_two)
        with CoordinatorServer(second, store) as url:
            # One task: the stored cell never reaches the worker.
            worker_loop(url, "worker-b", poll=0.05, max_tasks=1)
        assert (task_b1.source, task_b1.result) == ("store", 36)
        assert (task_b2.source, task_b2.result) == ("computed", 64)
        assert store.stats() == {"fetched": 1, "published": 2}


class TestRunDistCells:
    def test_cache_precheck_short_circuits_backend(self, tmp_path):
        """Warm cells never reach the backend at all."""
        cells = cells_for([2, 4])
        cache = ResultCache(str(tmp_path))
        run_cells(cells, cache=cache)
        statuses = []
        results = run_dist_cells("socket", cells, jobs=2, cache=cache,
                                 progress=lambda _k, s: statuses.append(s))
        assert results == [4, 16]
        assert statuses == ["hit", "hit"]

    def test_inprocess_is_not_a_dist_backend(self):
        with pytest.raises(ValueError, match="run_cells handles"):
            run_dist_cells("inprocess", cells_for([1]))
