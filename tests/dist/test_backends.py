"""The backends behind run_cells: selection, execution, fault
tolerance, and what both tell the cache and the progress hook."""

import functools
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.dist import BACKEND_ENV, backend_names, backends, resolve_backend
from repro.dist.backends import BackendError
from repro.parallel.cache import ResultCache
from repro.parallel.executor import CampaignCancelled, CellSpec, run_cells


def square(x):
    return x * x


def boom(x):
    raise RuntimeError(f"cell exploded on {x}")


def die_once(marker, x):
    """SIGKILL the process running this cell, mid-cell, the first time
    only: ``marker`` remembers that it happened."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return x * x
    # Long enough for a neighbour's finished cell to reach the parent.
    time.sleep(0.2)
    os.kill(os.getpid(), signal.SIGKILL)


def cells_for(values, cacheable=True):
    return [CellSpec(key=f"t/sq/{v}", fn=square, args=(v,),
                     cacheable=cacheable) for v in values]


class TestResolveBackend:
    def test_default_is_inprocess(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(None) == "inprocess"

    def test_aliases_normalize(self):
        assert resolve_backend(" InProcess ") == "inprocess"
        assert resolve_backend("SOCKET") == "socket"
        for retired in ("in-process", "local", "http"):
            with pytest.raises(ValueError, match="unknown dist backend"):
                resolve_backend(retired)

    def test_env_var_applies_without_explicit_arg(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "socket")
        assert resolve_backend(None) == "socket"
        # An explicit argument always wins over the environment.
        assert resolve_backend("inprocess") == "inprocess"

    def test_work_stealing_is_the_local_executor(self, monkeypatch,
                                                 tmp_path):
        """The retired backend's name still resolves (the perf ledger
        passes it) — to the pool, which leaves no thread behind."""
        assert "work-stealing" not in backend_names()
        cells = cells_for(range(12))
        serial = run_cells(cells)
        threads = threading.active_count()
        assert run_cells(cells, jobs=2, cache=ResultCache(str(tmp_path)),
                         backend="work-stealing") == serial
        monkeypatch.setenv(BACKEND_ENV, "work-stealing")
        assert resolve_backend(None) == "inprocess"
        assert run_cells(cells, jobs=2) == serial
        assert threading.active_count() <= threads

    def test_unknown_name_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown dist backend"):
            resolve_backend("carrier-pigeon")
        monkeypatch.setenv(BACKEND_ENV, "carrier-pigeon")
        with pytest.raises(ValueError, match="unknown dist backend"):
            run_cells(cells_for([1]))


_FORK_PROBE = """
import threading
from repro.dist.backends import _fork_allowed
alone = _fork_allowed()
release = threading.Event()
second = threading.Thread(target=release.wait)
second.start()
beside = _fork_allowed()
release.set()
second.join()
print(alone, beside, _fork_allowed())
"""


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")
def test_fork_is_chosen_from_the_threads_alive():
    """Fork-vs-subprocess is decided from what the process observes —
    there is no switch to set.  (A fresh interpreter, so no other
    test's lingering thread answers for this one.)"""
    done = subprocess.run(
        [sys.executable, "-c", _FORK_PROBE], text=True, capture_output=True,
        timeout=60, env=backends._worker_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False", "True"]


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

    def test_cancel_raises_campaign_cancelled(self):
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(CampaignCancelled):
            run_cells(cells_for([1, 2, 3]), jobs=2, cancel=cancel,
                      backend="socket")

    def test_coordinator_publishes_into_the_shared_store(self, tmp_path):
        """By the time run_cells returns, every result is in the cache:
        the coordinator published each before its ack settled."""
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

    def test_cache_precheck_short_circuits_the_fleet(self, tmp_path,
                                                     monkeypatch):
        """Warm cells never reach the backend at all."""
        cells = cells_for([2, 4])
        cache = ResultCache(str(tmp_path))
        run_cells(cells, cache=cache)
        monkeypatch.setattr(
            backends, "run_socket",
            lambda *args, **kwargs: pytest.fail("fleet started"))
        statuses = []
        results = run_cells(cells, jobs=2, cache=cache, backend="socket",
                            progress=lambda _k, s: statuses.append(s))
        assert results == [4, 16]
        assert statuses == ["hit", "hit"]


class TestKilledWorker:
    """Break our own planes: a cell whose worker is SIGKILLed under it."""

    def cells(self, tmp_path):
        killer = CellSpec(key="t/die", fn=die_once,
                          args=(str(tmp_path / "died"), 7))
        return cells_for([1, 2]) + [killer] + cells_for(range(3, 9))

    def test_socket_fleet_recovers_the_cell_by_lease_expiry(
            self, tmp_path, monkeypatch):
        made = []

        class Recording(backends.TaskQueue):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(backends, "TaskQueue", Recording)
        monkeypatch.setattr(
            backends, "run_socket",
            functools.partial(backends.run_socket, lease=1.0))
        cells = self.cells(tmp_path)
        cache = ResultCache(str(tmp_path / "cache"))
        results = run_cells(cells, jobs=2, cache=cache, backend="socket")
        # The marker exists now, so the serial run survives the cell.
        assert results == run_cells(cells)
        (queue,) = made
        assert queue.stats.expired >= 1
        assert queue.failures() == []

    def test_pool_fails_promptly_and_keeps_what_it_finished(self, tmp_path):
        cells = self.cells(tmp_path)
        cache = ResultCache(str(tmp_path / "cache"))
        started = time.perf_counter()
        with pytest.raises(BrokenProcessPool):
            run_cells(cells, jobs=2, cache=cache)
        assert time.perf_counter() - started < 5.0
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert multiprocessing.active_children() == []
        statuses = []
        rerun = run_cells(cells, jobs=2, cache=cache,
                          progress=lambda k, s: statuses.append((k, s)))
        assert rerun == [1, 4, 49] + [v * v for v in range(3, 9)]
        assert statuses[:2] == [("t/sq/1", "hit"), ("t/sq/2", "hit")]


@pytest.mark.parametrize("backend", ["inprocess", "socket"])
class TestOneContractOnBothBackends:
    """What a caller can observe besides the results — cache traffic
    and progress calls — does not depend on the backend."""

    def test_each_cell_is_looked_up_once_and_stored_once(self, backend,
                                                         tmp_path):
        cells = cells_for(range(12))
        expected = [v * v for v in range(12)]
        cold = ResultCache(str(tmp_path))
        assert run_cells(cells, jobs=2, cache=cold, backend=backend) \
            == expected
        assert (cold.hits, cold.misses, cold.stores) == (0, 12, 12)
        warm = ResultCache(str(tmp_path))
        assert run_cells(cells, jobs=2, cache=warm, backend=backend) \
            == expected
        assert (warm.hits, warm.misses, warm.stores) == (12, 0, 0)

    def test_every_computed_cell_reports_run_then_done(self, backend,
                                                       tmp_path):
        """Cells far shorter than the socket loop's tick, the last
        batch included; a cached cell reports ``hit`` and nothing
        else."""
        cells = [CellSpec(key=f"t/nap/{i}", fn=time.sleep,
                          args=(0.002 + i / 1e6,)) for i in range(60)]
        cache = ResultCache(str(tmp_path))
        run_cells(cells[:5], cache=cache)
        calls = []
        run_cells(cells, jobs=2, cache=cache, backend=backend,
                  progress=lambda key, status: calls.append((key, status)))
        assert sorted(calls) == sorted(
            [(cell.key, "hit") for cell in cells[:5]]
            + [(cell.key, status) for cell in cells[5:]
               for status in ("run", "done")])
        for cell in cells[5:]:
            assert calls.index((cell.key, "run")) \
                < calls.index((cell.key, "done"))
