"""Fan independent simulation cells out over a process pool.

Every campaign in this repo — the figure sweeps, ``runall``, the chaos
matrix, the variance study — is a grid of *cells*: pure functions of a
params object that build their own engine, seed their own named random
streams, and return a picklable result.  Cells share nothing, so they
are embarrassingly parallel, and because randomness comes only from the
seed inside the params, a parallel run is byte-identical to a serial
one.  :func:`run_cells` is the single execution path all campaigns go
through:

* ``jobs=None`` or ``1`` — serial, in submission order (the default);
* ``jobs=0`` — one worker per CPU;
* ``jobs=N`` — an N-worker :class:`~concurrent.futures.ProcessPoolExecutor`.

A :class:`~repro.parallel.cache.ResultCache` layered underneath short-
circuits cells whose content hash already has a stored result, so a
warm rerun of an unchanged campaign costs only hashing and unpickling,
and editing one cell's params recomputes exactly that cell.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

from .transport import strip_observability

if TYPE_CHECKING:
    import argparse

    from .cache import ResultCache

#: Progress callback: ``(cell_key, status)`` with status one of
#: ``"hit"`` (served from cache), ``"run"`` (computing), ``"done"``.
Progress = Callable[[str, str], None]

#: How a caller asks a running campaign to stop: anything with
#: ``is_set()`` (a ``threading.Event``) or a plain bool-returning callable.
Cancel = Any

#: Seconds between cancellation checks while waiting on a worker future.
_CANCEL_POLL = 0.1


class CampaignCancelled(Exception):
    """A campaign stopped early because its cancel hook fired.

    Raised by :func:`run_cells` between cells (serial) or between future
    waits (parallel); pending futures are cancelled and the pool is shut
    down before this propagates, so no workers leak.
    """


def _cancelled(cancel: Optional[Cancel]) -> bool:
    if cancel is None:
        return False
    probe = getattr(cancel, "is_set", cancel)
    return bool(probe())


@dataclass(frozen=True)
class CellSpec:
    """One independent unit of campaign work.

    ``fn`` must be a module-level callable (workers import it by name)
    and must return a picklable value; params objects should carry the
    seed so the cell is a pure function of this spec.  ``cacheable=False``
    opts a cell out of the result cache — used for cells whose point is
    a filesystem side effect (telemetry bundles) rather than the return
    value.
    """

    key: str
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    cacheable: bool = True


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/1 -> 1, 0 -> cpu_count."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def add_executor_arguments(parser: argparse.ArgumentParser,
                           cells: str = "campaign") -> None:
    """Declare ``--jobs / --backend / --cache-dir / --no-cache``, the
    four flags a campaign CLI hands on to :func:`run_cells` (the cache
    through :func:`cache_from_args`)."""
    from ..dist import backend_names

    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help=f"run {cells} cells on N worker processes "
             "(default: serial; 0 = one per CPU)",
    )
    parser.add_argument(
        "--backend", default=None, choices=backend_names(),
        help="cell executor backend (repro.dist; default inprocess, "
             "or $REPRO_DIST_BACKEND)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache location "
             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every cell even if cached",
    )


def cache_from_args(args: argparse.Namespace) -> Optional[ResultCache]:
    """The CLIs' cache policy: on by default, ``--no-cache`` to disable."""
    if args.no_cache:
        return None
    from .cache import ResultCache

    return ResultCache(args.cache_dir)


def _execute(spec: CellSpec) -> Any:
    """Run one cell; strips live telemetry handles off the result so it
    survives pickling (workers) and storage (cache) identically."""
    return strip_observability(spec.fn(*spec.args, **dict(spec.kwargs)))


def run_cells(
    cells: Sequence[CellSpec],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[Progress] = None,
    cancel: Optional[Cancel] = None,
    backend: Optional[str] = None,
) -> list[Any]:
    """Execute every cell; return results in submission order.

    The contract campaigns rely on: the returned list is positionally
    aligned with ``cells`` no matter how execution interleaved, and the
    values are identical whether computed serially, in parallel, or
    served from a warm cache.

    ``backend`` selects the executor: ``"inprocess"`` (default) is the
    serial/process-pool path below; ``"socket"`` hands the pending cells
    to the :mod:`repro.dist` coordinator and a fleet of ``jobs``
    workers, whose leases re-run the cells of a worker that dies.
    ``$REPRO_DIST_BACKEND`` applies when no explicit backend is passed.
    Both honour the same contract, scorecards included.

    The cache is consulted once, here, for every backend, and filled as
    results land (by the socket coordinator on each ack), so a campaign
    that is cancelled, or loses a cell or a worker, keeps what it
    finished: the rerun reports those cells ``hit``.

    ``cancel`` (a ``threading.Event`` or bool-returning callable) stops
    the campaign between cells: pending work is cancelled, the pool shuts
    down without leaking workers, and :class:`CampaignCancelled` is
    raised.  Anything else that ends the pool early — an interrupt, a
    cell that raised, a worker that died — gets the same clean shutdown
    (``cancel_futures=True`` instead of orphaned workers) before
    re-raising; the service plane reuses both paths for job
    cancellation.
    """
    from ..dist import resolve_backend

    resolved = resolve_backend(backend)
    say = progress if progress is not None else (lambda _key, _status: None)
    results: list[Any] = [None] * len(cells)
    pending: list[int] = []

    keys: dict[int, str] = {}
    for index, spec in enumerate(cells):
        if cache is not None and spec.cacheable:
            key = cache.key_for(spec.fn, spec.args, spec.kwargs)
            keys[index] = key
            hit, value = cache.get(key)
            if hit:
                say(spec.key, "hit")
                results[index] = value
                continue
        pending.append(index)

    if resolved == "socket":
        if pending:
            from ..dist import backends

            computed = backends.run_socket(
                [(index, cells[index], keys.get(index)) for index in pending],
                jobs, cache, say, cancel)
            for index, value in computed.items():
                results[index] = value
        return results

    def landed(index: int, value: Any) -> None:
        results[index] = value
        say(cells[index].key, "done")
        if index in keys:
            cache.put(keys[index], value)

    workers = resolve_jobs(jobs)
    if workers <= 1 or len(pending) <= 1:
        for index in pending:
            if _cancelled(cancel):
                raise CampaignCancelled(cells[index].key)
            say(cells[index].key, "run")
            landed(index, _execute(cells[index]))
    else:
        # Imported on the one path that uses it: ``multiprocessing``
        # comes along, and the serial, all-hits and socket paths (a
        # warm rerun, a fleet worker) never start a pool.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FutureTimeout

        pool = ProcessPoolExecutor(max_workers=min(workers, len(pending)))
        try:
            futures = {}
            for index in pending:
                say(cells[index].key, "run")
                futures[index] = pool.submit(_execute, cells[index])
            for index in pending:
                while True:
                    if _cancelled(cancel):
                        raise CampaignCancelled(cells[index].key)
                    try:
                        value = futures[index].result(
                            timeout=_CANCEL_POLL if cancel is not None
                            else None)
                        break
                    except FutureTimeout:
                        continue
                landed(index, value)
        except BaseException:
            # The paper's discipline applied to ourselves: release the
            # shared resource on the way out, whatever ended the
            # campaign — a cancel, an interrupt, a cell that raised, a
            # worker that died.  cancel_futures drops the queued cells;
            # the ones mid-flight finish (POSIX gives no safe
            # preemption), then every worker exits.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            pool.shutdown(wait=True)
    return results
