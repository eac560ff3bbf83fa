"""The shared artifact store: one cell computed anywhere, warm everywhere.

This promotes the content-addressed result cache
(:class:`repro.parallel.cache.ResultCache`) to a *publish/fetch*
interface that distributed campaigns write into.  The key recipe is the
cache's own (function + canonical params + seed + code fingerprint), so
artifacts published by a fleet are indistinguishable from entries a
local ``run_cells`` wrote — a campaign run on a worker fleet leaves the
same warm cache behind as a serial run, and vice versa.

The store lives on the coordinator's side of the wire, and a campaign
only writes to it: the coordinator publishes on ack (see
:mod:`repro.dist.coordinator`), the lookup is ``run_cells``' own, once
per cell before anything is queued, and workers never touch it.
``fetch`` is the read side for everyone else (the perf ledger times
it).

Two implementations, one protocol (``key_for`` / ``fetch`` /
``publish``):

* :class:`ArtifactStore` — the real thing, over a ``ResultCache``
  directory.  Corrupt or torn entries read as misses (the cache already
  guarantees atomic writes), so a crashed worker can never poison the
  store;
* :class:`MemoryArtifactStore` — a dict, for coordinators running
  without a cache directory (artifacts then live for one campaign).
"""

from __future__ import annotations

import pickle
import threading
from typing import Any

from ..parallel.cache import ResultCache
from ..parallel.executor import CellSpec


class ArtifactStore:
    """Publish/fetch over the content-addressed result cache.

    Counters distinguish *warm serves* (``fetch`` hits — some other
    worker, or an earlier campaign, already computed the cell) from
    *publishes* (this worker contributed a new artifact).
    """

    def __init__(self, cache: ResultCache) -> None:
        self.cache = cache
        self.fetched = 0
        self.published = 0

    def key_for(self, spec: CellSpec) -> str:
        """The artifact key addressing ``spec``'s result."""
        return self.cache.key_for(spec.fn, spec.args, spec.kwargs)

    def fetch(self, key: str) -> tuple[bool, Any]:
        """``(True, value)`` if some worker already published ``key``."""
        hit, value = self.cache.get(key)
        if hit:
            self.fetched += 1
        return hit, value

    def publish(self, key: str, value: Any) -> None:
        """Make ``value`` visible to every other worker, atomically."""
        self.cache.put(key, value)
        self.published += 1

    def stats(self) -> dict[str, int]:
        return {"fetched": self.fetched, "published": self.published}


class MemoryArtifactStore:
    """A store with no disk behind it (coordinator without a cache).

    Artifacts survive for the coordinator's lifetime only — enough for
    workers to share results within one campaign, nothing warm across
    campaigns.
    """

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self.fetched = 0
        self.published = 0

    def key_for(self, spec: CellSpec) -> str:
        # No cache, no fingerprint discipline to honor: any stable,
        # unique-per-cell name works for intra-campaign sharing.
        return f"mem/{spec.key}"

    def fetch(self, key: str) -> tuple[bool, Any]:
        with self._lock:
            blob = self._blobs.get(key)
            if blob is not None:
                self.fetched += 1
        if blob is None:
            return False, None
        return True, pickle.loads(blob)

    def publish(self, key: str, value: Any) -> None:
        # Pickled like the disk store: every fetch is a private copy.
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._blobs[key] = blob
            self.published += 1

    def stats(self) -> dict[str, int]:
        return {"fetched": self.fetched, "published": self.published}
