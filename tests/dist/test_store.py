"""The shared artifact store: cache-backed and in-memory.  (How the
coordinator uses it on its workers' behalf is in test_coordinator.)"""

from repro.dist.store import ArtifactStore, MemoryArtifactStore
from repro.parallel.cache import ResultCache
from repro.parallel.executor import CellSpec


def square(x):
    return x * x


class TestArtifactStore:
    def test_publish_then_fetch(self, tmp_path):
        store = ArtifactStore(ResultCache(str(tmp_path)))
        spec = CellSpec(key="t/sq/3", fn=square, args=(3,))
        key = store.key_for(spec)
        assert store.fetch(key) == (False, None)
        store.publish(key, 9)
        assert store.fetch(key) == (True, 9)
        assert store.stats() == {"fetched": 1, "published": 1}

    def test_keys_match_the_result_cache(self, tmp_path):
        """A worker's publish is a later run_cells' warm hit."""
        cache = ResultCache(str(tmp_path))
        store = ArtifactStore(cache)
        spec = CellSpec(key="t/sq/4", fn=square, args=(4,))
        store.publish(store.key_for(spec), 16)
        hit, value = cache.get(cache.key_for(square, (4,), {}))
        assert (hit, value) == (True, 16)


class TestMemoryArtifactStore:
    def test_publish_then_fetch(self):
        store = MemoryArtifactStore()
        store.publish("k", [1, 2])
        assert store.fetch("k") == (True, [1, 2])
        assert store.fetch("other") == (False, None)
        assert store.stats() == {"fetched": 1, "published": 1}

    def test_fetch_is_a_private_copy(self):
        store = MemoryArtifactStore()
        value = [1, 2]
        store.publish("k", value)
        value.append(3)
        _, first = store.fetch("k")
        first.append(4)
        assert store.fetch("k") == (True, [1, 2])
