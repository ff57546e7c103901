"""Unit tests for the serve cache: a tier-0 LRU over the result store."""

from repro.lab.store import ResultStore
from repro.serve.cache import TieredCache, json_sizeof
from repro.util.lru import LRUCache

KEY_A = "a" * 64
KEY_B = "b" * 64


class TestTieredCache:
    def _cache(self, tmp_path, items=8):
        store = ResultStore(root=tmp_path / "cache")
        return TieredCache(
            store, LRUCache(items, max_bytes=1 << 20, sizeof=json_sizeof)
        ), store

    def test_miss_everywhere(self, tmp_path):
        cache, _ = self._cache(tmp_path)
        assert cache.lookup(KEY_A) == (None, None)

    def test_admit_fills_tier0_only(self, tmp_path):
        cache, store = self._cache(tmp_path)
        cache.admit(KEY_A, {"x": 1})
        assert cache.lookup(KEY_A) == ({"x": 1}, "tier0")
        # Persisting is the pool worker's job, never the cache's.
        assert store.count() == 0
        assert store.stats.puts == 0

    def test_store_tier_hit_promotes_to_tier0(self, tmp_path):
        cache, store = self._cache(tmp_path)
        store.put(KEY_A, {"x": 2})  # only on disk, not in tier0
        payload, tier = cache.lookup(KEY_A)
        assert (payload, tier) == ({"x": 2}, "store")
        payload, tier = cache.lookup(KEY_A)
        assert tier == "tier0"  # promoted

    def test_lost_store_object_is_a_miss(self, tmp_path):
        cache, store = self._cache(tmp_path)
        store.put(KEY_A, {"x": 3})
        store.gc(clear=True)
        assert cache.lookup(KEY_A) == (None, None)

    def test_tier0_eviction_falls_back_to_disk(self, tmp_path):
        cache, store = self._cache(tmp_path, items=1)
        store.put(KEY_A, {"x": 1})
        cache.admit(KEY_A, {"x": 1})
        cache.admit(KEY_B, {"x": 2})  # evicts KEY_A from tier0
        payload, tier = cache.lookup(KEY_A)
        assert payload == {"x": 1}
        assert tier == "store"

    def test_stats_shape(self, tmp_path):
        cache, _ = self._cache(tmp_path)
        cache.admit(KEY_A, {"x": 1})
        cache.lookup(KEY_A)
        stats = cache.stats()
        assert set(stats) == {"tier0", "store"}
        assert stats["tier0"]["hits"] == 1
