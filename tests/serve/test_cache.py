"""Unit tests for the serve cache: a tier-0 LRU over the result store."""

import json

from repro.lab.codec import result_to_payload
from repro.lab.store import ResultStore
from repro.pipeline.result import SimulationResult, cycle_column
from repro.serve.cache import TieredCache, json_sizeof
from repro.util.lru import LRUCache

KEY_A = "a" * 64
KEY_B = "b" * 64


def _simulation_payload(n):
    column = list(range(10_000, 10_000 + n))
    return result_to_payload(SimulationResult(
        instructions=n,
        cycles=10_000 + n,
        dispatch_cycle=cycle_column(column),
        issue_cycle=cycle_column(column),
        complete_cycle=cycle_column(column),
        commit_cycle=cycle_column(column),
    ))


def test_json_sizeof_counts_columns_by_their_bytes():
    payload = _simulation_payload(100)
    rest = {
        name: None if name.endswith("_cycle") else value
        for name, value in payload.items()
    }
    expected = len(json.dumps(rest, separators=(",", ":"))) + 4 * 100 * 8
    assert json_sizeof(payload) == expected


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

    def test_admit_cap_refuses_the_larger_simulation(self, tmp_path):
        cache, _ = self._cache(tmp_path)
        small, large = _simulation_payload(100), _simulation_payload(200)
        cache.tier0_admit_bytes = json_sizeof(small)
        assert json_sizeof(large) > cache.tier0_admit_bytes
        cache.admit(KEY_A, small)
        cache.admit(KEY_B, large)
        assert cache.lookup(KEY_A) == (small, "tier0")
        assert cache.lookup(KEY_B) == (None, None)

    def test_stats_shape(self, tmp_path):
        cache, _ = self._cache(tmp_path)
        cache.admit(KEY_A, {"x": 1})
        cache.lookup(KEY_A)
        stats = cache.stats()
        assert set(stats) == {"tier0", "store"}
        assert stats["tier0"]["hits"] == 1
