"""Unit tests for the caching runner."""

import pytest

import repro.harness.runner as runner
from repro.harness.runner import (
    DEFAULT_SEED,
    baseline_config,
    build_workload_trace,
    cache_stats,
    clear_caches,
    simulate_workload,
    workload_trace,
)
from repro.lab.store import ResultStore
from repro.util.lru import LRUCache
from tests.trace.records import records_of


class TestBuildWorkloadTrace:
    def test_trace_has_requested_length(self):
        assert len(build_workload_trace("mcf", length=500)) == 500
        with pytest.raises(ValueError):
            build_workload_trace("nosuch", length=500)

    def test_deterministic_per_name(self):
        a = build_workload_trace("gcc", length=300)
        b = build_workload_trace("gcc", length=300)
        assert records_of(a) == records_of(b)

    def test_names_get_distinct_streams(self):
        a = build_workload_trace("gzip", length=300)
        b = build_workload_trace("bzip2", length=300)
        assert records_of(a) != records_of(b)

    def test_seed_changes_stream(self):
        a = build_workload_trace("vpr", length=300, seed=DEFAULT_SEED)
        b = build_workload_trace("vpr", length=300, seed=DEFAULT_SEED + 1)
        assert records_of(a) != records_of(b)


class TestCaching:
    def setup_method(self):
        clear_caches()

    def teardown_method(self):
        clear_caches()

    def test_trace_cached_by_identity(self):
        a = workload_trace("gzip", length=500)
        b = workload_trace("gzip", length=500)
        assert a is b

    def test_trace_distinct_per_length(self):
        a = workload_trace("gzip", length=500)
        b = workload_trace("gzip", length=600)
        assert a is not b

    def test_simulation_cached(self):
        a = simulate_workload("gzip", length=500)
        b = simulate_workload("gzip", length=500)
        assert a is b

    def test_config_key_distinguishes_configs(self):
        base = simulate_workload("gzip", length=500)
        deep = simulate_workload(
            "gzip",
            config=baseline_config().with_overrides(frontend_depth=20),
            length=500,
        )
        assert base is not deep
        assert deep.cycles > base.cycles

    def test_clear_caches(self):
        a = simulate_workload("gzip", length=500)
        clear_caches()
        b = simulate_workload("gzip", length=500)
        assert a is not b
        assert a.cycles == b.cycles  # deterministic regeneration


class TestBoundedCaches:
    def test_trace_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(runner, "_trace_cache", LRUCache(2))
        for length in (300, 400, 500):
            workload_trace("gzip", length=length)
        stats = cache_stats()["trace"]
        assert stats["capacity"] == 2
        assert stats["size"] == 2
        assert stats["evictions"] == 1

    def test_sim_cache_is_bounded(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setattr(runner, "_sim_cache", LRUCache(2))
        for length in (300, 400, 500):
            simulate_workload("gzip", length=length)
        stats = cache_stats()["sim"]
        assert stats["size"] == 2
        assert stats["evictions"] == 1

    def test_stats_count_hits_and_misses(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setattr(runner, "_sim_cache", LRUCache(4))
        simulate_workload("gzip", length=300)
        simulate_workload("gzip", length=300)
        stats = cache_stats()["sim"]
        assert stats["hits"] == 1
        assert stats["misses"] == 1


class TestPersistentBacking:
    def test_store_survives_in_memory_clear(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_caches()
        a = simulate_workload("gzip", length=400)
        clear_caches()
        b = simulate_workload("gzip", length=400)
        store = ResultStore(root=tmp_path)
        assert store.count() == 1  # second call was a store hit, not a put
        assert a is not b
        assert a.cycles == b.cycles
        assert a.events == b.events

    def test_no_cache_env_skips_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        clear_caches()
        simulate_workload("gzip", length=400)
        assert ResultStore(root=tmp_path).count() == 0

    def test_distinct_configs_get_distinct_objects(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_caches()
        simulate_workload("gzip", length=400)
        simulate_workload(
            "gzip",
            config=baseline_config().with_overrides(rob_size=64),
            length=400,
        )
        assert ResultStore(root=tmp_path).count() == 2
