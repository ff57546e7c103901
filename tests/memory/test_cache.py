"""Unit tests for the set-associative cache."""

import pytest

from repro.memory.cache import Cache


def small_cache(**kwargs):
    defaults = dict(size_bytes=1024, ways=2, line_bytes=64, name="test")
    defaults.update(kwargs)
    return Cache(**defaults)


class TestGeometry:
    def test_set_count(self):
        cache = small_cache()
        assert cache.sets == 1024 // (2 * 64)

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError):
            Cache(size_bytes=1000, ways=2, line_bytes=64)

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ValueError):
            Cache(size_bytes=1024, ways=2, line_bytes=48)

    def test_compose_decompose_round_trip(self):
        cache = small_cache()
        for address in (0x0, 0x40, 0x1000, 0xABC0):
            set_index, tag = cache._decompose(address)
            line_address = cache._compose(set_index, tag)
            assert line_address == address - address % 64


class TestAccessBehaviour:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert not cache.access(0x100).hit
        assert cache.access(0x100).hit

    def test_same_line_hits(self):
        cache = small_cache()
        cache.access(0x100)
        assert cache.access(0x13F).hit  # same 64B line
        assert not cache.access(0x140).hit  # next line

    def test_stats_consistency(self):
        cache = small_cache()
        for address in (0, 64, 0, 128, 0, 64):
            cache.access(address)
        stats = cache.stats
        assert stats.accesses == 6
        assert stats.hits + stats.misses == stats.accesses
        assert stats.miss_rate == pytest.approx(stats.misses / 6)
        assert stats.hit_rate == pytest.approx(1 - stats.miss_rate)

    def test_lru_eviction_order(self):
        # one set, two ways: A, B fill; touch A; C evicts B.
        cache = Cache(size_bytes=128, ways=2, line_bytes=64)
        assert cache.sets == 1
        cache.access(0x000)  # A
        cache.access(0x040)  # B
        cache.access(0x000)  # touch A
        result = cache.access(0x080)  # C evicts B
        assert result.evicted_address == 0x040
        assert cache.access(0x000).hit
        assert not cache.access(0x040).hit

    def test_working_set_within_capacity_all_hits(self):
        cache = small_cache()
        lines = [i * 64 for i in range(cache.sets * cache.ways)]
        for address in lines:
            cache.access(address)
        for address in lines:
            assert cache.access(address).hit

    def test_occupancy_bounded(self):
        cache = small_cache()
        for i in range(1000):
            cache.access(i * 64)
        assert cache.occupancy <= cache.sets * cache.ways


class TestWriteBack:
    def test_dirty_eviction_reports_writeback(self):
        cache = Cache(size_bytes=128, ways=2, line_bytes=64)
        cache.access(0x000, is_write=True)
        cache.access(0x040)
        result = cache.access(0x080)  # evicts dirty 0x000
        assert result.writeback
        assert result.evicted_address == 0x000
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = Cache(size_bytes=128, ways=2, line_bytes=64)
        cache.access(0x000)
        cache.access(0x040)
        assert not cache.access(0x080).writeback

    def test_write_hit_marks_dirty(self):
        cache = Cache(size_bytes=128, ways=2, line_bytes=64)
        cache.access(0x000)  # clean fill
        cache.access(0x000, is_write=True)  # dirty it
        cache.access(0x040)
        assert cache.access(0x080).writeback


class TestMaintenance:
    def test_flush_empties_cache(self):
        cache = small_cache()
        for i in range(8):
            cache.access(i * 64)
        cache.flush()
        assert cache.occupancy == 0
        assert not cache.access(0).hit

    def test_lookup_has_no_side_effects(self):
        cache = small_cache()
        cache.access(0x100)
        before = cache.stats.accesses
        assert cache.lookup(0x100)
        assert not cache.lookup(0x999000)
        assert cache.stats.accesses == before

    def test_resident_lines_match_contents(self):
        cache = small_cache()
        addresses = [0x0, 0x40, 0x1000]
        for address in addresses:
            cache.access(address)
        resident = set(cache.resident_lines())
        for address in addresses:
            assert address - address % 64 in resident


class TestPolicies:
    def test_fifo_policy_behaviour(self):
        cache = Cache(size_bytes=128, ways=2, line_bytes=64, policy="fifo")
        cache.access(0x000)
        cache.access(0x040)
        cache.access(0x000)  # hit; FIFO ignores
        result = cache.access(0x080)
        assert result.evicted_address == 0x000  # oldest fill, despite reuse

    def test_random_policy_deterministic(self):
        a = Cache(size_bytes=128, ways=2, line_bytes=64, policy="random", seed=7)
        b = Cache(size_bytes=128, ways=2, line_bytes=64, policy="random", seed=7)
        sequence = [i * 64 for i in range(50)]
        evictions_a = [a.access(addr).evicted_address for addr in sequence]
        evictions_b = [b.access(addr).evicted_address for addr in sequence]
        assert evictions_a == evictions_b
