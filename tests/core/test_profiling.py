"""Memo caches and the profiling layer."""

import pytest

from repro.core import profiling
from repro.memo import MemoCache, all_cache_stats, registered_caches


@pytest.fixture
def cache():
    name = "test-cache-profiling"
    registered = registered_caches()
    if name in registered:
        registered[name].clear()
        return registered[name]
    return MemoCache(name, maxsize=3)


class TestMemoCache:
    def test_miss_then_hit(self, cache):
        calls = []
        for _ in range(3):
            value = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert value == 42
        assert calls == [1]
        assert cache.stats().hits == 2
        assert cache.stats().misses == 1

    def test_lru_eviction(self, cache):
        for key in "abcd":  # maxsize 3: "a" evicted
            cache.get_or_compute(key, lambda k=key: k.upper())
        assert "a" not in cache
        assert "d" in cache
        assert cache.stats().evictions == 1

    def test_hit_refreshes_recency(self, cache):
        for key in "abc":
            cache.get_or_compute(key, lambda k=key: k)
        cache.get_or_compute("a", lambda: "recomputed")  # hit, refresh
        cache.get_or_compute("d", lambda: "d")           # evicts "b"
        assert "a" in cache
        assert "b" not in cache

    def test_clear_resets(self, cache):
        cache.get_or_compute("x", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().lookups == 0

    def test_hit_rate(self, cache):
        assert cache.stats().hit_rate == 0.0
        cache.get_or_compute("x", lambda: 1)
        cache.get_or_compute("x", lambda: 1)
        assert cache.stats().hit_rate == 0.5

    def test_duplicate_name_rejected(self, cache):
        with pytest.raises(ValueError, match="duplicate"):
            MemoCache(cache.name)


class TestProfilingFrontDoor:
    def test_simulator_caches_registered(self):
        stats = profiling.cache_stats()
        assert "prefill_step_cost" in stats
        for name in ("op_graph", "decode_step_cost"):
            assert name not in stats

    def test_cache_report_mentions_every_cache(self):
        report = profiling.cache_report()
        for name in profiling.cache_stats():
            assert name in report
        assert "hit_rate" in report
        assert "hit_rate" in report

    def test_global_stats_match_cache_view(self, cache):
        cache.get_or_compute("y", lambda: 2)
        assert all_cache_stats()[cache.name] == cache.stats()
