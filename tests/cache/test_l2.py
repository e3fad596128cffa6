"""Tests for the L2 cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.l2 import L2Cache
from repro.errors import ConfigurationError


def small_cache(**kwargs):
    defaults = dict(total_words=1024, associativity=2, line_words=8)
    defaults.update(kwargs)
    return L2Cache(**defaults)


class TestConstruction:
    def test_geometry(self):
        cache = small_cache()
        assert cache.num_sets == 64
        assert cache.line_words == 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            L2Cache(total_words=1000)
        with pytest.raises(ConfigurationError):
            L2Cache(line_words=10)
        with pytest.raises(ConfigurationError):
            L2Cache(associativity=0)
        with pytest.raises(ConfigurationError):
            L2Cache(total_words=64, associativity=3, line_words=8)


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        hit, writeback = cache.access(100)
        assert not hit and writeback is None
        hit, _ = cache.access(100)
        assert hit
        hit, _ = cache.access(103)  # same line
        assert hit
        assert cache.stats.misses == 1
        assert cache.stats.hits == 2

    def test_line_granularity(self):
        cache = small_cache()
        cache.access(0)
        assert cache.contains(7)
        assert not cache.contains(8)

    def test_lru_eviction(self):
        cache = small_cache(total_words=32, associativity=2, line_words=8)
        # 2 sets x 2 ways. Lines 0, 2, 4 all map to set 0.
        cache.access(0)
        cache.access(16)
        cache.access(0)  # touch line 0: line 16 becomes LRU
        cache.access(32)  # evicts line 16
        assert cache.contains(0)
        assert not cache.contains(16)
        assert cache.contains(32)

    def test_dirty_eviction_returns_writeback(self):
        cache = small_cache(total_words=32, associativity=2, line_words=8)
        cache.access(0, is_write=True)
        cache.access(16)
        _, writeback = cache.access(32)  # evicts dirty line 0
        assert writeback == 0
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = small_cache(total_words=32, associativity=2, line_words=8)
        cache.access(0)
        cache.access(16)
        _, writeback = cache.access(32)
        assert writeback is None


class TestPollutionAccounting:
    def test_unit_stride_full_utilization(self):
        cache = small_cache()
        for i in range(64):
            cache.access(i)
        assert cache.stats.utilization(cache.line_words) == 1.0

    def test_large_stride_poor_utilization(self):
        """Stride == line size: one useful word per fetched line —
        chapter 1's pollution argument."""
        cache = small_cache()
        for i in range(32):
            cache.access(i * 8)
        assert cache.stats.utilization(cache.line_words) == pytest.approx(
            1 / 8
        )

    @given(stride=st.integers(1, 16))
    @settings(max_examples=20, deadline=None)
    def test_utilization_tracks_inverse_stride(self, stride):
        cache = L2Cache(total_words=1 << 14, associativity=4, line_words=8)
        for i in range(200):
            cache.access(i * stride)
        utilization = cache.stats.utilization(cache.line_words)
        assert 0.0 < utilization <= 1.0
        if stride in (1, 2, 4, 8):
            # Power-of-two divisor strides: exactly line/stride useful
            # words per fetched line.
            assert utilization == pytest.approx(1 / stride)
        if stride > 8:
            # At most one word per line is useful.
            assert utilization == pytest.approx(1 / 8)

    def test_miss_rate(self):
        cache = small_cache()
        for i in range(16):
            cache.access(i)
        # One miss per 8-word line: 2 misses in 16 accesses.
        assert (cache.stats.misses, cache.stats.hits) == (2, 14)
