"""Tests for the cache front end: scalar streams -> line-grain commands,
and the end-to-end motivation experiment (cached scalar loop vs PVA
gathered loop)."""

import pytest

from repro.baselines.cacheline_serial import CacheLineSerialSDRAM
from repro.cache.frontend import CacheFrontEnd, ScalarAccess
from repro.cache.l2 import L2Cache
from repro.params import SystemParams
from repro.pva.system import PVAMemorySystem
from repro.types import AccessType, Vector, VectorCommand

PROTO = SystemParams()


class TestFeed:
    def test_unit_stride_loop_fills_once_per_line(self):
        frontend = CacheFrontEnd(PROTO)
        accesses = CacheFrontEnd.strided_loop(base=0, stride=1, length=128)
        commands = frontend.feed(accesses)
        assert len(commands) == 4  # 128 words / 32-word lines
        assert all(c.access is AccessType.READ for c in commands)
        assert all(c.vector.stride == 1 for c in commands)

    def test_strided_loop_fills_per_stride(self):
        frontend = CacheFrontEnd(PROTO)
        accesses = CacheFrontEnd.strided_loop(base=0, stride=16, length=64)
        commands = frontend.feed(accesses)
        # Two elements per 32-word line -> one fill per 2 accesses.
        assert len(commands) == 32

    def test_write_allocate(self):
        frontend = CacheFrontEnd(PROTO)
        accesses = CacheFrontEnd.strided_loop(
            base=0, stride=1, length=32, is_write=True
        )
        commands = frontend.feed(accesses)
        assert len(commands) == 1  # the allocate fill
        assert commands[0].access is AccessType.READ

    def test_eviction_emits_writeback_before_fill(self):
        cache = L2Cache(total_words=64, associativity=1, line_words=32)
        frontend = CacheFrontEnd(PROTO, cache=cache)
        # Write line 0, then touch a conflicting line (2 sets: lines 0 and
        # 2 share set 0).
        frontend.feed([ScalarAccess(0, is_write=True)])
        commands = frontend.feed([ScalarAccess(128)])
        assert [c.access for c in commands] == [
            AccessType.WRITE,
            AccessType.READ,
        ]
        assert commands[0].vector.base == 0

    def test_traffic_words(self):
        frontend = CacheFrontEnd(PROTO)
        commands = frontend.feed(
            CacheFrontEnd.strided_loop(base=0, stride=8, length=32)
        )
        assert frontend.traffic_words(commands) == len(commands) * 32


class TestMotivationExperiment:
    """Chapter 1, quantified: the same strided loop through a cache
    versus through the PVA's scatter/gather."""

    @pytest.mark.parametrize("stride", [4, 16, 19])
    def test_pva_moves_fewer_words(self, stride):
        length = 512
        frontend = CacheFrontEnd(PROTO)
        cached_commands = frontend.feed(
            CacheFrontEnd.strided_loop(base=0, stride=stride, length=length)
        )
        cached_traffic = frontend.traffic_words(cached_commands)
        # The PVA path: gathered commands carry only useful elements.
        vector = Vector(base=0, stride=stride, length=length)
        pva_traffic = sum(
            piece.length
            for piece in vector.split(PROTO.cache_line_words)
        )
        assert pva_traffic == length
        assert cached_traffic > 2 * pva_traffic

    @pytest.mark.parametrize("stride", [16, 19])
    def test_pva_faster_end_to_end(self, stride):
        """Run both command streams on their memory systems: cached
        scalar loop on the line-fill system, gathered loop on the PVA."""
        length = 512
        frontend = CacheFrontEnd(PROTO)
        cached_commands = frontend.feed(
            CacheFrontEnd.strided_loop(base=0, stride=stride, length=length)
        )
        conventional = CacheLineSerialSDRAM(PROTO).run(cached_commands)
        vector = Vector(base=0, stride=stride, length=length)
        gathered = [
            VectorCommand(vector=piece, access=AccessType.READ)
            for piece in vector.split(PROTO.cache_line_words)
        ]
        pva = PVAMemorySystem(PROTO).run(gathered)
        assert pva.cycles < conventional.cycles

    def test_cache_utilization_collapses_with_stride(self):
        """The pollution metric: ~100% at unit stride, ~1/32 at stride 32."""
        unit = CacheFrontEnd(PROTO)
        unit.feed(CacheFrontEnd.strided_loop(0, 1, 1024))
        strided = CacheFrontEnd(PROTO)
        strided.feed(CacheFrontEnd.strided_loop(0, 32, 1024))
        line = PROTO.cache_line_words
        assert unit.cache.stats.utilization(line) == 1.0
        assert strided.cache.stats.utilization(line) == pytest.approx(
            1 / 32
        )
