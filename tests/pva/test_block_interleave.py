"""Block-interleave coverage: the middle ground between word and
cache-line interleave (N-word blocks, N smaller than a line) through the
live §4.1.3 machinery."""

import pytest

from repro.interleave.schemes import InterleaveScheme
from repro.params import SDRAMTiming, SystemParams
from repro.pva.system import PVAMemorySystem
from repro.types import AccessType, Vector, VectorCommand

SMALL = SystemParams(
    num_banks=4, cache_line_words=8, sdram=SDRAMTiming(row_words=64)
)


def block_system(block_words):
    scheme = InterleaveScheme(num_banks=4, block_words=block_words)
    return PVAMemorySystem(
        SMALL, interleave=scheme, name=f"pva-block{block_words}"
    )


class TestBlockInterleave:
    @pytest.mark.parametrize("block_words", [2, 4])
    @pytest.mark.parametrize("stride", [1, 3, 4, 7, 8])
    def test_functional_gather(self, block_words, stride):
        system = block_system(block_words)
        v = Vector(base=6, stride=stride, length=8)
        for a in v.addresses():
            system.poke(a, a + 11)
        result = system.run(
            [VectorCommand(vector=v, access=AccessType.READ)],
            capture_data=True,
        )
        assert result.read_lines[0] == tuple(a + 11 for a in v.addresses())

    @pytest.mark.parametrize("block_words", [2, 4])
    def test_poke_peek_consistent_with_scheme(self, block_words):
        system = block_system(block_words)
        scheme = system.interleave
        for address in range(0, 200, 7):
            system.poke(address, address * 2)
            bank = scheme.bank_of(address)
            local = scheme.local_word(address)
            assert system.storage[bank][local] == address * 2
            assert system.peek(address) == address * 2

    def test_element_partition_across_banks(self):
        """Under block interleave the banks' element counts still sum to
        the vector length (the protocol check inside _broadcast)."""
        system = block_system(4)
        v = Vector(base=3, stride=5, length=8)
        result = system.run(
            [VectorCommand(vector=v, access=AccessType.READ)]
        )
        assert result.device.reads == 8

    def test_block_interleave_spreads_midsize_strides(self):
        """Stride = num_banks words: fatal for word interleave (one
        bank), harmless for 4-word blocks (rotates banks every block)."""
        v = Vector(base=0, stride=4, length=8)
        trace = [VectorCommand(vector=v, access=AccessType.READ)]
        word = PVAMemorySystem(SMALL).run(trace).cycles
        block = block_system(4).run(trace).cycles
        assert block <= word
