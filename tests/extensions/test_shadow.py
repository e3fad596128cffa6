"""Tests for Impulse-style shadow address spaces (section 3.2)."""

import pytest

from repro.errors import AddressError, ConfigurationError
from repro.extensions.shadow import ShadowRegion, ShadowSpace
from repro.params import SystemParams
from repro.pva.system import PVAMemorySystem
from repro.types import AccessType

PROTO = SystemParams()


class TestShadowRegion:
    def test_translate(self):
        region = ShadowRegion(
            shadow_base=1000, target_base=0, stride=7, length=64
        )
        assert region.translate(1000) == 0
        assert region.translate(1003) == 21

    def test_out_of_region(self):
        region = ShadowRegion(
            shadow_base=1000, target_base=0, stride=7, length=64
        )
        with pytest.raises(AddressError):
            region.translate(999)
        with pytest.raises(AddressError):
            region.translate(1064)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShadowRegion(shadow_base=0, target_base=0, stride=0, length=4)
        with pytest.raises(ConfigurationError):
            ShadowRegion(shadow_base=0, target_base=0, stride=1, length=0)

    def test_line_fill_command(self):
        region = ShadowRegion(
            shadow_base=0, target_base=500, stride=19, length=64
        )
        command = region.line_fill_command(32, PROTO)
        assert command.vector.base == 500 + 32 * 19
        assert command.vector.stride == 19
        assert command.vector.length == 32

    def test_partial_last_line(self):
        region = ShadowRegion(
            shadow_base=0, target_base=0, stride=3, length=40
        )
        command = region.line_fill_command(32, PROTO)
        assert command.vector.length == 8  # only 40 - 32 words mapped

    def test_unaligned_line_rejected(self):
        region = ShadowRegion(shadow_base=0, target_base=0, stride=3, length=64)
        with pytest.raises(AddressError):
            region.line_fill_command(5, PROTO)


class TestShadowSpace:
    def test_overlap_rejected(self):
        space = ShadowSpace()
        space.configure(
            ShadowRegion(shadow_base=0, target_base=0, stride=2, length=64)
        )
        with pytest.raises(ConfigurationError):
            space.configure(
                ShadowRegion(
                    shadow_base=32, target_base=4096, stride=1, length=64
                )
            )

    def test_physical_aliasing_allowed(self):
        """Two shadow views of the same physical data are the point."""
        space = ShadowSpace()
        space.configure(
            ShadowRegion(shadow_base=0, target_base=0, stride=2, length=64)
        )
        space.configure(
            ShadowRegion(shadow_base=64, target_base=1, stride=2, length=64)
        )
        assert space.region_of(0).target_base == 0
        assert space.region_of(64).target_base == 1

    def test_unmapped_address(self):
        with pytest.raises(AddressError):
            ShadowSpace().region_of(0)

    def test_dense_shadow_read_gathers_strided_data(self):
        """The end-to-end story: the processor reads the shadow region
        with ordinary line fills; the PVA gathers the strided physical
        data; the result is the dense strided view."""
        stride = 19
        space = ShadowSpace()
        space.configure(
            ShadowRegion(
                shadow_base=0, target_base=100, stride=stride, length=128
            )
        )
        system = PVAMemorySystem(PROTO)
        for i in range(128):
            system.poke(100 + i * stride, 40_000 + i)
        commands = space.fill_commands(0, 128, PROTO)
        assert len(commands) == 4  # 128 shadow words / 32-word lines
        result = system.run(commands, capture_data=True)
        dense = [v for line in result.read_lines for v in line]
        assert dense == [40_000 + i for i in range(128)]

    def test_shadow_write_scatters(self):
        space = ShadowSpace()
        space.configure(
            ShadowRegion(shadow_base=0, target_base=0, stride=5, length=32)
        )
        system = PVAMemorySystem(PROTO)
        commands = space.fill_commands(
            0, 32, PROTO, access=AccessType.WRITE
        )
        system.run(commands)
        # Placeholder write pattern is index order.
        assert [system.peek(i * 5) for i in range(32)] == list(range(32))
