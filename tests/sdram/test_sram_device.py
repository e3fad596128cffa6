"""Tests for the rowless bank device: the idealized SRAM of section 6.1,
built from an ``SRAMTiming``."""

import pytest

from repro.errors import SchedulingError
from repro.params import SRAMTiming
from repro.sdram.device import BankDevice


@pytest.fixture
def device():
    return BankDevice(SRAMTiming(access_cycles=1), bus_turnaround=1)


class TestSRAM:
    def test_no_row_state(self, device):
        assert not device.has_rows

    def test_single_cycle_access(self, device):
        assert device.can_column(0, 0, is_write=False)
        data_cycle, value = device.column(0, 0, is_write=False)
        assert data_cycle == 1
        assert value == 0

    def test_one_access_per_cycle(self, device):
        device.column(0, 0, is_write=False)
        assert not device.can_column(1, 0, is_write=False)
        assert device.can_column(1, 1, is_write=False)

    def test_turnaround_still_applies(self, device):
        """The SRAM comparison keeps the data-pin physics so the PVA
        SDRAM/SRAM gap isolates DRAM overheads only."""
        device.column(0, 0, is_write=False)
        assert not device.can_column(1, 1, is_write=True)
        assert device.can_column(1, 2, is_write=True)

    def test_storage(self, device):
        device.column(7, 0, is_write=True, value=11)
        device.storage[8] = 22
        assert device.storage == {7: 11, 8: 22}
        _, value = device.column(7, 3, is_write=True, value=12)
        assert device.storage[7] == 12

    def test_write_data_lands_after_the_access_time(self):
        device = BankDevice(SRAMTiming(access_cycles=3), bus_turnaround=1)
        assert device.column(7, 0, is_write=True, value=11) == (3, None)

    def test_write_requires_data(self, device):
        with pytest.raises(SchedulingError):
            device.column(0, 0, is_write=True)

    def test_pins_busy_raises(self, device):
        device.column(0, 0, is_write=False)
        with pytest.raises(SchedulingError):
            device.column(1, 0, is_write=False)

    def test_stats(self, device):
        device.column(0, 0, is_write=False)
        device.column(1, 2, is_write=True, value=1)
        stats = device.stats()
        assert stats.reads == 1
        assert stats.writes == 1
        assert stats.activates == 0
        assert stats.turnarounds == 1
