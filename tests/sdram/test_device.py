"""Tests for the SDRAM device model (geometry, data pins, storage)."""

import pytest

from repro.errors import SchedulingError
from repro.params import SDRAMTiming
from repro.sdram.device import BankDevice

TIMING = SDRAMTiming(
    t_rcd=2, cas_latency=2, t_rp=2, t_wr=1, internal_banks=4, row_words=512
)


@pytest.fixture
def device():
    return BankDevice(TIMING, bus_turnaround=1)


class TestGeometry:
    def test_locate_first_row(self, device):
        loc = device.locate(0)
        assert (loc.internal_bank, loc.row, loc.column) == (0, 0, 0)
        loc = device.locate(511)
        assert (loc.internal_bank, loc.row, loc.column) == (0, 0, 511)

    def test_rows_rotate_internal_banks(self, device):
        """Consecutive rows of local address space land in different
        internal banks (activates can overlap with CAS traffic)."""
        assert device.locate(512).internal_bank == 1
        assert device.locate(1024).internal_bank == 2
        assert device.locate(1536).internal_bank == 3
        assert device.locate(2048).internal_bank == 0
        assert device.locate(2048).row == 1

    def test_columns_within_row(self, device):
        assert device.locate(512 + 37).column == 37


class TestTiming:
    def test_full_read_sequence(self, device):
        assert device.banks[device.locate(0).internal_bank].can_activate(0)
        device.activate(0, 0)
        assert not device.can_column(0, 1, is_write=False)
        assert device.can_column(0, 2, is_write=False)
        data_cycle, value = device.column(0, 2, is_write=False)
        assert data_cycle == 2 + TIMING.cas_latency
        assert value == 0  # untouched storage

    def test_one_column_per_cycle(self, device):
        device.activate(0, 0)
        device.column(0, 2, is_write=False)
        assert not device.can_column(1, 2, is_write=False)
        assert device.can_column(1, 3, is_write=False)

    def test_column_without_pins_raises(self, device):
        device.activate(0, 0)
        device.column(0, 2, is_write=False)
        with pytest.raises(SchedulingError):
            device.column(1, 2, is_write=False)

    def test_turnaround_on_direction_change(self, device):
        device.activate(0, 0)
        device.column(0, 2, is_write=False)
        # Read -> write: one turnaround cycle, so cycle 3 is blocked.
        assert not device.can_column(1, 3, is_write=True)
        assert device.can_column(1, 4, is_write=True)
        device.column(1, 4, is_write=True, value=42)
        assert device.stats().turnarounds == 1

    def test_pins_wait_out_the_turnaround(self, device):
        device.activate(0, 0)
        device.column(0, 2, is_write=False)
        assert device.data_pins_ready(3, is_write=False)
        assert not device.data_pins_ready(3, is_write=True)
        assert device.data_pins_ready(3 + device.bus_turnaround, is_write=True)

    def test_column_legal_from_the_column_release(self, device):
        """The scoreboard opens a CAS exactly at the column restimer's
        release, not a cycle before."""
        device.activate(0, 5)
        ready = device.banks[0]._column_timer.ready_at
        assert ready == 5 + TIMING.t_rcd
        assert not device.can_column(0, ready - 1, is_write=False)
        assert device.can_column(0, ready, is_write=False)

    def test_no_turnaround_same_direction(self, device):
        device.activate(0, 0)
        device.column(0, 2, is_write=False)
        device.column(1, 3, is_write=False)
        assert device.stats().turnarounds == 0

    def test_internal_banks_independent(self, device):
        device.activate(0, 0)  # internal bank 0
        device.activate(512, 1)  # internal bank 1 next cycle
        assert device.can_column(0, 2, is_write=False)
        assert device.can_column(512, 3, is_write=False)

    def test_conflicting_row_open(self, device):
        device.activate(0, 0)
        # word 2048 is internal bank 0, row 1; word 5 sits on row 0.
        conflict = device.locate(2048)
        hit = device.locate(5)
        assert conflict.internal_bank == hit.internal_bank == 0
        open_row = device.open_row(0)
        assert open_row is not None and open_row != conflict.row
        assert open_row == hit.row


class TestStorage:
    def test_read_before_turnaround_elapses_raises(self, device):
        device.activate(0, 0)
        device.column(3, 2, is_write=True, value=99)
        with pytest.raises(SchedulingError):
            device.column(3, 3, is_write=False)

    def test_write_then_read_with_turnaround(self, device):
        device.activate(0, 0)
        device.column(3, 2, is_write=True, value=99)
        _, value = device.column(3, 4, is_write=False)
        assert value == 99

    def test_write_requires_data(self, device):
        device.activate(0, 0)
        with pytest.raises(SchedulingError):
            device.column(3, 2, is_write=True, value=None)

    def test_columns_use_the_given_storage(self):
        """The device reads and writes the dict it was built over (the
        system's per-bank storage); a write's data cycle is its write
        recovery, ``t_wr`` after the column."""
        storage = {100: 7}
        device = BankDevice(TIMING, bus_turnaround=1, storage=storage)
        device.activate(0, 0)
        assert device.column(100, 2, is_write=False) == (4, 7)
        assert device.column(101, 3, is_write=False) == (5, 0)
        assert device.column(102, 5, is_write=True, value=9) == (6, None)
        assert storage == {100: 7, 102: 9}

    def test_stats_aggregation(self, device):
        device.activate(0, 0)
        device.column(0, 2, is_write=False)
        device.column(1, 3, is_write=False, auto_precharge=True)
        stats = device.stats()
        assert stats.activates == 1
        assert stats.reads == 2
        assert stats.auto_precharges == 1
        assert stats.row_reuse == 1
