"""Tests for run results and bus statistics."""

import pytest

from repro.sdram.devstats import DeviceStats
from repro.sim.stats import BusStats, RunResult


def make_result(cycles, commands=4, system="pva-sdram"):
    return RunResult(
        system=system,
        cycles=cycles,
        commands=commands,
        read_commands=commands // 2,
        write_commands=commands - commands // 2,
        elements_read=commands * 16,
        elements_written=commands * 16,
    )


class TestBusStats:
    def test_busy_cycles(self):
        bus = BusStats(request_cycles=4, data_cycles=32, turnaround_cycles=2)
        assert bus.busy_cycles == 38

    def test_utilization(self):
        bus = BusStats(request_cycles=10, data_cycles=40)
        assert bus.utilization(100) == pytest.approx(0.5)

    def test_utilization_zero_cycles(self):
        assert BusStats().utilization(0) == 0.0


class TestDeviceStats:
    def test_columns(self):
        stats = DeviceStats(reads=10, writes=5)
        assert stats.columns == 15

    def test_row_reuse(self):
        stats = DeviceStats(activates=4, reads=10, writes=2)
        assert stats.row_reuse == 8

    def test_row_reuse_never_negative(self):
        stats = DeviceStats(activates=10, reads=2)
        assert stats.row_reuse == 0


class TestRunResult:
    def test_cycles_per_command(self):
        assert make_result(180, commands=10).cycles_per_command == 18.0

    def test_cycles_per_command_empty(self):
        assert make_result(0, commands=0).cycles_per_command == 0.0

    def test_summary_fields(self):
        summary = make_result(100).summary()
        assert summary["system"] == "pva-sdram"
        assert summary["cycles"] == 100
        assert "bus_utilization" in summary
