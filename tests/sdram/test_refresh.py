"""Tests for SDRAM auto-refresh (section 2.2's leaky capacitors)."""

import pytest

from repro.kernels import build_trace, kernel_by_name
from repro.params import SDRAMTiming, SystemParams
from repro.pva.system import PVAMemorySystem
from repro.sdram.device import BankDevice
from repro.types import AccessType, Vector, VectorCommand


class TestDeviceRefresh:
    def test_disabled_by_default(self):
        device = BankDevice(SDRAMTiming())
        assert not device.maybe_refresh(10_000)
        assert device.refreshes == 0

    def test_refresh_fires_on_schedule(self):
        timing = SDRAMTiming(refresh_interval=100, t_rfc=8)
        device = BankDevice(timing)
        assert not device.maybe_refresh(50)
        assert device.maybe_refresh(100)
        assert device.refreshes == 1
        assert not device.maybe_refresh(101)
        assert device.maybe_refresh(205)  # next boundary was 200
        assert device.refreshes == 2

    def test_deadline_advances_one_interval_per_refresh(self):
        device = BankDevice(SDRAMTiming(refresh_interval=100))
        assert device.next_refresh_cycle == 100
        assert device.maybe_refresh(100)
        assert device.next_refresh_cycle == 200

    def test_refresh_closes_rows_and_blocks_activates(self):
        timing = SDRAMTiming(refresh_interval=100, t_rfc=8)
        device = BankDevice(timing)
        device.activate(0, 0)
        assert device.open_row(0) == 0
        assert device.maybe_refresh(100)
        assert device.open_row(0) is None
        bank = device.banks[device.locate(0).internal_bank]
        assert not bank.can_activate(105)
        assert bank.can_activate(108)

    def test_refresh_embeds_precharge(self):
        """A refreshed bank needs no extra t_rp before reopening."""
        timing = SDRAMTiming(refresh_interval=100, t_rfc=8, t_rp=2)
        device = BankDevice(timing)
        device.activate(0, 0)
        device.maybe_refresh(100)
        device.activate(0, 100 + timing.t_rfc)  # no TimingViolation


class TestSystemWithRefresh:
    def _params(self, interval):
        return SystemParams(
            sdram=SDRAMTiming(refresh_interval=interval, t_rfc=8)
        )

    def test_functional_correctness_preserved(self):
        params = self._params(50)
        system = PVAMemorySystem(params)
        v = Vector(base=3, stride=19, length=32)
        for a in v.addresses():
            system.poke(a, a + 9)
        trace = [VectorCommand(vector=v, access=AccessType.READ)] * 4
        result = system.run(trace, capture_data=True)
        for line in result.read_lines:
            assert line == tuple(a + 9 for a in v.addresses())

    def test_refresh_costs_cycles(self):
        trace = build_trace(
            kernel_by_name("scale"), stride=16, elements=256
        )
        without = PVAMemorySystem(self._params(0)).run(trace).cycles
        with_refresh = PVAMemorySystem(self._params(100)).run(trace).cycles
        assert with_refresh > without

    def test_realistic_interval_overhead_is_small(self):
        """At the realistic ~780-cycle period the refresh tax on a
        bus-bound workload stays under a few percent."""
        trace = build_trace(kernel_by_name("copy"), stride=1, elements=512)
        without = PVAMemorySystem(self._params(0)).run(trace).cycles
        with_refresh = PVAMemorySystem(self._params(780)).run(trace).cycles
        assert with_refresh >= without
        assert with_refresh <= without * 1.10
