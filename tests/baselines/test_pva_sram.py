"""Tests for the PVA-SRAM comparison system (section 6.1)."""

from dataclasses import replace

from repro.baselines.pva_sram import make_pva_sram
from repro.params import SDRAMTiming, SRAMTiming, SystemParams
from repro.pva.system import PVAMemorySystem
from repro.types import AccessType, Vector, VectorCommand


def cmd(base, stride, length=32):
    return VectorCommand(
        vector=Vector(base=base, stride=stride, length=length),
        access=AccessType.READ,
    )


class TestPVASRAM:
    def test_is_a_pva_system(self):
        system = make_pva_sram()
        assert isinstance(system, PVAMemorySystem)
        assert system.name == "pva-sram"
        assert system.memory == "sram"
        reference = make_pva_sram(SystemParams(sim_mode="reference"))
        assert not any(device.has_rows for device in reference.devices)

    def test_no_activates_ever(self):
        system = make_pva_sram()
        result = system.run([cmd(2048 * i, 19) for i in range(4)])
        assert result.device.activates == 0
        assert result.device.precharges == 0

    def test_never_slower_than_sdram(self):
        """SRAM removes RAS/CAS/precharge; with identical controllers the
        SRAM variant is a lower bound for the SDRAM one."""
        params = SystemParams()
        for stride in (1, 4, 16, 19):
            trace = [cmd(2048 * i, stride) for i in range(6)]
            sdram = PVAMemorySystem(params).run(trace).cycles
            sram = make_pva_sram(params).run(trace).cycles
            assert sram <= sdram

    def test_functional_equivalence(self):
        """Same gather results as the SDRAM system."""
        params = SystemParams()
        sram = make_pva_sram(params)
        sdram = PVAMemorySystem(params)
        v = Vector(base=3, stride=7, length=32)
        for a in v.addresses():
            sram.poke(a, a + 1)
            sdram.poke(a, a + 1)
        trace = [VectorCommand(vector=v, access=AccessType.READ)]
        assert (
            sram.run(trace, capture_data=True).read_lines
            == sdram.run(trace, capture_data=True).read_lines
        )

    def test_custom_access_latency(self):
        slow = make_pva_sram(SystemParams(sram=SRAMTiming(access_cycles=3)))
        fast = make_pva_sram()
        trace = [cmd(0, 16)]
        assert slow.run(trace).cycles >= fast.run(trace).cycles

    def test_sram_timing_field_times_both_backends(self):
        """``SystemParams.sram`` times the SRAM banks under either
        backend: a longer access makes a read-bound trace slower, and
        the two backends agree on every result field."""
        trace = [cmd(2048 * i, 16) for i in range(4)]
        cycles = []
        for sram in (SRAMTiming(), SRAMTiming(access_cycles=3)):
            reference, fast = (
                make_pva_sram(SystemParams(sim_mode=mode, sram=sram)).run(trace)
                for mode in ("reference", "fast")
            )
            assert fast == reference, sram
            cycles.append(fast.cycles)
        default, slow = cycles
        assert slow > default

    def test_sram_timing_times_writes_not_sdram_recovery(self):
        """Write data lands ``sram.access_cycles`` after the column on
        the SRAM banks under either backend; the SDRAM write recovery
        ``sdram.t_wr`` times nothing here."""
        trace = [
            VectorCommand(
                vector=Vector(base=2048 * i, stride=16, length=32),
                access=AccessType.WRITE,
            )
            for i in range(4)
        ]
        cases = (
            (SystemParams(), 147),
            (SystemParams(sdram=SDRAMTiming(t_wr=4)), 147),
            (SystemParams(sram=SRAMTiming(access_cycles=3)), 149),
            (SystemParams(sram=SRAMTiming(access_cycles=4)), 150),
        )
        for params, cycles in cases:
            reference, fast = (
                make_pva_sram(replace(params, sim_mode=mode)).run(trace)
                for mode in ("reference", "fast")
            )
            assert fast == reference, params
            assert fast.cycles == cycles, params
