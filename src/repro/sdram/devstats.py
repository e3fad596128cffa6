"""Device operation counters of a bank device, SDRAM or SRAM.

Lives in its own leaf module so that result types
(:mod:`repro.sim.stats`) can import it without pulling in the full device
model — which itself imports the command-log machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DeviceStats"]


@dataclass
class DeviceStats:
    """Operation counts for one device (summed across internal banks by
    the device's ``stats()`` method, and across devices by the system)."""

    activates: int = 0
    precharges: int = 0
    auto_precharges: int = 0
    reads: int = 0
    writes: int = 0
    turnarounds: int = 0

    @property
    def columns(self) -> int:
        return self.reads + self.writes

    @property
    def row_reuse(self) -> int:
        """Column accesses served without a fresh activate — the paper's
        row hits."""
        return max(0, self.columns - self.activates)
