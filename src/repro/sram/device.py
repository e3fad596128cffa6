"""Idealized SRAM bank module (section 6.1).

"Based on static RAM, this system incurs no precharge or RAS latencies:
all memory accesses take a single cycle."  The device exposes the same
scoreboard interface as :class:`~repro.sdram.device.SDRAMDevice` so the PVA
bank controllers drive either interchangeably; row-management queries
report "always open" and the only structural constraint left is the shared
data pins (one access per cycle, with turnaround on direction reversal so
the comparison isolates DRAM-specific overheads, not bus physics).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import SchedulingError
from repro.params import SRAMTiming
from repro.sdram.devstats import DeviceStats
from repro.sdram.device import Location

__all__ = ["SRAMDevice"]


class SRAMDevice:
    """A uniform-access memory bank with SDRAM-compatible scoreboarding."""

    __slots__ = (
        "timing",
        "bus_turnaround",
        "_last_column_cycle",
        "_last_was_write",
        "_storage",
        "reads",
        "writes",
        "turnarounds",
        "log",
        "_loc_cache",
    )

    has_rows = False

    def __init__(self, timing: Optional[SRAMTiming] = None, bus_turnaround: int = 1):
        self.timing = timing or SRAMTiming()
        self.bus_turnaround = bus_turnaround
        self._last_column_cycle = -10
        self._last_was_write: Optional[bool] = None
        self._storage = {}
        self.reads = 0
        self.writes = 0
        self.turnarounds = 0
        #: Optional command recorder (see repro.sim.trace_log).
        self.log = None
        #: locate() memo (the mapping is pure; see SDRAMDevice.locate).
        self._loc_cache = {}

    @property
    def last_was_write(self) -> Optional[bool]:
        """Direction of the most recent data transfer on the pins."""
        return self._last_was_write

    @property
    def schedule_geometry(self):
        """Hit-table geometry descriptor (see
        :mod:`repro.pva.schedule`): one flat always-open row."""
        return ("flat",)

    # --- geometry: a single flat "row" ------------------------------- #

    def locate(self, local_word: int) -> Location:
        loc = self._loc_cache.get(local_word)
        if loc is None:
            loc = Location(internal_bank=0, row=0, column=local_word)
            self._loc_cache[local_word] = loc
        return loc

    def open_row(self, internal_bank: int) -> Optional[int]:
        return 0

    # --- scoreboard --------------------------------------------------- #

    def data_pins_ready(self, cycle: int, is_write: bool) -> bool:
        if cycle <= self._last_column_cycle:
            return False
        if self._last_was_write is not None and self._last_was_write != is_write:
            return cycle >= self._last_column_cycle + 1 + self.bus_turnaround
        return True

    def can_column(self, local_word: int, cycle: int, is_write: bool) -> bool:
        return self.data_pins_ready(cycle, is_write)

    def can_activate(self, local_word: int, cycle: int) -> bool:
        return False  # nothing to activate

    def can_precharge(self, internal_bank: int, cycle: int) -> bool:
        return False  # nothing to precharge

    def row_is_open_for(self, local_word: int) -> bool:
        return True

    def conflicting_row_open(self, local_word: int) -> bool:
        return False

    # --- commands ------------------------------------------------------ #

    def column(
        self,
        local_word: int,
        cycle: int,
        is_write: bool,
        auto_precharge: bool = False,
        value: Optional[int] = None,
    ) -> Tuple[int, Optional[int]]:
        if not self.data_pins_ready(cycle, is_write):
            raise SchedulingError(
                f"SRAM data pins busy at cycle {cycle} "
                f"(last access at {self._last_column_cycle})"
            )
        if (
            self._last_was_write is not None
            and self._last_was_write != is_write
        ):
            self.turnarounds += 1
        self._last_column_cycle = cycle
        self._last_was_write = is_write
        if self.log is not None:
            from repro.sdram.commands import SDRAMCommand
            from repro.sim.trace_log import CommandEvent

            self.log.record(
                CommandEvent(
                    cycle=cycle,
                    command=SDRAMCommand.column(is_write),
                    internal_bank=0,
                    row=0,
                    column=local_word,
                )
            )
        if is_write:
            if value is None:
                raise SchedulingError("write issued without data")
            self._storage[local_word] = value
            self.writes += 1
            return cycle, None
        self.reads += 1
        return cycle + self.timing.access_cycles, self._storage.get(
            local_word, 0
        )

    def column_at(
        self,
        local_word: int,
        internal_bank: int,
        row: int,
        cycle: int,
        is_write: bool,
        auto_precharge: bool = False,
        value: Optional[int] = None,
    ) -> Tuple[int, Optional[int]]:
        """:meth:`column` for pre-decoded coordinates, which the SRAM
        ignores."""
        return self.column(
            local_word, cycle, is_write, auto_precharge=auto_precharge, value=value
        )

    # --- functional access & statistics -------------------------------- #

    def peek(self, local_word: int) -> int:
        return self._storage.get(local_word, 0)

    def poke(self, local_word: int, value: int) -> None:
        self._storage[local_word] = value

    def stats(self) -> DeviceStats:
        return DeviceStats(
            activates=0,
            precharges=0,
            auto_precharges=0,
            reads=self.reads,
            writes=self.writes,
            turnarounds=self.turnarounds,
        )
