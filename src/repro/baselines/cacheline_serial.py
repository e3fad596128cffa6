"""Baseline 1: the cache-line interleaved serial SDRAM system
("conventional memory system", section 6.1).

An idealized 16-module SDRAM system optimized for cache-line fills: every
distinct cache line a vector command touches costs one fill of

    t_rcd (RAS) + cas_latency (CAS) + burst (16 data cycles on the 64-bit
    bus) = 20 cycles

with precharge optimistically overlapped and writes costed like reads,
exactly as the paper assumes.  The system "makes no attempt to gather
sparse data": whole lines cross the bus even when the application uses one
word of each, which is why its relative performance collapses as the
stride grows.

Line fills are counted over the *distinct* lines touched by each command,
in access order (consecutive elements falling in the same line hit the
line already fetched).  Commands are processed serially — this system has
no split transactions.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.baselines.serial_core import SerialSystem
from repro.params import SystemParams
from repro.sdram.devstats import DeviceStats
from repro.sim.stats import BusStats, RunResult
from repro.types import VectorCommand

__all__ = ["CacheLineSerialSDRAM"]


class CacheLineSerialSDRAM(SerialSystem):
    """Serial line-fill memory system."""

    def __init__(
        self,
        params: Optional[SystemParams] = None,
        name: str = "cacheline-serial",
        fill_per_element: bool = False,
    ):
        """``fill_per_element=True`` switches to the accounting implied by
        the paper's stride-19 numbers (one line fill per element, i.e. no
        intra-line reuse in the serial model); the default counts one fill
        per *distinct* line, which is the conservative-honest model.  See
        :mod:`repro.experiments.headline` for the consequences."""
        super().__init__(params, name)
        self.fill_per_element = fill_per_element
        timing = self.params.sdram
        #: 64-bit memory bus per channel moves 8 bytes per cycle; a line
        #: burst splits evenly across channels.
        self.burst_cycles = self.params.channel_stage_cycles
        self.fill_cycles = timing.t_rcd + timing.cas_latency + self.burst_cycles

    def lines_touched(self, command: VectorCommand) -> int:
        """Line fills the command costs.

        With intra-line reuse (default): the number of distinct cache
        lines the command's elements fall in.  Without: one per element,
        capped below by the distinct count (a unit-stride command still
        fills each line once at most in either model only when reuse is
        on; per-element accounting deliberately ignores it).
        """
        if self.fill_per_element:
            return command.vector.length
        shift = self.params.cache_line_words.bit_length() - 1
        seen: Set[int] = set()
        for address in command.vector.addresses():
            seen.add(address >> shift)
        return len(seen)

    def command_cost(self, command: VectorCommand, bus: BusStats) -> int:
        """``fill_cycles`` per line fill; each fill's burst is data on
        the bus and its RAS + CAS wait is request time."""
        lines = self.lines_touched(command)
        bus.data_cycles += lines * self.burst_cycles
        bus.request_cycles += lines * (self.fill_cycles - self.burst_cycles)
        return lines * self.fill_cycles

    def device_stats(self, result: RunResult) -> DeviceStats:
        """One activate, precharge and line of column reads per fill;
        every cycle of the run belongs to a fill."""
        fills = result.cycles // self.fill_cycles
        return DeviceStats(
            activates=fills,
            precharges=fills,
            reads=fills * self.params.cache_line_words,
            writes=0,
        )
