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

from typing import Optional, Sequence, Set

from repro.baselines.serial_core import SerialCommandEngine
from repro.params import SystemParams
from repro.sdram.device import DeviceStats
from repro.sim.kernel import SimKernel
from repro.sim.runner import Watchdog
from repro.sim.stats import BusStats, RunResult
from repro.types import AccessType, VectorCommand

__all__ = ["CacheLineSerialSDRAM"]


class CacheLineSerialSDRAM:
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
        self.params = params or SystemParams()
        self.name = name
        self.fill_per_element = fill_per_element
        timing = self.params.sdram
        #: 64-bit memory bus per channel moves 8 bytes per cycle; a line
        #: burst splits evenly across channels.
        self.burst_cycles = self.params.channel_stage_cycles
        self.fill_cycles = timing.t_rcd + timing.cas_latency + self.burst_cycles
        #: Flat functional memory image (word address -> value), so the
        #: baseline is observationally comparable with the PVA systems.
        self._storage = {}

    def poke(self, address: int, value: int) -> None:
        """Write one word directly into the functional memory image."""
        self._storage[address] = value

    def peek(self, address: int) -> int:
        """Read one word from the functional memory image."""
        return self._storage.get(address, 0)

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

    def reset(self) -> None:
        """Discard the functional memory image.  Idempotent."""
        self._storage = {}

    def process_command(self, command: VectorCommand, start_cycle: int) -> int:
        """One command's line fills: accumulate stats and functional
        effects, return the cycles it occupies the system (the
        :class:`~repro.baselines.serial_core.SerialCommandEngine`
        cost-model hook)."""
        lines = self.lines_touched(command)
        self._total_lines += lines
        self._bus.data_cycles += lines * self.burst_cycles
        self._bus.request_cycles += lines * (
            self.fill_cycles - self.burst_cycles
        )
        if command.access is AccessType.READ:
            self._reads += 1
            self._elements_read += command.vector.length
            if self._read_lines is not None:
                self._read_lines.append(
                    tuple(
                        self._storage.get(a, 0)
                        for a in command.vector.addresses()
                    )
                )
        else:
            self._writes += 1
            self._elements_written += command.vector.length
            data = command.data or tuple(range(command.vector.length))
            for address, value in zip(command.vector.addresses(), data):
                self._storage[address] = value
        return lines * self.fill_cycles

    def run(
        self,
        commands: Sequence[VectorCommand],
        capture_data: bool = False,
    ) -> RunResult:
        """Cost the trace (``fill_cycles`` per distinct line, serially)
        through the shared simulation kernel."""
        self._total_lines = 0
        self._reads = self._writes = 0
        self._elements_read = self._elements_written = 0
        self._bus = BusStats()
        self._read_lines = [] if capture_data else None
        watchdog = Watchdog(len(commands), system=self.name)
        engine = SerialCommandEngine(self, commands)
        kernel = SimKernel(
            watchdog=watchdog, time_skip=self.params.sim_mode == "fast"
        )
        kernel.register(engine)
        exit_cycle = kernel.run(engine.done)
        cycles = max(engine.busy_until, exit_cycle)
        device = DeviceStats(
            activates=self._total_lines,
            precharges=self._total_lines,
            reads=self._total_lines * self.params.cache_line_words,
            writes=0,
        )
        result = RunResult(
            system=self.name,
            cycles=cycles,
            commands=len(commands),
            read_commands=self._reads,
            write_commands=self._writes,
            elements_read=self._elements_read,
            elements_written=self._elements_written,
            device=device,
            bus=self._bus,
            attribution=kernel.finalize(cycles),
        )
        result.read_lines = self._read_lines
        return result
