"""Baseline 2: the gathering pipelined serial SDRAM system (section 6.1).

A 16-module, word-interleaved SDRAM system with a closed-page policy that
gathers vector elements *individually* but issues the accesses serially —
the paper's stand-in for a conventional pipelined vector unit:

* precharge cost is incurred once at the beginning of each vector command;
* the first element pays the full RAS + CAS latency; RAS latencies for
  every later element overlap with activity on other banks (the paper's
  optimistic assumption), so subsequent elements stream at one per cycle;
* vector commands never cross DRAM pages (pages stay open within a
  command);
* the gathered line then crosses the 64-bit bus (16 data cycles), and —
  having no split transactions — the next command starts only after that.

The per-command cost is therefore independent of stride, which is exactly
why this system beats the cache-line baseline at large strides but loses
to the PVA's bank-parallel gathering by roughly a factor of three.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.serial_core import SerialCommandEngine
from repro.params import SystemParams
from repro.sdram.device import DeviceStats
from repro.sim.kernel import SimKernel
from repro.sim.runner import Watchdog
from repro.sim.stats import BusStats, RunResult
from repro.types import AccessType, VectorCommand

__all__ = ["GatheringSerialSDRAM"]


class GatheringSerialSDRAM:
    """Serial element-gathering memory system."""

    def __init__(
        self,
        params: Optional[SystemParams] = None,
        name: str = "gathering-serial",
    ):
        self.params = params or SystemParams()
        self.name = name
        #: 64-bit memory bus per channel moves 8 bytes per cycle; the
        #: gathered line transfers split evenly across channels.
        self.transfer_cycles = self.params.channel_stage_cycles
        #: Flat functional memory image (word address -> value).
        self._storage = {}

    def poke(self, address: int, value: int) -> None:
        """Write one word directly into the functional memory image."""
        self._storage[address] = value

    def peek(self, address: int) -> int:
        """Read one word from the functional memory image."""
        return self._storage.get(address, 0)

    def command_cycles(self, command: VectorCommand) -> int:
        """Cycles one vector command occupies the system."""
        timing = self.params.sdram
        access_cycles = (
            timing.t_rp  # closed-page precharge at command start
            + timing.t_rcd  # first element's RAS
            + timing.cas_latency  # first element's CAS
            + command.vector.length  # one serial address issue per element
        )
        # One command cycle on the bus, then the data transfer (which the
        # serial controller does not overlap with the next command).
        return 1 + access_cycles + self.transfer_cycles

    def reset(self) -> None:
        """Discard the functional memory image.  Idempotent."""
        self._storage = {}

    def process_command(self, command: VectorCommand, start_cycle: int) -> int:
        """One command through the gathering pipeline: accumulate stats
        and functional effects, return its occupancy (the
        :class:`~repro.baselines.serial_core.SerialCommandEngine`
        cost-model hook)."""
        self._activates += 1
        self._columns += command.vector.length
        self._bus.request_cycles += 1 + command.vector.length
        self._bus.data_cycles += self.transfer_cycles
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
        return self.command_cycles(command)

    def run(
        self,
        commands: Sequence[VectorCommand],
        capture_data: bool = False,
    ) -> RunResult:
        """Cost the trace serially through the shared simulation kernel."""
        self._reads = self._writes = 0
        self._elements_read = self._elements_written = 0
        self._activates = 0
        self._columns = 0
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
            activates=self._activates,
            precharges=self._activates,
            reads=self._columns if self._reads else 0,
            writes=0 if self._reads else self._columns,
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
