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

from typing import Optional

from repro.baselines.serial_core import SerialSystem
from repro.params import SystemParams
from repro.sdram.devstats import DeviceStats
from repro.sim.stats import BusStats, RunResult
from repro.types import VectorCommand

__all__ = ["GatheringSerialSDRAM"]


class GatheringSerialSDRAM(SerialSystem):
    """Serial element-gathering memory system."""

    def __init__(
        self,
        params: Optional[SystemParams] = None,
        name: str = "gathering-serial",
    ):
        super().__init__(params, name)
        #: 64-bit memory bus per channel moves 8 bytes per cycle; the
        #: gathered line transfers split evenly across channels.
        self.transfer_cycles = self.params.channel_stage_cycles

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

    def command_cost(self, command: VectorCommand, bus: BusStats) -> int:
        """The command cycle and one address per element are request
        time on the bus; the gathered line is data."""
        bus.request_cycles += 1 + command.vector.length
        bus.data_cycles += self.transfer_cycles
        return self.command_cycles(command)

    def device_stats(self, result: RunResult) -> DeviceStats:
        """One activate and precharge per command and one column per
        element, all counted as reads when the trace reads at all."""
        columns = result.elements_read + result.elements_written
        return DeviceStats(
            activates=result.commands,
            precharges=result.commands,
            reads=columns if result.read_commands else 0,
            writes=0 if result.read_commands else columns,
        )
