"""Shared base of the analytic serial baselines (section 6.1).

The two serial systems (cache-line fills, gathering pipeline) are closed
forms: each vector command occupies the system for a fixed number of
cycles, back to back, with no idle gaps and no split transactions.
:class:`SerialSystem` owns what they share — the functional memory
image, the one loop over the commands, read capture and write storage,
and the :class:`~repro.sim.stats.RunResult` — and a subclass supplies
only :meth:`~SerialSystem.command_cost` and
:meth:`~SerialSystem.device_stats`.

No simulation kernel drives them.  Each command starts the cycle its
predecessor ends, and the loop checks the run's
:class:`~repro.sim.runner.Watchdog` at that start cycle, so a run raises
:class:`~repro.errors.SimulationTimeout` exactly when its last command
would start past the cycle budget.  The system is busy on every cycle of
the run, so its attribution ledger is one all-busy ``serial-engine``
entry.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.errors import ConfigurationError
from repro.params import SystemParams
from repro.sdram.devstats import DeviceStats
from repro.sim.runner import Watchdog
from repro.sim.stats import BusStats, ComponentCycles, RunResult
from repro.types import AccessType, VectorCommand

__all__ = ["SerialSystem"]


class SerialSystem:
    """A memory system that costs one vector command at a time."""

    def __init__(self, params: Optional[SystemParams], name: str):
        self.params = params or SystemParams()
        self.name = name
        #: Flat functional memory image (word address -> value), so the
        #: baseline is observationally comparable with the PVA systems.
        self._storage: Dict[int, int] = {}

    def poke(self, address: int, value: int) -> None:
        """Write one word directly into the functional memory image."""
        self._storage[address] = value

    def peek(self, address: int) -> int:
        """Read one word from the functional memory image."""
        return self._storage.get(address, 0)

    def reset(self) -> None:
        """Discard the functional memory image.  Idempotent."""
        self._storage = {}

    def command_cost(self, command: VectorCommand, bus: BusStats) -> int:
        """Add one command's bus cycles to ``bus``; return the cycles
        the command occupies the system."""
        raise NotImplementedError

    def device_stats(self, result: RunResult) -> DeviceStats:
        """The device operations behind ``result``'s totals."""
        raise NotImplementedError

    def run(
        self,
        commands: Sequence[VectorCommand],
        capture_data: bool = False,
    ) -> RunResult:
        """Cost the trace serially: the run's cycles are the sum of its
        commands' costs, which exist only for base-stride vectors."""
        for command in commands:
            if not isinstance(command, VectorCommand):
                raise ConfigurationError(
                    f"{self.name}: the serial baselines model only "
                    f"base-stride vector commands, not "
                    f"{type(command).__name__}"
                )
        watchdog = Watchdog(len(commands), self.params, system=self.name)
        storage = self._storage
        bus = BusStats()
        read_lines = [] if capture_data else None
        cycles = reads = elements_read = elements_written = 0
        for command in commands:
            watchdog.check(cycles)
            cycles += self.command_cost(command, bus)
            vector = command.vector
            if command.access is AccessType.READ:
                reads += 1
                elements_read += vector.length
                if read_lines is not None:
                    read_lines.append(
                        tuple(storage.get(a, 0) for a in vector.addresses())
                    )
            else:
                elements_written += vector.length
                data = command.data or tuple(range(vector.length))
                for address, value in zip(vector.addresses(), data):
                    storage[address] = value
        result = RunResult(
            system=self.name,
            cycles=cycles,
            commands=len(commands),
            read_commands=reads,
            write_commands=len(commands) - reads,
            elements_read=elements_read,
            elements_written=elements_written,
            bus=bus,
            read_lines=read_lines,
            attribution={"serial-engine": ComponentCycles(busy=cycles)},
        )
        result.device = self.device_stats(result)
        return result
