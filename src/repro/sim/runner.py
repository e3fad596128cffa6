"""The memory-system protocol every simulated system implements, plus
the run watchdog shared by all of them.

Every system's run loop checks a :class:`Watchdog`, which raises
:class:`~repro.errors.SimulationTimeout` once the run passes its cycle
budget, so an infinite-loop scheduler bug surfaces as a catchable
:class:`~repro.errors.ReproError` instead of a hung worker process.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.errors import SimulationTimeout
from repro.params import SystemParams
from repro.sim.stats import RunResult
from repro.types import VectorCommand

__all__ = ["CYCLES_PER_COMMAND", "MemorySystem", "Watchdog"]

#: Cycle budget per command on an unthrottled front end.  Generous: the
#: slowest serial baseline needs well under a thousand cycles per
#: command.
CYCLES_PER_COMMAND = 4096


class Watchdog:
    """A run's cycle budget, worked out from the run alone:
    ``max(1, commands) * (CYCLES_PER_COMMAND + params.issue_interval)``,
    since a throttled front end idles up to ``issue_interval`` cycles per
    command.  Build one per ``run`` call and :meth:`check` the current
    simulated cycle once per loop iteration.
    """

    def __init__(self, commands: int, params: SystemParams, *, system: str):
        self.system = system
        self.cycle_limit = max(1, commands) * (
            CYCLES_PER_COMMAND + params.issue_interval
        )

    def clamp_skip(self, target: int) -> int:
        """Cap a time-skip jump target at the first cycle :meth:`check`
        rejects (``cycle_limit + 1``).

        The single authority on how skip advances interact with the
        cycle budget: jumping exactly to ``cycle_limit + 1`` lets the
        next :meth:`check` raise, while jumping past it would skip over
        the deadline and to ``cycle_limit`` or below would stall the
        timeout by a lap of plain ticks.
        """
        limit = self.cycle_limit + 1
        return limit if target > limit else target

    def check(self, cycle: int) -> None:
        """Raise :class:`SimulationTimeout` past the cycle budget."""
        if cycle > self.cycle_limit:
            raise SimulationTimeout(
                f"{self.system}: simulation exceeded {self.cycle_limit} "
                "cycles — scheduler deadlock or runaway trace"
            )


class MemorySystem(Protocol):
    """A memory system that can execute a trace of vector commands.

    Implementations: :class:`repro.pva.system.PVAMemorySystem`,
    :class:`repro.baselines.cacheline_serial.CacheLineSerialSDRAM`,
    :class:`repro.baselines.gathering_serial.GatheringSerialSDRAM`, and the
    PVA-SRAM variant.
    """

    name: str

    def run(
        self, commands: Sequence[VectorCommand], capture_data: bool = False
    ) -> RunResult:
        """Execute ``commands`` in order and report cycle-level results."""
        ...
