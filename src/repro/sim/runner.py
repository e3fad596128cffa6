"""The memory-system protocol every simulated system implements, plus
the trace-level simulation watchdog shared by all of them.

The watchdog turns runaway simulations into contained errors: every
system's run loop ticks a :class:`Watchdog`, which raises
:class:`~repro.errors.SimulationTimeout` once the run exceeds its cycle
budget (``max_cycles_per_command`` x trace length) or an optional
wall-clock deadline.  An infinite-loop scheduler bug therefore
surfaces as a catchable :class:`~repro.errors.ReproError` instead of a
hung worker process.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional, Protocol, Sequence

from repro.errors import ConfigurationError, SimulationTimeout
from repro.sim.stats import RunResult
from repro.types import VectorCommand

__all__ = [
    "MemorySystem",
    "SimulationLimits",
    "Watchdog",
    "active_limits",
    "simulation_limits",
]

#: Default per-command cycle ceiling.  Generous: the slowest serial
#: baseline needs well under a thousand cycles per command.
_DEFAULT_MAX_CYCLES_PER_COMMAND = 4096


@dataclass(frozen=True)
class SimulationLimits:
    """Watchdog budgets applied to every simulation run.

    ``max_cycles_per_command`` bounds the simulated-cycle count at
    ``max(1, len(trace)) * max_cycles_per_command``.
    ``max_wall_seconds`` (None disables it) additionally bounds the
    host wall-clock time of one ``run`` call, catching loops that stall
    without advancing the cycle counter.
    """

    max_cycles_per_command: int = _DEFAULT_MAX_CYCLES_PER_COMMAND
    max_wall_seconds: Optional[float] = None

    def __post_init__(self):
        if self.max_cycles_per_command < 1:
            raise ConfigurationError(
                "max_cycles_per_command must be positive, got "
                f"{self.max_cycles_per_command}"
            )
        if self.max_wall_seconds is not None and self.max_wall_seconds <= 0:
            raise ConfigurationError(
                "max_wall_seconds must be positive or None, got "
                f"{self.max_wall_seconds}"
            )


_active = SimulationLimits()


def active_limits() -> SimulationLimits:
    """The limits new :class:`Watchdog` instances pick up by default."""
    return _active


@contextmanager
def simulation_limits(
    max_cycles_per_command: Optional[int] = None,
    max_wall_seconds: Optional[float] = None,
):
    """Temporarily override the default watchdog budgets.

    >>> with simulation_limits(max_cycles_per_command=64):
    ...     simulate(trace, params)  # doctest: +SKIP
    """
    global _active
    previous = _active
    overrides = {}
    if max_cycles_per_command is not None:
        overrides["max_cycles_per_command"] = max_cycles_per_command
    if max_wall_seconds is not None:
        overrides["max_wall_seconds"] = max_wall_seconds
    _active = replace(previous, **overrides)
    try:
        yield _active
    finally:
        _active = previous


class Watchdog:
    """Per-run cycle and wall-clock budget enforcement.

    Construct one per ``run`` call with the trace length, then call
    :meth:`check` with the current simulated cycle once per loop
    iteration.  The wall clock is consulted every 1024 checks *or*
    every 1024 simulated cycles, whichever comes first; the common-case
    per-iteration cost stays an integer compare.  The cycle-stride
    probe matters under the time-skip run loop, where a single check
    can stand for thousands of skipped cycles — counting checks alone
    would let a slow run blow far past its wall-clock budget; the
    check-count probe still covers loops that stall without advancing
    the cycle counter.
    """

    _WALL_CHECK_MASK = 1023
    #: Simulated-cycle stride between wall-clock probes.
    _WALL_PROBE_STRIDE = 1024

    def __init__(
        self,
        commands: int,
        *,
        system: str = "?",
        limits: Optional[SimulationLimits] = None,
    ):
        limits = limits if limits is not None else _active
        self.system = system
        self.cycle_limit = max(1, commands) * limits.max_cycles_per_command
        self.deadline = (
            time.monotonic() + limits.max_wall_seconds
            if limits.max_wall_seconds is not None
            else None
        )
        self._checks = 0
        self._next_wall_probe_cycle = 0

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
        """Raise :class:`SimulationTimeout` if a budget is exhausted."""
        if cycle > self.cycle_limit:
            raise SimulationTimeout(
                f"{self.system}: simulation exceeded {self.cycle_limit} "
                "cycles — scheduler deadlock or runaway trace"
            )
        self._checks += 1
        if self.deadline is None:
            return
        if (
            cycle >= self._next_wall_probe_cycle
            or not self._checks & self._WALL_CHECK_MASK
        ):
            self._next_wall_probe_cycle = cycle + self._WALL_PROBE_STRIDE
            if time.monotonic() > self.deadline:
                raise SimulationTimeout(
                    f"{self.system}: simulation exceeded its wall-clock "
                    f"budget at cycle {cycle}"
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
