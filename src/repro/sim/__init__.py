"""Simulation support: the PVA run loop over clocked components, run
results, statistics, and the memory-system runner protocol shared by the
PVA unit and all baseline systems."""

from repro.sim.stats import BusStats, ComponentCycles, RunResult, SpanLedger
from repro.sim.kernel import ClockedComponent, SimKernel
from repro.sim.runner import (
    MemorySystem,
    SimulationLimits,
    Watchdog,
    active_limits,
    simulation_limits,
)

__all__ = [
    "BusStats",
    "ClockedComponent",
    "ComponentCycles",
    "RunResult",
    "SimKernel",
    "SpanLedger",
    "MemorySystem",
    "SimulationLimits",
    "Watchdog",
    "active_limits",
    "simulation_limits",
]
