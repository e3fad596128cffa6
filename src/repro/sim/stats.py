"""Run results and statistics.

Every memory system in the library — the PVA unit, the PVA-SRAM variant
and the two serial baselines — reports the same :class:`RunResult`, so the
experiment harness can compare them uniformly.  ``cycles`` is the paper's
figure of merit: memory-bus clock cycles from the first command issue to
the completion of the last transaction, under the "infinitely fast CPU"
assumption of section 6.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sdram.devstats import DeviceStats

__all__ = ["BusStats", "ComponentCycles", "RunResult", "SpanLedger"]


@dataclass
class ComponentCycles:
    """Where one clocked component spent the run, cycle by cycle.

    Every simulated cycle of a run is attributed to exactly one of the
    three buckets, per component, by the component itself (see
    :class:`SpanLedger`; a serial baseline is busy on every cycle of its
    run):

    * **busy** — the component changed observable state this cycle
      (issued an operation, moved data, retired a transaction);
    * **stalled** — it had pending work but could not act (waiting on a
      restimer, the bus, or another component);
    * **idle** — it had nothing to do.

    The invariant ``busy + stalled + idle == RunResult.cycles`` holds for
    every registered component; the differential harness
    (``tests/sim/differential.py``) checks it on every run it compares.
    """

    busy: int = 0
    stalled: int = 0
    idle: int = 0

    @property
    def total(self) -> int:
        return self.busy + self.stalled + self.idle

    def as_dict(self) -> Dict[str, int]:
        return {"busy": self.busy, "stalled": self.stalled, "idle": self.idle}


class SpanLedger:
    """One component's busy/stalled/idle ledger, settled span by span.

    A cycle is busy if the component acted in it, else stalled or idle
    by whether work was pending at the end of that cycle.  So the
    component reports only where that changes: :meth:`act` on each
    cycle it acts, and :meth:`mark` when another component changes
    whether it has work.  The cycles in between keep the last state,
    whether the kernel visited them or jumped over them.
    """

    __slots__ = ("busy", "stalled", "idle", "settled", "pending")

    def __init__(self) -> None:
        self.busy = self.stalled = self.idle = 0
        self.settled = 0  # cycles before this one are attributed
        self.pending = False  # work pending from ``settled`` on

    def _settle(self, upto: int) -> None:
        span = upto - self.settled
        if span > 0:
            if self.pending:
                self.stalled += span
            else:
                self.idle += span
            self.settled = upto

    def act(self, cycle: int, pending: bool) -> None:
        """The component acted at ``cycle`` and left work iff ``pending``."""
        self._settle(cycle)
        self.busy += 1
        self.settled = cycle + 1
        self.pending = pending

    def mark(self, cycle: int, pending: bool) -> None:
        """From ``cycle`` on, the component has work iff ``pending``."""
        self._settle(cycle)
        self.pending = pending

    def close(self, total_cycles: int) -> ComponentCycles:
        """Attribute the tail up to ``total_cycles``; return the buckets."""
        self._settle(total_cycles)
        return ComponentCycles(self.busy, self.stalled, self.idle)


@dataclass
class BusStats:
    """Occupancy of the shared vector bus."""

    request_cycles: int = 0
    data_cycles: int = 0
    turnaround_cycles: int = 0

    @property
    def busy_cycles(self) -> int:
        return self.request_cycles + self.data_cycles + self.turnaround_cycles

    def utilization(self, total_cycles: int) -> float:
        """Fraction of cycles the bus carried requests or data."""
        if total_cycles <= 0:
            return 0.0
        return self.busy_cycles / total_cycles


@dataclass
class RunResult:
    """Outcome of running one command trace through a memory system."""

    system: str
    cycles: int
    commands: int
    read_commands: int
    write_commands: int
    elements_read: int
    elements_written: int
    device: DeviceStats = field(default_factory=DeviceStats)
    bus: BusStats = field(default_factory=BusStats)
    #: Gathered cache lines for read commands, in trace order, when the
    #: run was asked to capture data (functional verification).
    read_lines: Optional[List[Tuple[int, ...]]] = None
    #: Per-command latency (issue cycle to completion: staging-transfer
    #: end for reads, commit for writes), in trace order.  Populated by
    #: the cycle-level PVA systems; None for the analytic baselines.
    command_latencies: Optional[List[int]] = None
    #: Per-component cycle attribution (component name ->
    #: :class:`ComponentCycles`), settled by each kernel component and
    #: merged by the simulation kernel (the serial baselines report one
    #: all-busy ``serial-engine`` entry).  Invariant under the kernel's
    #: jumps, and every component's buckets sum to :attr:`cycles`.
    attribution: Optional[Dict[str, ComponentCycles]] = None

    @property
    def cycles_per_command(self) -> float:
        if self.commands == 0:
            return 0.0
        return self.cycles / self.commands

    def attribution_consistent(self) -> bool:
        """Does every component's busy/stalled/idle split sum to the
        run's total cycle count?  Vacuously True without attribution."""
        if not self.attribution:
            return True
        return all(
            entry.total == self.cycles for entry in self.attribution.values()
        )

    def attribution_summary(self) -> Optional[Dict[str, Dict[str, int]]]:
        """The attribution ledger as plain nested dicts (JSON-ready)."""
        if self.attribution is None:
            return None
        return {
            name: entry.as_dict()
            for name, entry in self.attribution.items()
        }

    def summary(self) -> Dict[str, float]:
        return {
            "system": self.system,
            "cycles": self.cycles,
            "commands": self.commands,
            "cycles_per_command": round(self.cycles_per_command, 2),
            "activates": self.device.activates,
            "precharges": self.device.precharges + self.device.auto_precharges,
            "row_reuse": self.device.row_reuse,
            "bus_utilization": round(self.bus.utilization(self.cycles), 3),
        }
