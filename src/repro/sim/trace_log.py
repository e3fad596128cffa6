"""Per-device SDRAM command logging.

A :class:`CommandLog` records every command a device executes —
``(cycle, command, internal bank, row, column)`` — the same stream a
logic analyzer on the SDRAM command bus would capture.  Logging is opt-in
(attach a log to a device, or call
:meth:`repro.pva.system.PVAMemorySystem.attach_command_logs`).  Both
backends fill it: the reference backend's device models record each
command they execute, and the fast backend's bank automaton records
each command its walk issues (a logged run's batches all take the
walk).  An unlogged run pays one ``is not None`` test per command.

Uses: asserting precise command sequences in tests (e.g. that an
auto-precharge really was folded into the last column of a request),
debugging scheduling pathologies, and rendering human-readable timelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.sdram.commands import SDRAMCommand

__all__ = ["CommandEvent", "CommandLog"]


@dataclass(frozen=True)
class CommandEvent:
    """One SDRAM command as seen on a device's command bus."""

    cycle: int
    command: SDRAMCommand
    internal_bank: int
    row: Optional[int] = None
    column: Optional[int] = None

    def render(self) -> str:
        place = f"ib{self.internal_bank}"
        if self.command is SDRAMCommand.ACTIVATE:
            detail = f"row {self.row}"
        elif self.command.is_column:
            detail = f"col {self.column}"
        else:
            detail = ""
        return f"{self.cycle:>6}  {self.command.value:<10} {place} {detail}"


class CommandLog:
    """An append-only record of device commands."""

    def __init__(self) -> None:
        self.events: List[CommandEvent] = []

    def record(self, event: CommandEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def commands(self) -> List[SDRAMCommand]:
        """Just the command sequence, in issue order."""
        return [e.command for e in self.events]

    def of_kind(self, *kinds: SDRAMCommand) -> List[CommandEvent]:
        wanted = set(kinds)
        return [e for e in self.events if e.command in wanted]

    def columns(self) -> List[CommandEvent]:
        return [e for e in self.events if e.command.is_column]

    def activates(self) -> List[CommandEvent]:
        return self.of_kind(SDRAMCommand.ACTIVATE)

    def precharges(self) -> List[CommandEvent]:
        """Explicit precharges only (auto-precharge rides on columns)."""
        return self.of_kind(SDRAMCommand.PRECHARGE)

    def auto_precharges(self) -> List[CommandEvent]:
        return self.of_kind(SDRAMCommand.READ_AP, SDRAMCommand.WRITE_AP)

    def busy_cycles(self) -> int:
        """Distinct cycles carrying a non-NOP command."""
        return len({e.cycle for e in self.events})

    def render(self, limit: Optional[int] = None) -> str:
        """Human-readable timeline (one line per command)."""
        events: Iterable[CommandEvent] = self.events
        if limit is not None:
            events = self.events[:limit]
        lines = [" cycle  command    where"]
        lines.extend(e.render() for e in events)
        if limit is not None and len(self.events) > limit:
            lines.append(f"  ... ({len(self.events) - limit} more)")
        return "\n".join(lines)

    def verify_monotone(self) -> None:
        """Sanity invariant: cycles never decrease within a device log."""
        for before, after in zip(self.events, self.events[1:]):
            if after.cycle < before.cycle:
                raise AssertionError(
                    f"command log out of order: {before} then {after}"
                )
