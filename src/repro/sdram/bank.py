"""Internal-bank state machine of an SDRAM device.

Each SDRAM device contains several internal banks (four in the Micron
parts the prototype drives), each with its own row buffer.  An internal
bank cycles through closed -> activating -> open -> precharging, guarded
by three restimers (activate-ready, column-ready, precharge-ready).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SchedulingError
from repro.params import SDRAMTiming
from repro.sdram.restimer import Restimer

__all__ = ["InternalBank"]


class InternalBank:
    """One internal bank: a row buffer plus its timing scoreboard."""

    __slots__ = (
        "index",
        "timing",
        "open_row",
        "_activate_timer",
        "_column_timer",
        "_precharge_timer",
        "activates",
        "precharges",
        "auto_precharges",
    )

    def __init__(self, index: int, timing: SDRAMTiming):
        self.index = index
        self.timing = timing
        self.open_row: Optional[int] = None
        self._activate_timer = Restimer(f"ib{index}.activate")
        self._column_timer = Restimer(f"ib{index}.column")
        self._precharge_timer = Restimer(f"ib{index}.precharge")
        # Statistics
        self.activates = 0
        self.precharges = 0
        self.auto_precharges = 0

    # ----------------------------------------------------------------- #
    # Queries (the scheduler's scoreboard reads these)
    # ----------------------------------------------------------------- #

    @property
    def is_open(self) -> bool:
        return self.open_row is not None

    def can_activate(self, cycle: int) -> bool:
        """May a row be opened this cycle?  Requires the bank closed and
        the precharge period elapsed."""
        return self.open_row is None and self._activate_timer.available(cycle)

    def can_column(self, cycle: int, row: int) -> bool:
        """May a CAS to ``row`` issue this cycle?  Requires that exact row
        open and the RAS-to-CAS delay elapsed."""
        return self.open_row == row and self._column_timer.available(cycle)

    def can_precharge(self, cycle: int) -> bool:
        """May the open row be closed this cycle?"""
        return self.open_row is not None and self._precharge_timer.available(
            cycle
        )

    # ----------------------------------------------------------------- #
    # Commands
    # ----------------------------------------------------------------- #

    def activate(self, row: int, cycle: int) -> None:
        """Open ``row`` (RAS).  First CAS is legal ``t_rcd`` cycles later."""
        if self.open_row is not None:
            raise SchedulingError(
                f"activate on internal bank {self.index} while row "
                f"{self.open_row} is open"
            )
        self._activate_timer.check(cycle)
        self.open_row = row
        self._column_timer.hold_until(cycle + self.timing.t_rcd)
        # A freshly opened row may not be precharged before the activate
        # completes (a minimal tRAS approximation).
        self._precharge_timer.hold_until(cycle + self.timing.t_rcd)
        self.activates += 1

    def column(self, cycle: int, is_write: bool, auto_precharge: bool) -> None:
        """Issue one CAS.  The device layer accounts for data movement and
        CAS latency; the bank only tracks row/precharge constraints."""
        if self.open_row is None:
            raise SchedulingError(
                f"column on internal bank {self.index} with no open row"
            )
        self._column_timer.check(cycle)
        if is_write:
            # Write recovery before the row may be closed.
            self._precharge_timer.hold_until(cycle + 1 + self.timing.t_wr)
        else:
            self._precharge_timer.hold_until(cycle + 1)
        if auto_precharge:
            self._close(cycle + 1 + (self.timing.t_wr if is_write else 0))
            self.auto_precharges += 1

    def precharge(self, cycle: int) -> None:
        """Explicit precharge of the open row."""
        if self.open_row is None:
            raise SchedulingError(
                f"precharge on internal bank {self.index} with no open row"
            )
        self._precharge_timer.check(cycle)
        self._close(cycle)
        self.precharges += 1

    def force_refresh(self, cycle: int, t_rfc: int) -> None:
        """Auto-refresh: the row closes unconditionally and the bank is
        unavailable for ``t_rfc`` cycles (refresh embeds its own
        precharge, so ``t_rp`` is not added on top)."""
        self.open_row = None
        self._activate_timer.hold_until(cycle + t_rfc)

    def _close(self, effective_cycle: int) -> None:
        """Close the row; the next activate waits out ``t_rp``."""
        self.open_row = None
        self._activate_timer.hold_until(effective_cycle + self.timing.t_rp)
