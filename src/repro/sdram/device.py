"""One SDRAM bank module: internal banks, shared data pins, storage.

The prototype's memory is 16 such modules, each a 32-bit wide SDRAM bank
(two Micron x16 parts) with four internal banks.  The device model:

* maps a *local word index* (the bank-controller address space) to
  ``(internal bank, row, column)``;
* enforces per-internal-bank timing via :class:`~repro.sdram.bank.InternalBank`;
* enforces the shared data-pin constraints: one CAS per cycle, plus a
  one-cycle bus turnaround whenever the data direction reverses
  (section 5.2.5);
* keeps a functional storage array so gathered/scattered data can be
  verified against reference semantics, not just counted.

Rows of consecutive local addresses rotate across internal banks so that
long unit-local-stride streams can overlap activates with CAS traffic —
the behaviour the access scheduler's heuristics exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.params import SDRAMTiming
from repro.sdram.bank import InternalBank
from repro.sdram.commands import SDRAMCommand
from repro.sdram.devstats import DeviceStats
from repro.sim.trace_log import CommandEvent

__all__ = ["Location", "DeviceStats", "SDRAMDevice"]


@dataclass(frozen=True)
class Location:
    """Physical coordinates of a local word inside the device."""

    internal_bank: int
    row: int
    column: int


class SDRAMDevice:
    """A 32-bit-wide SDRAM bank module with ``internal_banks`` row buffers."""

    __slots__ = (
        "timing",
        "bus_turnaround",
        "banks",
        "_ib_mask",
        "_ib_bits",
        "_row_mask",
        "_row_bits",
        "_loc_cache",
        "_last_column_cycle",
        "_last_was_write",
        "_storage",
        "reads",
        "writes",
        "turnarounds",
        "log",
        "_next_refresh",
        "refreshes",
    )

    #: Marks this device as having row state (the scheduler checks this
    #: instead of isinstance tests; the SRAM model sets it False).
    has_rows = True

    def __init__(self, timing: SDRAMTiming, bus_turnaround: int = 1):
        self.timing = timing
        self.bus_turnaround = bus_turnaround
        self.banks: List[InternalBank] = [
            InternalBank(i, timing) for i in range(timing.internal_banks)
        ]
        self._ib_mask = timing.internal_banks - 1
        self._ib_bits = timing.internal_banks.bit_length() - 1
        self._row_mask = timing.row_words - 1
        self._row_bits = timing.row_words.bit_length() - 1
        #: locate() memo — the mapping is pure, and the scheduler asks
        #: for the same handful of in-flight words every cycle, so
        #: caching the frozen Location wins back the dataclass
        #: construction cost on the hot path.
        self._loc_cache: Dict[int, Location] = {}
        # Shared data-pin state.
        self._last_column_cycle = -10
        self._last_was_write: Optional[bool] = None
        # Functional storage, keyed by local word index.
        self._storage: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0
        self.turnarounds = 0
        #: Optional command recorder (see repro.sim.trace_log); None by
        #: default so the hot path pays nothing.
        self.log = None
        # Auto-refresh bookkeeping (section 2.2: DRAM charge leaks and
        # every row must be refreshed periodically).
        self._next_refresh = (
            timing.refresh_interval if timing.refresh_interval > 0 else None
        )
        self.refreshes = 0

    # ----------------------------------------------------------------- #
    # Geometry
    # ----------------------------------------------------------------- #

    @property
    def last_was_write(self) -> Optional[bool]:
        """Direction of the most recent data transfer on the pins (None
        before any transfer) — input to the scheduler's polarity rule."""
        return self._last_was_write

    @property
    def schedule_geometry(self):
        """Hashable descriptor of :meth:`locate`'s mapping, used as part
        of the broadcast-time hit-table memo key
        (:mod:`repro.pva.schedule`).  ``("rot", row_bits, ib_bits)``:
        consecutive rows rotate internal banks."""
        return ("rot", self._row_bits, self._ib_bits)

    def locate(self, local_word: int) -> Location:
        """Map a local word index to (internal bank, row, column).

        Consecutive rows rotate internal banks, so streams that walk local
        addresses linearly alternate row buffers.
        """
        loc = self._loc_cache.get(local_word)
        if loc is None:
            column = local_word & self._row_mask
            row_seq = local_word >> self._row_bits
            internal_bank = row_seq & self._ib_mask
            row = row_seq >> self._ib_bits
            loc = Location(internal_bank=internal_bank, row=row, column=column)
            self._loc_cache[local_word] = loc
        return loc

    def open_row(self, internal_bank: int) -> Optional[int]:
        return self.banks[internal_bank].open_row

    # ----------------------------------------------------------------- #
    # Scoreboard queries
    # ----------------------------------------------------------------- #

    def data_pins_ready(self, cycle: int, is_write: bool) -> bool:
        """One CAS per cycle on the shared pins, plus turnaround cycles
        when the transfer direction reverses."""
        if cycle <= self._last_column_cycle:
            return False
        if self._last_was_write is not None and self._last_was_write != is_write:
            return cycle >= self._last_column_cycle + 1 + self.bus_turnaround
        return True

    def can_column(self, local_word: int, cycle: int, is_write: bool) -> bool:
        loc = self.locate(local_word)
        return self.banks[loc.internal_bank].can_column(
            cycle, loc.row
        ) and self.data_pins_ready(cycle, is_write)

    def can_activate(self, local_word: int, cycle: int) -> bool:
        loc = self.locate(local_word)
        return self.banks[loc.internal_bank].can_activate(cycle)

    def can_precharge(self, internal_bank: int, cycle: int) -> bool:
        return self.banks[internal_bank].can_precharge(cycle)

    def row_is_open_for(self, local_word: int) -> bool:
        """Is the row containing ``local_word`` currently open?"""
        loc = self.locate(local_word)
        return self.banks[loc.internal_bank].open_row == loc.row

    def conflicting_row_open(self, local_word: int) -> bool:
        """Is a *different* row open in this word's internal bank?"""
        loc = self.locate(local_word)
        open_row = self.banks[loc.internal_bank].open_row
        return open_row is not None and open_row != loc.row

    @property
    def next_refresh_cycle(self) -> Optional[int]:
        """Cycle the next auto-refresh fires, or None when disabled."""
        return self._next_refresh

    # ----------------------------------------------------------------- #
    # Commands
    # ----------------------------------------------------------------- #

    def maybe_refresh(self, cycle: int) -> bool:
        """Run an auto-refresh if one is due (called once per cycle by the
        bank controller).

        A refresh closes every row and blocks the whole device for
        ``t_rfc`` cycles.  Returns True when a refresh started this cycle
        — the scheduler treats that cycle as consumed.
        """
        if self._next_refresh is None or cycle < self._next_refresh:
            return False
        for bank in self.banks:
            bank.force_refresh(cycle, self.timing.t_rfc)
        self._next_refresh += self.timing.refresh_interval
        self.refreshes += 1
        return True

    def activate(self, local_word: int, cycle: int) -> None:
        loc = self.locate(local_word)
        self.banks[loc.internal_bank].activate(loc.row, cycle)
        if self.log is not None:
            self.log.record(
                CommandEvent(
                    cycle=cycle,
                    command=SDRAMCommand.ACTIVATE,
                    internal_bank=loc.internal_bank,
                    row=loc.row,
                )
            )

    def precharge(self, internal_bank: int, cycle: int) -> None:
        self.banks[internal_bank].precharge(cycle)
        if self.log is not None:
            self.log.record(
                CommandEvent(
                    cycle=cycle,
                    command=SDRAMCommand.PRECHARGE,
                    internal_bank=internal_bank,
                )
            )

    def column(
        self,
        local_word: int,
        cycle: int,
        is_write: bool,
        auto_precharge: bool = False,
        value: Optional[int] = None,
    ) -> Tuple[int, Optional[int]]:
        """Issue one CAS to ``local_word``.

        Returns ``(data_cycle, read_value)``: for reads, the cycle the
        datum appears on the pins (``cycle + cas_latency``) and the stored
        value; for writes, the cycle the datum is consumed and ``None``.
        """
        loc = self.locate(local_word)
        return self.column_at(
            local_word,
            loc.internal_bank,
            loc.row,
            cycle,
            is_write,
            auto_precharge=auto_precharge,
            value=value,
        )

    def column_at(
        self,
        local_word: int,
        internal_bank: int,
        row: int,
        cycle: int,
        is_write: bool,
        auto_precharge: bool = False,
        value: Optional[int] = None,
    ) -> Tuple[int, Optional[int]]:
        """:meth:`column` with the coordinates already decoded (the
        scheduler decodes once per issue); ``local_word`` still keys the
        functional storage array."""
        if not self.data_pins_ready(cycle, is_write):
            raise SchedulingError(
                f"data pins busy at cycle {cycle} "
                f"(last column at {self._last_column_cycle})"
            )
        self.banks[internal_bank].column(cycle, is_write, auto_precharge)
        if (
            self._last_was_write is not None
            and self._last_was_write != is_write
        ):
            self.turnarounds += 1
        self._last_column_cycle = cycle
        self._last_was_write = is_write
        if self.log is not None:
            self.log.record(
                CommandEvent(
                    cycle=cycle,
                    command=SDRAMCommand.column(is_write, auto_precharge),
                    internal_bank=internal_bank,
                    row=row,
                    column=local_word & self._row_mask,
                )
            )
        if is_write:
            if value is None:
                raise SchedulingError("write column issued without data")
            self._storage[local_word] = value
            self.writes += 1
            return cycle, None
        self.reads += 1
        return cycle + self.timing.cas_latency, self._storage.get(local_word, 0)

    # ----------------------------------------------------------------- #
    # Functional access & statistics
    # ----------------------------------------------------------------- #

    def peek(self, local_word: int) -> int:
        """Read storage directly (no timing)."""
        return self._storage.get(local_word, 0)

    def poke(self, local_word: int, value: int) -> None:
        """Write storage directly (no timing) — test/benchmark setup."""
        self._storage[local_word] = value

    def stats(self) -> DeviceStats:
        return DeviceStats(
            activates=sum(b.activates for b in self.banks),
            precharges=sum(b.precharges for b in self.banks),
            auto_precharges=sum(b.auto_precharges for b in self.banks),
            reads=self.reads,
            writes=self.writes,
            turnarounds=self.turnarounds,
        )
