"""One bank module, SDRAM or SRAM: internal banks, shared data pins,
storage.

The prototype's memory is 16 such modules, each a 32-bit wide SDRAM bank
(two Micron x16 parts) with four internal banks.  The PVA-SRAM
comparison system (section 6.1) puts the same controller over banks that
"incur no precharge or RAS latencies": the same module with its row
machinery removed.  So one device class models both, driven by the
bank's timing record (:class:`~repro.params.SDRAMTiming` or
:class:`~repro.params.SRAMTiming`, whose ``has_rows`` says which).  The
device model:

* maps a *local word index* (the bank-controller address space) to
  ``(internal bank, row, column)``; a rowless memory decodes every word
  to its own column of internal bank 0, row 0;
* enforces per-internal-bank timing via :class:`~repro.sdram.bank.InternalBank`
  and runs auto-refresh, when the memory has rows;
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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import SchedulingError
from repro.params import SDRAMTiming, SRAMTiming
from repro.sdram.bank import InternalBank
from repro.sdram.commands import SDRAMCommand
from repro.sdram.devstats import DeviceStats
from repro.sim.trace_log import CommandEvent

__all__ = ["Location", "DeviceStats", "BankDevice"]


@dataclass(frozen=True)
class Location:
    """Physical coordinates of a local word inside the device."""

    internal_bank: int
    row: int
    column: int


class BankDevice:
    """A 32-bit-wide bank module: ``internal_banks`` row buffers when its
    timing has rows, else one rowless uniform-access memory."""

    __slots__ = (
        "timing",
        "has_rows",
        "internal_banks",
        "bus_turnaround",
        "banks",
        "_ib_mask",
        "_ib_bits",
        "_row_mask",
        "_row_bits",
        "_loc_cache",
        "_last_column_cycle",
        "_last_was_write",
        "storage",
        "reads",
        "writes",
        "turnarounds",
        "log",
        "_next_refresh",
        "refreshes",
    )

    def __init__(
        self,
        timing: Union[SDRAMTiming, SRAMTiming],
        bus_turnaround: int = 1,
        storage: Optional[Dict[int, int]] = None,
    ):
        self.timing = timing
        self.has_rows = timing.has_rows
        self.bus_turnaround = bus_turnaround
        if self.has_rows:
            nib = timing.internal_banks
            self.internal_banks = nib
            self.banks: List[InternalBank] = [
                InternalBank(i, timing) for i in range(nib)
            ]
            self._ib_mask = nib - 1
            self._ib_bits = nib.bit_length() - 1
            self._row_mask = timing.row_words - 1
            self._row_bits = timing.row_words.bit_length() - 1
            refresh = timing.refresh_interval
        else:
            # Rowless: every word is its own column of internal bank 0,
            # row 0, and no row buffer, restimer or refresh constrains it.
            self.internal_banks = 1
            self.banks = []
            self._row_mask = -1
            refresh = 0
        #: locate() memo — the mapping is pure, and the scheduler asks
        #: for the same handful of in-flight words every cycle, so
        #: caching the frozen Location wins back the dataclass
        #: construction cost on the hot path.
        self._loc_cache: Dict[int, Location] = {}
        # Shared data-pin state.
        self._last_column_cycle = -10
        self._last_was_write: Optional[bool] = None
        # Functional storage, keyed by local word index (a PVA system
        # passes in the bank's own dict).
        self.storage: Dict[int, int] = {} if storage is None else storage
        self.reads = 0
        self.writes = 0
        self.turnarounds = 0
        #: Optional command recorder (see repro.sim.trace_log); None by
        #: default so the hot path pays nothing.
        self.log = None
        # Auto-refresh bookkeeping (section 2.2: DRAM charge leaks and
        # every row must be refreshed periodically).
        self._next_refresh = refresh if refresh > 0 else None
        self.refreshes = 0

    # ----------------------------------------------------------------- #
    # Geometry
    # ----------------------------------------------------------------- #

    @property
    def last_was_write(self) -> Optional[bool]:
        """Direction of the most recent data transfer on the pins (None
        before any transfer) — input to the scheduler's polarity rule."""
        return self._last_was_write

    def locate(self, local_word: int) -> Location:
        """Map a local word index to (internal bank, row, column).

        Consecutive rows rotate internal banks, so streams that walk local
        addresses linearly alternate row buffers.
        """
        loc = self._loc_cache.get(local_word)
        if loc is None:
            if self.has_rows:
                row_seq = local_word >> self._row_bits
                loc = Location(
                    internal_bank=row_seq & self._ib_mask,
                    row=row_seq >> self._ib_bits,
                    column=local_word & self._row_mask,
                )
            else:
                loc = Location(internal_bank=0, row=0, column=local_word)
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
        if self.has_rows:
            loc = self.locate(local_word)
            if not self.banks[loc.internal_bank].can_column(cycle, loc.row):
                return False
        return self.data_pins_ready(cycle, is_write)

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
        datum appears on the pins (``cycle`` plus the timing's
        ``read_latency``) and the stored value; for writes, the cycle the
        write data lands (plus its ``write_latency``) and ``None``.
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
        if self.has_rows:
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
            self.storage[local_word] = value
            self.writes += 1
            return cycle + self.timing.write_latency, None
        self.reads += 1
        return cycle + self.timing.read_latency, self.storage.get(local_word, 0)

    # ----------------------------------------------------------------- #
    # Statistics
    # ----------------------------------------------------------------- #

    def stats(self) -> DeviceStats:
        return DeviceStats(
            activates=sum(b.activates for b in self.banks),
            precharges=sum(b.precharges for b in self.banks),
            auto_precharges=sum(b.auto_precharges for b in self.banks),
            reads=self.reads,
            writes=self.writes,
            turnarounds=self.turnarounds,
        )
