"""The Access Scheduler (SCHED) with its Scheduling Policy Units.

Responsibilities (section 5.2.2): expand each vector request's address
series, order the stream of read/write/activate/precharge operations,
make row open/close decisions, and drive the SDRAM — at most one operation
per cycle over the shared AC datapath, with the oldest pending operations
given priority (the daisy-chained arbitration).

The scheduling heuristics implemented here are the paper's:

* **Promotion** — row activates and precharges are promoted above reads
  and writes as long as they do not conflict with an open row that some
  other vector context still wants (the ``bank_hit_predict`` wired-OR).
  The oldest context may precharge even over younger objections, which
  both matches the daisy-chain priority and guarantees forward progress.
* **Polarity rule** (section 5.2.4) — a context may issue a read/write
  out of order only if no older pending context has the opposite data
  direction; the oldest pending context may reverse the bus polarity
  (paying the turnaround the device model enforces).
* **Row management** (the ``ManageRow`` algorithm) — on each column
  access, decide between auto-precharge and leaving the row open using
  the more-hit / close predict lines and a one-bit-per-internal-bank
  autoprecharge predictor that is trained on row continuity between
  consecutive vector requests.

Every predict line needs the (internal bank, row) coordinates of each
context's current address, decoded live with ``device.locate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.params import SystemParams
from repro.pva.request import BCRequest
from repro.pva.rowpolicy import make_row_policy
from repro.pva.vector_context import VectorContext

__all__ = ["IssuedColumn", "AccessScheduler"]


@dataclass(slots=True)
class IssuedColumn:
    """A column (data-moving) operation issued this cycle, reported back to
    the bank controller so it can route data to the staging units.

    One is built per simulated column access — the hottest allocation in
    the simulator — so it trades ``frozen`` enforcement for the cheap
    plain-``__init__`` of a slots dataclass."""

    txn_id: int
    is_write: bool
    index: int
    data_cycle: int
    value: Optional[int]
    auto_precharge: bool
    completed_request: bool


class AccessScheduler:
    """One bank controller's SCHED module: a window of vector contexts
    plus the policy logic that drives the memory device."""

    __slots__ = (
        "params",
        "device",
        "bank",
        "window",
        "policy",
        "_last_row_seen",
        "_activated_since_column",
        "activates",
        "precharges",
        "columns",
        "acted",
        "_max_contexts",
        "_has_rows",
    )

    def __init__(self, params: SystemParams, device, bank: int):
        self.params = params
        self.device = device
        self.bank = bank
        self.window: List[VectorContext] = []  # oldest first
        num_ib = params.sdram.internal_banks if device.has_rows else 1
        self.policy = make_row_policy(params.row_policy, num_ib)
        self._last_row_seen: List[Optional[int]] = [None] * num_ib
        self._activated_since_column = [False] * num_ib
        self._max_contexts = params.num_vector_contexts
        self._has_rows = device.has_rows
        #: Did the last tick() issue any device operation (row or column)?
        #: The bank controller folds this into its own acted flag so the
        #: simulation kernel's dispatch gate sees row operations too.
        self.acted = False
        # Statistics
        self.activates = 0
        self.precharges = 0
        self.columns = 0

    # ----------------------------------------------------------------- #
    # Window management
    # ----------------------------------------------------------------- #

    @property
    def is_idle(self) -> bool:
        return not self.window

    def inject(self, req: BCRequest, cycle: int) -> None:
        """Place a dequeued request into the youngest vector context."""
        self.window.append(VectorContext(req, cycle))

    # ----------------------------------------------------------------- #
    # Predict lines
    # ----------------------------------------------------------------- #

    def _vc_hits_open_row(self, internal_bank: int, exclude: VectorContext) -> bool:
        """``bank_hit_predict``: does any other context's current address
        hit the row currently open in ``internal_bank``?"""
        open_row = self.device.open_row(internal_bank)
        if open_row is None:
            return False
        for vc in self.window:
            if vc is exclude or vc.remaining == 0:
                continue
            loc = self.device.locate(vc.local_addr)
            if loc.internal_bank == internal_bank and loc.row == open_row:
                return True
        return False

    def _more_hits_predicted(
        self, internal_bank: int, row: int, exclude: VectorContext
    ) -> bool:
        """``bank_morehit_predict``: will some context access (ib, row)
        after the operation now issuing?  Considers every other context's
        current address and the issuing context's own next address."""
        next_addr = exclude.next_local_addr
        if next_addr is not None:
            loc = self.device.locate(next_addr)
            if loc.internal_bank == internal_bank and loc.row == row:
                return True
        for vc in self.window:
            if vc is exclude or vc.remaining == 0:
                continue
            loc = self.device.locate(vc.local_addr)
            if loc.internal_bank == internal_bank and loc.row == row:
                return True
        return False

    def _close_predicted(self, internal_bank: int, row: int) -> bool:
        """``bank_close_predict``: does some context need a *different*
        row in this internal bank?"""
        for vc in self.window:
            if vc.remaining == 0:
                continue
            loc = self.device.locate(vc.local_addr)
            if loc.internal_bank == internal_bank and loc.row != row:
                return True
        return False

    # ----------------------------------------------------------------- #
    # Per-cycle scheduling
    # ----------------------------------------------------------------- #

    def tick(self, cycle: int) -> Optional[IssuedColumn]:
        """Issue at most one SDRAM operation; return column details (for
        data routing) or ``None`` for activates/precharges/idle cycles."""
        if not self.window:
            self.acted = False
            return None
        if self._has_rows and self._try_row_operation(cycle):
            self.acted = True
            return None
        issued = self._try_column(cycle)
        self.acted = issued is not None
        return issued

    def _try_row_operation(self, cycle: int) -> bool:
        """Promoted activates/precharges, oldest context first."""
        device = self.device
        banks = device.banks
        for position, vc in enumerate(self.window):
            if vc.remaining == 0:
                continue
            loc = device.locate(vc.local_addr)
            ib = loc.internal_bank
            row = loc.row
            bank = banks[ib]
            open_row = bank.open_row
            if open_row == row:
                continue
            if open_row is not None:
                blocked = self._vc_hits_open_row(ib, exclude=vc)
                # The oldest context may close the row over younger
                # objections (daisy-chain priority / forward progress).
                if blocked and position != 0:
                    continue
                if bank.can_precharge(cycle):
                    device.precharge(ib, cycle)
                    self.precharges += 1
                    return True
            else:
                if bank.can_activate(cycle):
                    if not vc.issued_any:
                        self._note_first_operation(vc, ib)
                    device.activate(vc.local_addr, cycle)
                    self._last_row_seen[ib] = row
                    self._activated_since_column[ib] = True
                    self.activates += 1
                    return True
        return False

    def _try_column(self, cycle: int) -> Optional[IssuedColumn]:
        """Column issue under the polarity (data-hazard) rule."""
        device = self.device
        last_was_write = device.last_was_write
        position = 0
        for vc in self.window:
            if vc.remaining == 0:
                continue
            matches = last_was_write is None or vc.is_write == last_was_write
            if not matches and position != 0:
                # A polarity reversal is pending in an older context;
                # younger contexts may not overtake it.
                break
            if device.can_column(vc.local_addr, cycle, vc.is_write):
                return self._issue_column(vc, cycle)
            if not matches:
                # The oldest context needs a reversal but cannot issue
                # yet (turnaround/row not ready); nothing younger may go.
                break
            position += 1
        return None

    def _issue_column(self, vc: VectorContext, cycle: int) -> IssuedColumn:
        loc = self.device.locate(vc.local_addr)
        ib = loc.internal_bank
        row = loc.row
        if not vc.issued_any:
            self._note_first_operation(vc, ib)
        auto_precharge = (
            self._decide_auto_precharge(vc, ib, row)
            if self._has_rows
            else False
        )
        is_write = vc.is_write
        value = vc.write_value() if is_write else None
        data_cycle, read_value = self.device.column_at(
            vc.local_addr,
            ib,
            row,
            cycle,
            is_write,
            auto_precharge=auto_precharge,
            value=value,
        )
        index = vc.index
        txn_id = vc.req.txn_id
        vc.advance()
        completed = vc.remaining == 0
        if completed:
            self.window.remove(vc)
        self.columns += 1
        return IssuedColumn(
            txn_id,
            is_write,
            index,
            data_cycle if not is_write else cycle + self.params.sdram.t_wr,
            read_value,
            auto_precharge,
            completed,
        )

    # ----------------------------------------------------------------- #
    # Row management (the ManageRow algorithm)
    # ----------------------------------------------------------------- #

    def _note_first_operation(self, vc: VectorContext, internal_bank: int) -> None:
        """Train the autoprecharge predictor on the very first operation
        of a new vector request: remember whether the request's first row
        continues the row last used in its internal bank."""
        if vc.issued_any:
            return
        first_loc = self.device.locate(vc.req.local_first)
        row_continues = (
            self._last_row_seen[first_loc.internal_bank] == first_loc.row
        )
        self.policy.note_first_operation(internal_bank, row_continues)
        vc.issued_any = True

    def _decide_auto_precharge(
        self, vc: VectorContext, internal_bank: int, row: int
    ) -> bool:
        """Close the row with this access, or leave it open?"""
        row_hit = not self._activated_since_column[internal_bank]
        self._activated_since_column[internal_bank] = False
        self.policy.observe_access(internal_bank, row_hit)
        return self.policy.decide(
            internal_bank=internal_bank,
            last_of_request=vc.remaining == 1,
            more_hits=self._more_hits_predicted(internal_bank, row, exclude=vc),
            close_predicted=self._close_predicted(internal_bank, row),
        )
