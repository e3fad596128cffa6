"""The Bank Controller (BC): one per memory bank (section 5.2.2).

Ties together the parallelizing logic (FirstHit Predict, Request FIFO /
Register File, FirstHit Calculate), the access scheduler with its vector
contexts, and the staging units.  Each BC owns one memory device (a
:class:`~repro.sdram.device.BankDevice`, SDRAM module or idealized SRAM)
and is driven by the PVA front end:

* :meth:`broadcast` — the BC's view of a VEC_READ / VEC_WRITE on the bus;
* :meth:`tick` — one clock of scheduler work, returning any column
  operation issued so the front end can track transaction completion;
* :meth:`drain_read` / :meth:`release_write` — the STAGE_READ merge and
  write-buffer release.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.core.pla import K1PLA
from repro.errors import CapacityError
from repro.params import SystemParams
from repro.pva.fhp import FirstHitCalculator, FirstHitPredictor
from repro.pva.request import BCRequest

# The explicit-table builder stays importable from here, where the
# benchmark's tracer (perfbench/trace.py) looks it up; the bank
# controllers themselves expand FirstHit/NextHit live.
from repro.pva.schedule import pairs_schedule  # noqa: F401
from repro.pva.scheduler import AccessScheduler, IssuedColumn
from repro.pva.staging import ReadStagingUnit, WriteStagingUnit
from repro.types import Vector

__all__ = ["BankController"]


class BankController:
    """One bank's parallelizing logic, scheduler and staging units."""

    __slots__ = (
        "bank",
        "params",
        "device",
        "fhp",
        "fhc",
        "rqf",
        "scheduler",
        "read_staging",
        "write_staging",
        "acted",
        "_check_refresh",
    )

    def __init__(self, bank: int, params: SystemParams, device, pla: K1PLA):
        self.bank = bank
        self.params = params
        self.device = device
        self.fhp = FirstHitPredictor(bank, params, pla)
        self.fhc = FirstHitCalculator(params)
        self.rqf: Deque[BCRequest] = deque()
        self.scheduler = AccessScheduler(params, device, bank)
        self.read_staging = ReadStagingUnit(params.max_transactions)
        self.write_staging = WriteStagingUnit(params.max_transactions)
        #: Did the last tick() change any state (refresh, dequeue, row or
        #: column operation)?  The system component reads this instead of
        #: diffing operation counters.
        self.acted = False
        #: Refresh is consulted per tick only when the device actually
        #: schedules refreshes (None-ness of next_refresh_cycle is fixed
        #: at construction).
        self._check_refresh = device.next_refresh_cycle is not None

    # ----------------------------------------------------------------- #
    # Bus-side interface
    # ----------------------------------------------------------------- #

    @property
    def is_idle(self) -> bool:
        """No queued requests and no active vector contexts."""
        return not self.rqf and self.scheduler.is_idle

    def broadcast(
        self,
        txn_id: int,
        vector: Vector,
        is_write: bool,
        cycle: int,
        write_line: Optional[Tuple[int, ...]] = None,
    ) -> int:
        """Observe a vector command on the BC bus.

        Performs the FHP evaluation in the broadcast cycle, opens the
        staging buffer (expected count may be zero), and — when this bank
        owns elements — queues a register-file entry whose ``ready_cycle``
        encodes the FHP/FHC pipeline and bypass paths.

        Returns this bank's element count for the transaction.
        """
        sub = self.fhp.predict(vector)
        expected = 0 if sub is None else sub.count
        ready_cycle = self._admit(
            txn_id, is_write, expected, cycle, vector.stride
        )
        if ready_cycle is None:
            return 0
        req = BCRequest(
            txn_id=txn_id,
            vector=vector,
            is_write=is_write,
            sub=sub,
            local_first=self.fhp.local_address(sub.first_address),
            local_step=self.fhp.local_step(sub),
            acc=True,
            ready_cycle=ready_cycle,
            write_line=write_line,
        )
        self.rqf.append(req)
        return expected

    def broadcast_explicit(
        self,
        txn_id: int,
        addresses: Tuple[int, ...],
        is_write: bool,
        cycle: int,
        write_line: Optional[Tuple[int, ...]] = None,
    ) -> int:
        """Observe an explicit scatter/gather command (vector-indirect or
        bit-reversed, chapter 7).

        The bank snoops the broadcast address stream and bit-masks out its
        own elements — no FirstHit evaluation, so the request is ready one
        cycle after the broadcast finishes.  Returns the element count.
        """
        mask = self.params.num_banks - 1
        shift = self.params.bank_bits
        mine = tuple(
            (address >> shift, index)
            for index, address in enumerate(addresses)
            if (address & mask) == self.bank
        )
        return self.broadcast_pairs(
            txn_id, mine, is_write, cycle, write_line=write_line
        )

    def broadcast_pairs(
        self,
        txn_id: int,
        pairs: Tuple[Tuple[int, int], ...],
        is_write: bool,
        cycle: int,
        write_line: Optional[Tuple[int, ...]] = None,
        stride: Optional[int] = None,
    ) -> int:
        """Queue a request whose owned elements were determined outside
        the word-interleave FirstHit path, as ``(local_word, index)``
        pairs in index order.

        Two users: the explicit-command snoop path (``stride=None`` —
        ready one cycle after the broadcast), and the cache-line/block
        interleaved front end of section 4.1.3, where ``W*N`` logical
        FirstHit units per bank controller produce the pairs; the latter
        passes the stride so the FHP/FHC pipeline timing (power-of-two
        fast path, multiply-add otherwise, bypass paths) applies exactly
        as in the word-interleaved unit.
        """
        expected = len(pairs)
        ready_cycle = self._admit(txn_id, is_write, expected, cycle, stride)
        if ready_cycle is None:
            return 0
        self.rqf.append(
            BCRequest(
                txn_id=txn_id,
                vector=None,
                is_write=is_write,
                sub=None,
                local_first=pairs[0][0],
                local_step=0,
                acc=True,
                ready_cycle=ready_cycle,
                write_line=write_line,
                explicit=pairs,
            )
        )
        return expected

    def _admit(
        self,
        txn_id: int,
        is_write: bool,
        expected: int,
        cycle: int,
        stride: Optional[int],
    ) -> Optional[int]:
        """The enqueue steps every broadcast shares: open the staging
        slot (an empty one too) and, if the bank owns elements, check the
        FIFO and return the request's ready cycle (else None).  An
        explicit snoop (``stride=None``) is ready after the broadcast;
        FHP shift/masks a power-of-two stride (the FHP-to-VC bypass saves
        the RQF write when idle); FHC multiply-adds any other.
        """
        if is_write:
            self.write_staging.open(txn_id, expected)
        else:
            self.read_staging.open(txn_id, expected)
        if expected == 0:
            return None
        if len(self.rqf) >= self.params.request_fifo_depth:
            raise CapacityError(
                f"bank {self.bank}: request FIFO overflow "
                f"(depth {self.params.request_fifo_depth})"
            )
        idle = self.is_idle
        if stride is None:
            return cycle + 1
        if self.fhp.stride_is_power_of_two(stride):
            if self.params.bypass_paths and idle:
                return cycle + 1
            return cycle + 2
        return self.fhc.schedule(cycle + 1, idle)

    # ----------------------------------------------------------------- #
    # Clock
    # ----------------------------------------------------------------- #

    def tick(self, cycle: int) -> Optional[IssuedColumn]:
        """One cycle of bank-controller work.

        Dequeues at most one ACC-complete request into a free vector
        context, then lets the access scheduler issue at most one SDRAM
        operation.  Issued columns are routed to the staging units and
        reported to the caller for transaction accounting.
        """
        if self._check_refresh and self.device.maybe_refresh(cycle):
            self.acted = True
            return None  # the device is refreshing; no command this cycle
        progressed = False
        sched = self.scheduler
        if self.rqf and len(sched.window) < sched._max_contexts:
            head = self.rqf[0]
            if head.ready_cycle <= cycle:
                self.rqf.popleft()
                sched.inject(head, cycle)
                progressed = True
        issued = sched.tick(cycle)
        if issued is not None:
            self.acted = True
            if issued.is_write:
                self.write_staging.commit(issued.txn_id, issued.data_cycle)
            else:
                self.read_staging.collect(
                    issued.txn_id, issued.index, issued.value or 0, issued.data_cycle
                )
        else:
            self.acted = sched.acted or progressed
        return issued

    # ----------------------------------------------------------------- #
    # Staging-side interface
    # ----------------------------------------------------------------- #

    def read_complete(self, txn_id: int, cycle: int) -> bool:
        """This bank's transaction-complete line for a read."""
        return self.read_staging.complete(txn_id, cycle)

    def write_complete(self, txn_id: int, cycle: int) -> bool:
        """This bank's transaction-complete line for a write."""
        return self.write_staging.complete(txn_id, cycle)

    def drain_read(self, txn_id: int) -> List[Tuple[int, int]]:
        """STAGE_READ: hand over ``(index, value)`` pairs and free the
        buffer."""
        return self.read_staging.drain(txn_id)

    def release_write(self, txn_id: int) -> None:
        self.write_staging.release(txn_id)
