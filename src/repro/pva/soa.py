"""The structure-of-arrays bank automaton: how the fast backend steps
every bank of a PVA run.

At broadcast time every bank's work is already resolved — its slice of
the command's hit table (:mod:`repro.pva.schedule`).  What the reference
backend still steps per cycle is the *object graph*: sixteen
``BankController``/``InternalBank``/``Restimer`` trees, each ticked
through the kernel's component dispatch.  This module collapses all of
them into one table-driven automaton:

* restimer deadlines (activate/column/precharge ready-at), open rows,
  refresh deadlines, FHC occupancy and next-event cycles live in flat
  ``array('q')`` parallel arrays indexed by ``bank`` (or
  ``bank * internal_banks + ib``);
* vector contexts are small mutable lists (cursor state only: every
  request carries its command's shared
  :class:`~repro.pva.schedule.HitTable` and its bank's slice of it, so
  no ``device.locate`` decode is ever needed);
* one kernel component (:class:`SoaBankAutomaton`) speaks for all
  sixteen ``bank-*`` attribution-ledger entries via the kernel's
  self-accounting protocol, and advances the kernel's skip bound with a
  single ``min()`` over the deadline array.

The automaton models exactly the :class:`~repro.sdram.device.SDRAMDevice`
and :class:`~repro.sram.device.SRAMDevice` banks of a system whose
previous run finished; its constructor raises
:class:`~repro.errors.ConfigurationError` on anything else, never falls
back.

**Run-ahead batching.**  Banks interact with the rest of the system only
through broadcasts (input, applied at the front end's call cycle) and
column issues reported into the front end's transaction table (output:
element counts, the last data cycle and, for ``capture_data`` reads, the
gathered values; the automaton keeps no staging slots of its own).  Each
:meth:`SoaBankAutomaton.tick` therefore processes a whole *batch* of
bank events ahead of kernel time, up to

``h = max(cycle + 1, bus.busy_until, front.next_issue_allowed)``

(or unbounded once the command trace is drained) — a proven lower bound
on the next broadcast call cycle, because the front end ticks first in
registration order and both terms are monotone and only front-mutated.
Within ``[bound, h)`` nothing external can change a bank's inputs, so
replaying its event chain early is exact.

**Cycle-exactness argument** (the invariants the differential suite
pins down):

1. *Action cycles.*  Each candidate cycle is probed with a
   decision-for-decision mirror of ``BankController.tick`` /
   ``AccessScheduler.tick``; the next candidate after an action is the
   action's floor, and after a failed probe at ``t`` the earliest cycle
   any blocking timer (a restimer, the data pins, the FIFO head's ready
   cycle, the refresh deadline) frees, or ``t + 1``.  A conservative
   candidate degrades to a denser probe walk, never to a different
   action cycle.
2. *Refresh.*  The object model fires auto-refresh at exactly the
   deadline (the reference loop ticks every bank on every cycle); the
   automaton fires it when a candidate reaches the deadline — the same
   cycle — and, with no pending work, only once kernel time itself
   reaches the deadline (matching the run exiting before tail refreshes
   ever fire).
3. *Completion.*  Column issues are recorded into the front end's
   transaction table at batch time (early), but retirement additionally
   requires ``cycle >= last_data_cycle`` — and every issue cycle is
   ``<=`` its data cycle — so transactions retire at the identical
   kernel cycle and a STAGE_READ hands over a line only after its data
   genuinely arrived.
4. *Broadcast state.*  At a broadcast call cycle every batch has run
   strictly past its events (``h`` of the previous batches is a lower
   bound on the call cycle), so the FIFO/window/idle state the broadcast
   observes equals the object model's.
5. *Ledger.*  Per-bank busy/stalled/idle counters are settled span-wise:
   action cycles are busy, quiet spans are stalled iff the FIFO or
   window was non-empty after the preceding action (``pending``),
   exactly ``_BankComponent.account``'s classification, which is
   visited-cycle invariant.  The kernel merges the buckets at
   ``finalize`` through the self-accounting protocol.

**Column issues.**  A probe that fires no row operation issues ``run >=
1`` columns of one vector context, one per cycle, through one tail.  A
*burst* is the ``run > 1`` case: when every in-flight context sits on
its open row and the oldest one can issue, that context's same-row run
issues at once, capped by ``h``, the refresh deadline and the FIFO
head's ready cycle; otherwise the polarity walk picks one column.  The
auto-precharge is ManageRow (:meth:`SoaBankAutomaton._decide_ap`)
evaluated at the run's last column, the only one that can close the
row.

**Command logs.**  When a bank's device carries a
:class:`~repro.sim.trace_log.CommandLog`, the walk records each
PRECHARGE, ACTIVATE and READ/WRITE(_AP) it issues with the fields the
device models write (a burst logs one column per cycle, only its last
carrying the auto-precharge); an unlogged run pays one ``is not None``
test per walk action.

On any exit from :meth:`PVAMemorySystem.run` the automaton writes the
array state back into the object graph (:meth:`writeback`), so device
statistics, storage peeks and back-to-back runs behave identically to
the reference backend.  In-flight FIFO entries and vector contexts are
not reconstructed as objects — they are empty on every successful run,
and after a mid-run exception (watchdog timeout, injected fault) the
object graph is defined only well enough to be inspected; the system
refuses another run until ``reset()``.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CapacityError, ConfigurationError, ProtocolError
from repro.pva.schedule import (
    HitTable,
    broadcast_schedules,
    pairs_schedule,
    schedule_cache_info,
)
from repro.pva.rowpolicy import PaperPolicy
from repro.sdram.commands import SDRAMCommand
from repro.sdram.device import SDRAMDevice
from repro.sim.events import HORIZON
from repro.sim.stats import ComponentCycles
from repro.sim.trace_log import CommandEvent
from repro.sram.device import SRAMDevice

__all__ = ["SoaBankAutomaton", "soa_cache_info"]

# Vector-context slot layout: a context is a flat mutable list, the
# SoA replacement for repro.pva.vector_context.VectorContext.  Slots
# 0-4 are columns of the command's (immutable, shared) hit table; the
# cursor is an absolute position into them, running up to the end of
# this bank's slice.  The hot loop reads slots by number; the helpers
# name the ones they read.
#    0 local_words    1 indices    2 ibanks    3 rows    4 run_end
#    5 cursor position         6 end of the bank's slice (exclusive)
#    7 transaction id          8 1 = write, 0 = read
#    9 staged write line (tuple) or None
#   10 has the first operation been issued?
#   11, 12 first element's internal bank and row (predictor training)
C_IB = 2
C_ROW = 3
C_RUN = 4
C_POS = 5
C_END = 6
C_ISSUED = 10
C_FIB = 11
C_FROW = 12

# Request-FIFO entry layout (replaces repro.pva.request.BCRequest), a
# tuple read by number:
#    0 ready cycle (FHP/FHC pipeline + bypass timing)
#    1 transaction id    2 1 = write, 0 = read    3 write line or None
#    4 the command's HitTable    5, 6 the bank's slice of it: [start, end)


def soa_cache_info():
    """Statistics of the table memo this automaton's broadcasts read
    (the same memo :func:`repro.pva.schedule.schedule_cache_info`
    reports).  This function stays here because the benchmark
    (perfbench/) looks it up in this module."""
    return schedule_cache_info()


class SoaBankAutomaton:
    """All bank controllers of one run, stepped as flat-array operations.

    Registers with the kernel as a single self-accounting component
    (``ledger_names`` = the sixteen ``bank-*`` entries); construction
    loads the object graph's state into the arrays, :meth:`writeback`
    restores it.  Construction raises
    :class:`~repro.errors.ConfigurationError` on banks the automaton
    does not model: a device other than ``SDRAMDevice``/``SRAMDevice``,
    mixed models or geometries, or queued work left by an earlier run.
    """

    name = "banks"

    def __init__(self, banks, front, bus, params):
        device_type = type(banks[0].device)
        if device_type is not SDRAMDevice and device_type is not SRAMDevice:
            raise ConfigurationError(
                f'sim_mode="fast" models SDRAMDevice and SRAMDevice banks '
                f"only, not {device_type.__name__}; run this system with "
                f'sim_mode="reference"'
            )
        geometry = banks[0].device.schedule_geometry
        for bank in banks:
            if (
                type(bank.device) is not device_type
                or bank.device.schedule_geometry != geometry
            ):
                raise ConfigurationError(
                    'sim_mode="fast" needs one device model and geometry '
                    'on every bank; run this system with sim_mode="reference"'
                )
            if bank.rqf or bank.scheduler.window:
                raise ConfigurationError(
                    f"bank {bank.bank} still holds queued work; call "
                    f"reset() before running the system again"
                )
        n = len(banks)
        self.n = n
        self.banks = banks
        self.front = front
        self.bus = bus
        self.outstanding = front.outstanding
        self.fully_issued = front.fully_issued
        self.ncmds = len(front.commands)
        self.ledger_names = tuple(f"bank-{bank.bank}" for bank in banks)

        device0 = banks[0].device
        self.has_rows = bool(device0.has_rows)
        self.nib = device0.timing.internal_banks if self.has_rows else 1
        if self.has_rows:
            timing = device0.timing
            self.t_rcd = timing.t_rcd
            self.t_rp = timing.t_rp
            self.t_rfc = timing.t_rfc
            self.read_lat = timing.cas_latency
            self.refresh_interval = timing.refresh_interval
            col_mask = timing.row_words - 1
        else:
            self.t_rcd = self.t_rp = self.t_rfc = 0
            self.read_lat = device0.timing.access_cycles
            self.refresh_interval = 0
            col_mask = -1  # the SRAM logs the whole local word
        #: Logged column address: ``local_word & col_mask``.
        self.col_mask = col_mask
        self.logs = [bank.device.log for bank in banks]
        #: The scheduler stamps write data cycles with the *SDRAM* write
        #: recovery even when the device is SRAM (see
        #: AccessScheduler._issue_column) — mirror that exactly.
        self.t_wr = params.sdram.t_wr
        self.ta = device0.bus_turnaround
        self.fifo_depth = params.request_fifo_depth
        self.max_ctx = params.num_vector_contexts
        self.bypass = params.bypass_paths
        self.fhc_latency = params.fhc_latency
        self.num_banks = params.num_banks
        self.bank_bits = params.bank_bits
        self._pla = banks[0].fhp.pla
        self._geom = device0.schedule_geometry

        nu = n * self.nib
        # -- per-internal-bank state (index u = bank * nib + ib) -------
        self.orow = array("q", [-1]) * nu  # open row, -1 = closed
        self.act = array("q", bytes(8 * nu))  # activate ready-at
        self.col = array("q", bytes(8 * nu))  # column ready-at
        self.pre = array("q", bytes(8 * nu))  # precharge ready-at
        self.ib_act = array("q", bytes(8 * nu))
        self.ib_pre = array("q", bytes(8 * nu))
        self.ib_ap = array("q", bytes(8 * nu))
        # -- per-bank state --------------------------------------------
        self.bound = array("q", bytes(8 * n))  # next-event candidate
        self.nr = array("q", bytes(8 * n))  # next refresh deadline
        self.last_col = array("q", bytes(8 * n))  # device pin state
        self.last_dir = array("q", bytes(8 * n))  # -1 none, 0 R, 1 W
        self.fhc_busy = array("q", bytes(8 * n))
        self.fhc_calcs = array("q", bytes(8 * n))
        self.reads = array("q", bytes(8 * n))
        self.writes = array("q", bytes(8 * n))
        self.turnarounds = array("q", bytes(8 * n))
        self.refreshes = array("q", bytes(8 * n))
        self.sched_act = array("q", bytes(8 * n))
        self.sched_pre = array("q", bytes(8 * n))
        self.sched_col = array("q", bytes(8 * n))
        # -- attribution ledger ----------------------------------------
        self.busy_c = array("q", bytes(8 * n))
        self.stalled_c = array("q", bytes(8 * n))
        self.idle_c = array("q", bytes(8 * n))
        self.acct = array("q", bytes(8 * n))  # settled-to cycle
        self.pending = [False] * n  # rqf/window non-empty after acct

        # -- shared mutable structures (no writeback needed) -----------
        self._rqf: List[deque] = [deque() for _ in range(n)]
        self._win: List[list] = [[] for _ in range(n)]
        self.storage = [bank.device._storage for bank in banks]
        self.policies = [bank.scheduler.policy for bank in banks]
        self.paper = [type(p) is PaperPolicy for p in self.policies]
        self.predict = [
            p.autoprecharge_predict if type(p) is PaperPolicy else None
            for p in self.policies
        ]
        self.lrs = [bank.scheduler._last_row_seen for bank in banks]
        self.asc = [bank.scheduler._activated_since_column for bank in banks]

        # -- load the object graph's current state ---------------------
        nib = self.nib
        for b, bank in enumerate(banks):
            device = bank.device
            self.last_col[b] = device._last_column_cycle
            lww = device._last_was_write
            self.last_dir[b] = -1 if lww is None else int(lww)
            self.reads[b] = device.reads
            self.writes[b] = device.writes
            self.turnarounds[b] = device.turnarounds
            self.fhc_busy[b] = bank.fhc._busy_until
            self.fhc_calcs[b] = bank.fhc.calculations
            self.sched_act[b] = bank.scheduler.activates
            self.sched_pre[b] = bank.scheduler.precharges
            self.sched_col[b] = bank.scheduler.columns
            if self.has_rows:
                self.refreshes[b] = device.refreshes
                nxt = device._next_refresh
                self.nr[b] = HORIZON if nxt is None else nxt
                base_u = b * nib
                for ib, internal in enumerate(device.banks):
                    u = base_u + ib
                    row = internal.open_row
                    self.orow[u] = -1 if row is None else row
                    self.act[u] = internal._activate_timer._ready_at
                    self.col[u] = internal._column_timer._ready_at
                    self.pre[u] = internal._precharge_timer._ready_at
                    self.ib_act[u] = internal.activates
                    self.ib_pre[u] = internal.precharges
                    self.ib_ap[u] = internal.auto_precharges
            else:
                self.nr[b] = HORIZON
            # No queued work at load time (checked above): the only
            # standing event is the refresh deadline.
            self.bound[b] = self.nr[b]

    # ------------------------------------------------------------- #
    # Kernel component protocol
    # ------------------------------------------------------------- #

    def tick(self, cycle: int) -> bool:
        """Run every bank's event batch up to the broadcast horizon.

        Returns True iff any event (even one ahead of kernel time) was
        processed — run-ahead mutates completion-visible state, so the
        kernel's bound cache must be voided.
        """
        front = self.front
        if front.next_cmd < self.ncmds:
            h = front.next_issue_allowed
            busy = self.bus.busy_until
            if busy > h:
                h = busy
            nxt = cycle + 1
            if nxt > h:
                h = nxt
        else:
            h = HORIZON
        acted = False
        bound = self.bound
        run_bank = self._run_bank
        for b in range(self.n):
            if bound[b] < h and run_bank(b, cycle, h):
                acted = True
        return acted

    def next_event_cycle(self, cycle: int) -> int:
        """Single min-reduction over the per-bank deadline array."""
        target = min(self.bound)
        return target if target > cycle else cycle

    def account(self, start: int, end: int) -> Tuple[int, int, int]:
        """Constant-cost placeholder: the automaton is self-accounting
        (the kernel discards this split; see SimKernel.register)."""
        return (0, 0, end - start)

    def finalize_ledger(self, total_cycles: int) -> Dict[str, ComponentCycles]:
        """Close every bank's busy/stalled/idle ledger at
        ``total_cycles`` and return the ``bank-*`` entries."""
        out: Dict[str, ComponentCycles] = {}
        for b in range(self.n):
            self._settle(b, total_cycles)
            self.acct[b] = total_cycles
            out[f"bank-{b}"] = ComponentCycles(
                busy=self.busy_c[b],
                stalled=self.stalled_c[b],
                idle=self.idle_c[b],
            )
        return out

    # ------------------------------------------------------------- #
    # Batch stepping
    # ------------------------------------------------------------- #

    def _settle(self, b: int, upto: int) -> None:
        """Attribute the quiet span ``[acct, upto)``: stalled while work
        was pending after the last action, idle otherwise."""
        acct = self.acct[b]
        if upto > acct:
            if self.pending[b]:
                self.stalled_c[b] += upto - acct
            else:
                self.idle_c[b] += upto - acct

    def _run_bank(self, b: int, now: int, h: int) -> bool:
        """Process bank ``b``'s events from its stored candidate up to
        (but excluding) ``h``; leave ``bound[b]`` at the next candidate.
        Returns True iff any event was processed.

        This is the fused hot loop: BankController.tick's refresh and
        dequeue, the scheduler's row pass, its column issue and the
        next-event bound inlined with every array held in a local.  Two
        load-bearing fusions:

        * The next-event bound is accumulated *during* a failing probe
          (every blocked candidate records the cycle its timer frees)
          instead of by a separate scan, so a failed probe costs one
          walk, not two; after an action the next probe simply lands on
          the action's floor (``t + cost``).
        * A column issue covers ``run >= 1`` columns, one per cycle.  It
          is a **burst** (``run > 1``) when every in-flight context sits
          on its open row and the oldest one can issue: then no row
          operation can fire before its same-row run ends (row ops need
          a row mismatch, and contexts only move when they issue), the
          oldest context matches the pin polarity every cycle, and the
          object model provably issues one of its columns per cycle.
          The run is capped at the batch horizon ``h``, the refresh
          deadline and the FIFO head's ready cycle.  Otherwise the
          polarity walk picks one column.  Both take one issue tail,
          whose auto-precharge is ManageRow evaluated at the run's last
          column — the only column of a burst that can close the row (a
          capped run still has same-row hits ahead, so it stays open).
        """
        bound = self.bound
        nr = self.nr
        rqf = self._rqf[b]
        win = self._win[b]
        orow = self.orow
        act = self.act
        col = self.col
        pre = self.pre
        busy_c = self.busy_c
        stalled_c = self.stalled_c
        idle_c = self.idle_c
        acct = self.acct
        pending = self.pending
        last_col_a = self.last_col
        last_dir_a = self.last_dir
        has_rows = self.has_rows
        max_ctx = self.max_ctx
        ta = self.ta
        t_wr = self.t_wr
        t_rp = self.t_rp
        t_rcd = self.t_rcd
        base_u = b * self.nib
        burst_ok = self.paper[b] or not has_rows
        storage = self.storage[b]
        log = self.logs[b]
        outstanding = self.outstanding
        fully_issued = self.fully_issued
        processed = False
        t = bound[b]
        while True:
            deadline = nr[b]
            if not rqf and not win:
                # Only the refresh deadline can act, and with no pending
                # work it may not run ahead of kernel time: the object
                # model's run can exit before a tail refresh ever fires.
                if deadline > now:
                    bound[b] = deadline
                    return processed
                t = deadline
            elif t >= h:
                bound[b] = t
                return processed
            if t >= deadline:
                # Auto-refresh consumes its cycle before any scheduler
                # work, exactly at the deadline (BankController.tick
                # checks maybe_refresh first and the kernel always
                # visits the deadline cycle).
                self._do_refresh(b, deadline)
                processed = True
                t = deadline + 1
                continue
            # ---- one probed cycle: BankController.tick sans refresh --
            # ``nb`` accumulates the next-event bound along every
            # *failing* branch (the candidate cycle each blocked timer
            # frees); an action discards it in favour of the floor.
            progressed = False
            nwin = len(win)
            nb = deadline
            if rqf and nwin < max_ctx:
                ready = rqf[0][0]
                if ready <= t:
                    head = rqf.popleft()
                    table = head[4]
                    first = head[5]
                    win.append(
                        # VectorContext.__init__, cursor mode.
                        [
                            table.local_words,
                            table.indices,
                            table.ibanks,
                            table.rows,
                            table.run_end,
                            first,
                            head[6],
                            head[1],
                            head[2],
                            head[3],
                            False,
                            table.ibanks[first],
                            table.rows[first],
                        ]
                    )
                    progressed = True
                    nwin += 1
                elif ready < nb:
                    nb = ready
            cost = 0
            if nwin:
                # -- row pass (AccessScheduler._try_row_operation),
                #    also deciding burst eligibility: every context on
                #    its open row means no row op can preempt a burst.
                all_open = True
                if has_rows:
                    position = 0
                    for vc in win:
                        pos = vc[5]
                        ib = vc[2][pos]
                        row = vc[3][pos]
                        u = base_u + ib
                        open_row = orow[u]
                        if open_row == row:
                            position += 1
                            continue
                        all_open = False
                        if open_row >= 0:
                            if position != 0 and self._hits_open(
                                win, vc, ib, open_row
                            ):
                                position += 1
                                continue
                            x = pre[u]
                            if t >= x:
                                # precharge: InternalBank._close(t)
                                orow[u] = -1
                                release = t + t_rp
                                if release > act[u]:
                                    act[u] = release
                                self.ib_pre[u] += 1
                                self.sched_pre[b] += 1
                                if log is not None:
                                    log.record(
                                        CommandEvent(
                                            cycle=t,
                                            command=SDRAMCommand.PRECHARGE,
                                            internal_bank=ib,
                                        )
                                    )
                                cost = 1
                                break
                            if x < nb:
                                nb = x
                        else:
                            x = act[u]
                            if t >= x:
                                if not vc[10]:
                                    self._note_first(b, vc, ib)
                                orow[u] = row
                                hold = t + t_rcd
                                if hold > col[u]:
                                    col[u] = hold
                                if hold > pre[u]:
                                    pre[u] = hold
                                self.lrs[b][ib] = row
                                self.asc[b][ib] = True
                                self.ib_act[u] += 1
                                self.sched_act[b] += 1
                                if log is not None:
                                    log.record(
                                        CommandEvent(
                                            cycle=t,
                                            command=SDRAMCommand.ACTIVATE,
                                            internal_bank=ib,
                                            row=row,
                                        )
                                    )
                                cost = 1
                                break
                            if x < nb:
                                nb = x
                        position += 1
                if cost == 0:
                    # -- pick what to issue: ``run`` columns of the
                    #    context at ``position`` in the window.
                    last_col = last_col_a[b]
                    last_dir = last_dir_a[b]
                    vc = win[0]
                    pos = vc[5]
                    w = vc[8]
                    position = 0
                    run = 0
                    if (
                        burst_ok
                        and all_open
                        and t > last_col
                        and (
                            last_dir < 0
                            or w == last_dir
                            or t >= last_col + 1 + ta
                        )
                        and (not has_rows or t >= col[base_u + vc[2][pos]])
                    ):
                        # -- burst: the oldest context's same-row run --
                        run = vc[4][pos] - pos
                        cap = h - t
                        if deadline - t < cap:
                            cap = deadline - t
                        if rqf and nwin < max_ctx:
                            # The object model dequeues the next FIFO
                            # head at its ready cycle (>= t+1: at most
                            # one dequeue per cycle, and this cycle's
                            # already happened).
                            slack = rqf[0][0] - t
                            if slack < 1:
                                slack = 1
                            if slack < cap:
                                cap = slack
                        if run > cap:
                            run = cap
                    else:
                        # -- polarity walk (AccessScheduler._try_column):
                        #    at most one column; blocked open-row
                        #    contexts feed the bound.
                        for vc in win:
                            w = vc[8]
                            matches = last_dir < 0 or w == last_dir
                            if not matches and position != 0:
                                # A polarity reversal pends upstream.
                                break
                            pins = (
                                last_col + 1 if matches else last_col + 1 + ta
                            )
                            pos = vc[5]
                            if has_rows:
                                u = base_u + vc[2][pos]
                                if orow[u] == vc[3][pos]:
                                    x = col[u]
                                    if pins > x:
                                        x = pins
                                    if t >= x:
                                        run = 1
                                        break
                                    if x < nb:
                                        nb = x
                            elif t >= pins:
                                run = 1
                                break
                            elif pins < nb:
                                nb = pins
                            if not matches:
                                break
                            position += 1
                    if run:
                        # -- issue (AccessScheduler._issue_column +
                        #    device.column_at + note_issue, fused): one
                        #    column per cycle from t to ``end`` ---------
                        if has_rows:
                            ib = vc[2][pos]
                            row = vc[3][pos]
                        else:
                            ib = row = 0
                        if not vc[10]:
                            self._note_first(b, vc, ib)
                        stop = pos + run
                        end = t + run - 1
                        ap = has_rows and self._decide_ap(
                            b, vc, stop - 1, ib, row, win
                        )
                        if last_dir >= 0 and w != last_dir:
                            self.turnarounds[b] += 1
                        last_col_a[b] = end
                        last_dir_a[b] = w
                        if has_rows:
                            u = base_u + ib
                            hold = end + 1 + t_wr if w else end + 1
                            if hold > pre[u]:
                                pre[u] = hold
                            if ap:
                                orow[u] = -1
                                release = hold + t_rp
                                if release > act[u]:
                                    act[u] = release
                                self.ib_ap[u] += 1
                        local_words = vc[0]
                        indices = vc[1]
                        if w:
                            line = vc[9]
                            for k in range(pos, stop):
                                storage[local_words[k]] = line[indices[k]]
                            self.writes[b] += run
                            data_cycle = end + t_wr
                        else:
                            self.reads[b] += run
                            data_cycle = end + self.read_lat
                        if log is not None:
                            self._log_columns(
                                log, t, w, ib, row, local_words[pos:stop], ap
                            )
                        txn = outstanding.get(vc[7])
                        if txn is None:
                            raise ProtocolError(
                                f"bank {b} issued for unknown "
                                f"transaction {vc[7]}"
                            )
                        gathered = txn.line
                        if gathered is not None:
                            get = storage.get
                            for k in range(pos, stop):
                                gathered[indices[k]] = get(local_words[k], 0)
                        txn.done += run
                        if data_cycle > txn.last_data_cycle:
                            txn.last_data_cycle = data_cycle
                        if txn.done >= txn.expected:
                            fully_issued.append(txn)
                        self.sched_col[b] += run
                        vc[10] = True
                        vc[5] = stop
                        if stop == vc[6]:
                            del win[position]
                        cost = run
            if cost or progressed:
                a = acct[b]
                if t > a:
                    if pending[b]:
                        stalled_c[b] += t - a
                    else:
                        idle_c[b] += t - a
                if cost == 0:
                    cost = 1
                busy_c[b] += cost
                acct[b] = t + cost
                pending[b] = True if rqf or win else False
                processed = True
                # After a burst of `cost` columns the cursor only clears
                # the run at t + cost — nothing (in particular no row
                # operation for the next element) may fire inside it.
                floor = t + cost
                if floor >= h:
                    bound[b] = floor
                    return True
                t = floor
                continue
            # ---- failed probe: jump to the accumulated bound ---------
            t = nb if nb > t else t + 1

    def _log_columns(
        self,
        log,
        t: int,
        w: int,
        ib: int,
        row: int,
        words: Sequence[int],
        auto_precharge: bool,
    ) -> None:
        """Record columns to ``words`` issued one per cycle from ``t``,
        as ``SDRAMDevice.column_at`` (or ``SRAMDevice.column``) logs
        them; only the last carries the auto-precharge."""
        plain = SDRAMCommand.column(w)
        closing = SDRAMCommand.column(w, auto_precharge)
        mask = self.col_mask
        last = len(words) - 1
        for k, word in enumerate(words):
            log.record(
                CommandEvent(
                    cycle=t + k,
                    command=closing if k == last else plain,
                    internal_bank=ib,
                    row=row,
                    column=word & mask,
                )
            )

    def _do_refresh(self, b: int, cycle: int) -> None:
        """SDRAMDevice.maybe_refresh at ``cycle``: settle the ledger up
        to it and book the refresh cycle busy, then close every row,
        block activates for ``t_rfc`` and advance the deadline.  The
        bank's ``pending`` flag stands: it already says whether work is
        queued."""
        self._settle(b, cycle)
        self.busy_c[b] += 1
        self.acct[b] = cycle + 1
        orow = self.orow
        act = self.act
        release = cycle + self.t_rfc
        base_u = b * self.nib
        for u in range(base_u, base_u + self.nib):
            orow[u] = -1
            if release > act[u]:
                act[u] = release
        self.nr[b] = cycle + self.refresh_interval
        self.refreshes[b] += 1

    def _note_first(self, b: int, vc: list, internal_bank: int) -> None:
        """AccessScheduler._note_first_operation: train the predictor on
        a request's very first operation."""
        row_continues = self.lrs[b][vc[C_FIB]] == vc[C_FROW]
        if self.paper[b]:
            self.predict[b][internal_bank] = not row_continues
        else:
            self.policies[b].note_first_operation(
                internal_bank, row_continues
            )
        vc[C_ISSUED] = True

    def _decide_ap(
        self, b: int, vc: list, pos: int, internal_bank: int, row: int, win: list
    ) -> bool:
        """AccessScheduler._decide_auto_precharge (the ManageRow lines)
        for ``vc``'s column at ``pos``; the self-term reads the
        precomputed run end instead of decoding the next address live.

        Every other context still sits where it was, so a burst asks
        once, at its last column: each column before it has a same-row
        hit ahead and keeps the row open, and the paper policy has no
        per-column state beyond ``asc``."""
        asc = self.asc[b]
        paper = self.paper[b]
        if not paper:
            self.policies[b].observe_access(
                internal_bank, not asc[internal_bank]
            )
        asc[internal_bank] = False
        more_hits = vc[C_RUN][pos] > pos + 1
        if not more_hits:
            for other in win:
                if other is vc:
                    continue
                opos = other[C_POS]
                if (
                    other[C_IB][opos] == internal_bank
                    and other[C_ROW][opos] == row
                ):
                    more_hits = True
                    break
        if paper:
            # PaperPolicy.decide, with close_predicted evaluated lazily
            # (it has no side effects and only gates the last access).
            if more_hits:
                return False
            if pos + 1 == vc[C_END]:
                return self._close_predicted(
                    win, internal_bank, row
                ) or self.predict[b][internal_bank]
            return True
        return self.policies[b].decide(
            internal_bank=internal_bank,
            last_of_request=pos + 1 == vc[C_END],
            more_hits=more_hits,
            close_predicted=self._close_predicted(win, internal_bank, row),
        )

    @staticmethod
    def _close_predicted(win: list, internal_bank: int, row: int) -> bool:
        """``bank_close_predict``: some context needs a different row in
        this internal bank.  (The issuing context never matches its own
        coordinates, so no exclusion is needed.)"""
        for vc in win:
            pos = vc[C_POS]
            if vc[C_IB][pos] == internal_bank and vc[C_ROW][pos] != row:
                return True
        return False

    @staticmethod
    def _hits_open(win: list, exclude: list, internal_bank: int, open_row: int) -> bool:
        """``bank_hit_predict``: another context's current address hits
        the row open in ``internal_bank``."""
        for vc in win:
            if vc is exclude:
                continue
            pos = vc[C_POS]
            if vc[C_IB][pos] == internal_bank and vc[C_ROW][pos] == open_row:
                return True
        return False

    def broadcast_vector(
        self,
        txn_id: int,
        vector,
        is_write: bool,
        cycle: int,
        write_line: Optional[Tuple[int, ...]],
        call_cycle: int,
    ) -> int:
        """All banks observe one VEC_READ / VEC_WRITE: the SoA
        counterpart of looping BankController.broadcast over the banks.
        ``cycle`` is the delivery cycle (last broadcast bus cycle),
        ``call_cycle`` the front end's current cycle (ledger anchor).
        Returns the summed element count."""
        table = broadcast_schedules(
            vector.base,
            vector.stride,
            vector.length,
            self.num_banks,
            self._geom,
        )
        return self._queue(
            txn_id,
            table,
            is_write,
            cycle,
            write_line,
            call_cycle,
            self._pla.entry(vector.stride).power_of_two,
        )

    def broadcast_explicit(
        self,
        txn_id: int,
        addresses: Tuple[int, ...],
        is_write: bool,
        cycle: int,
        write_line: Optional[Tuple[int, ...]],
        call_cycle: int,
    ) -> int:
        """All banks observe an explicit scatter/gather command: the SoA
        counterpart of looping BankController.broadcast_explicit over the
        banks, each snooping the address stream for its own elements."""
        mask = self.num_banks - 1
        shift = self.bank_bits
        per_bank: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.num_banks)
        ]
        for index, address in enumerate(addresses):
            per_bank[address & mask].append((address >> shift, index))
        return self.broadcast_pairs(
            txn_id, per_bank, is_write, cycle, write_line, None, call_cycle
        )

    def broadcast_pairs(
        self,
        txn_id: int,
        per_bank: Sequence[Sequence[Tuple[int, int]]],
        is_write: bool,
        cycle: int,
        write_line: Optional[Tuple[int, ...]],
        stride: Optional[int],
        call_cycle: int,
    ) -> int:
        """All banks observe pre-partitioned elements: ``per_bank[b]``
        lists bank ``b``'s ``(local_word, index)`` pairs (explicit snoop
        with ``stride=None``, or the cache-line/block interleave front
        end with the real stride's FHP/FHC timing)."""
        table = pairs_schedule(per_bank, self._geom)
        power_of_two = (
            None if stride is None else self._pla.entry(stride).power_of_two
        )
        return self._queue(
            txn_id,
            table,
            is_write,
            cycle,
            write_line,
            call_cycle,
            power_of_two,
        )

    def _queue(
        self,
        txn_id: int,
        table: HitTable,
        is_write: bool,
        cycle: int,
        write_line: Optional[Tuple[int, ...]],
        call_cycle: int,
        power_of_two: Optional[bool],
    ) -> int:
        """Common broadcast tail, every bank that owns elements in turn:
        run the FHP/FHC ready-cycle pipeline, append the FIFO entry and
        maintain the ledger and the next-event bound.  Returns the
        summed element count."""
        offsets = table.offsets
        rqfs = self._rqf
        wins = self._win
        bound = self.bound
        acct = self.acct
        pending = self.pending
        idle_c = self.idle_c
        fhc_busy = self.fhc_busy
        fifo_depth = self.fifo_depth
        max_ctx = self.max_ctx
        bypass = self.bypass
        fhc_latency = self.fhc_latency
        iw = int(is_write)
        total = 0
        for b in range(self.n):
            start = offsets[b]
            end = offsets[b + 1]
            expected = end - start
            if expected == 0:
                continue
            rqf = rqfs[b]
            if len(rqf) >= fifo_depth:
                raise CapacityError(
                    f"bank {b}: request FIFO overflow "
                    f"(depth {fifo_depth})"
                )
            win = wins[b]
            if power_of_two is None:
                # Explicit snoop: ready one cycle after the broadcast ends.
                ready = cycle + 1
            elif power_of_two:
                # FHP shift/mask path (+ FHP-to-VC bypass when idle).
                idle = not rqf and not win
                ready = cycle + 1 if (bypass and idle) else cycle + 2
            else:
                # FirstHitCalculator.schedule: serial multiply-add.
                idle = not rqf and not win
                first = cycle + 1
                if fhc_busy[b] > first:
                    first = fhc_busy[b]
                finish = first + fhc_latency
                fhc_busy[b] = finish
                self.fhc_calcs[b] += 1
                ready = finish if (bypass and idle) else finish + 1
            rqf.append((ready, txn_id, iw, write_line, table, start, end))
            if not pending[b]:
                # The bank shows "stalled" from the broadcast call cycle
                # on (_BankComponent.account sees the FIFO entry that
                # same kernel cycle); everything before it was idle.
                a = acct[b]
                if call_cycle > a:
                    idle_c[b] += call_cycle - a
                    acct[b] = call_cycle
                pending[b] = True
            if len(rqf) == 1 and len(win) < max_ctx and ready < bound[b]:
                bound[b] = ready
            total += expected
        return total

    # ------------------------------------------------------------- #
    # Writeback
    # ------------------------------------------------------------- #

    def writeback(self) -> None:
        """Restore the object graph from the arrays so statistics,
        functional peeks and subsequent runs (any backend) see exactly
        the state the run produced.  Safe to call on any exit path."""
        nib = self.nib
        for b, bank in enumerate(self.banks):
            device = bank.device
            device._last_column_cycle = self.last_col[b]
            last_dir = self.last_dir[b]
            device._last_was_write = None if last_dir < 0 else bool(last_dir)
            device.reads = self.reads[b]
            device.writes = self.writes[b]
            device.turnarounds = self.turnarounds[b]
            bank.fhc._busy_until = self.fhc_busy[b]
            bank.fhc.calculations = self.fhc_calcs[b]
            scheduler = bank.scheduler
            scheduler.activates = self.sched_act[b]
            scheduler.precharges = self.sched_pre[b]
            scheduler.columns = self.sched_col[b]
            if self.has_rows:
                device.refreshes = self.refreshes[b]
                if device._next_refresh is not None:
                    device._next_refresh = self.nr[b]
                base_u = b * nib
                for ib, internal in enumerate(device.banks):
                    u = base_u + ib
                    row = self.orow[u]
                    internal.open_row = None if row < 0 else row
                    internal._activate_timer._ready_at = self.act[u]
                    internal._column_timer._ready_at = self.col[u]
                    internal._precharge_timer._ready_at = self.pre[u]
                    internal.activates = self.ib_act[u]
                    internal.precharges = self.ib_pre[u]
                    internal.auto_precharges = self.ib_ap[u]
