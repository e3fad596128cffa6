"""The structure-of-arrays bank automaton: how the fast backend steps
every bank of a PVA system.

At broadcast time every bank's work is already resolved — its slice of
the command's hit table (:mod:`repro.pva.schedule`).  What the reference
backend steps per cycle is the *object graph*: sixteen
``BankController``/``InternalBank``/``Restimer`` trees, ticked bank by
bank.  This module models the same banks as one table-driven automaton:

* restimer deadlines (activate/column/precharge ready-at), open rows,
  refresh deadlines, FHC occupancy and next-event cycles live in flat
  ``array('q')`` parallel arrays indexed by ``bank`` (or
  ``bank * internal_banks + ib``);
* vector contexts are small mutable lists (cursor state only: every
  request carries its command's shared
  :class:`~repro.pva.schedule.HitTable` and its bank's slice of it, so
  no ``device.locate`` decode is ever needed);
* one kernel component (:class:`SoaBankAutomaton`) settles and reports
  all sixteen ``bank-*`` attribution-ledger entries, and advances the
  kernel's skip bound with a single ``min()`` over the deadline array.

**Ownership.**  A fast :class:`~repro.pva.system.PVAMemorySystem` builds
the automaton over its per-bank storage dicts, which the walk writes in
place, and its command-log slots; it builds no device model.  The
automaton takes every timing from its memory's record (``params.sdram``
or ``params.sram``, whose ``has_rows`` says whether rows, internal banks
and refresh exist), and owns all other bank state and keeps it across
runs: open rows, restimer deadlines, pin state, refresh deadlines, FHC
occupancy, the row-policy state its policy reads, and the device
counters.  Each run binds its front end and bus
(:meth:`SoaBankAutomaton.bind`) and drops them on every exit.

**Run-ahead batching.**  Banks interact with the rest of the system only
through broadcasts (input, applied at the front end's call cycle) and
column issues reported into the front end's transaction table (output:
element counts, the last data cycle and, for ``capture_data`` reads, the
gathered values; the automaton keeps no staging slots of its own).  Each
:meth:`SoaBankAutomaton.tick` therefore walks every due bank, in one
loop, through a whole *batch* of its events ahead of kernel time, up to

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
5. *Ledger.*  Each bank books busy and idle cycles only: every action
   adds its cost to busy, and a bank whose FIFO and window empty opens
   an idle span that lasts until a broadcast queues work for it (a
   refresh inside the span is busy).  Every other cycle is stalled, so
   :meth:`SoaBankAutomaton.account` returns ``stalled = total - busy -
   idle`` at the run's total cycle count: exactly the reference bank
   component's classification.

**Column issues.**  A probe that fires no row operation issues ``run >=
1`` columns of one vector context, one per cycle, through one tail.  A
*burst* is the ``run > 1`` case: when every in-flight context sits on
its open row and the oldest one can issue, that context's same-row run
issues at once, capped by ``h``, the refresh deadline and the FIFO
head's ready cycle; otherwise the polarity walk picks one column.
Only the policies that cannot close a row inside a run burst: ``paper``
(ManageRow keeps a row open while a same-row hit is ahead), ``open``
and a rowless SRAM.  ``open`` and ``close`` have a fixed auto-precharge
answer (never, always) and no per-column state, so the walk never asks
them; ``paper`` evaluates ManageRow (:meth:`SoaBankAutomaton._decide_ap`)
at the run's last column, the only one that can close the row, and
``history``, which learns from every access, is asked at every column.

**Command logs.**  When a bank's log slot holds a
:class:`~repro.sim.trace_log.CommandLog`, the walk records each
PRECHARGE, ACTIVATE and READ/WRITE(_AP) it issues with the fields the
device model writes (a burst logs one column per cycle, only its last
carrying the auto-precharge); an unlogged run pays one ``is not None``
test per walk action.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CapacityError, ProtocolError
from repro.pva.schedule import (
    HitTable,
    broadcast_schedules,
    pairs_schedule,
    schedule_cache_info,
    schedule_geometry,
)
from repro.pva.rowpolicy import HistoryPolicy
from repro.sdram.commands import SDRAMCommand
from repro.sdram.devstats import DeviceStats
from repro.sim.events import HORIZON
from repro.sim.stats import ComponentCycles
from repro.sim.trace_log import CommandEvent

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

#: The auto-precharge answer of each row policy that has a fixed one:
#: open never closes a row and close always does, whatever the predict
#: lines say, and neither keeps per-column state.
_FIXED_AP = {"open": False, "close": True}

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
    """All bank controllers of one fast system, stepped as flat-array
    operations.

    ``storage`` and ``logs`` are the system's per-bank memory dicts and
    command-log slots (``None``: unlogged), read in place, so a log
    attached between runs records the next one.  Each run registers the
    automaton with the kernel, between :meth:`bind` and :meth:`unbind`,
    as a single component that reports the sixteen ``bank-*`` ledger
    entries.
    """

    name = "banks"

    def __init__(self, storage, logs, params, pla, timing):
        n = len(storage)
        self.n = n
        self.storage = storage
        self.logs = logs
        self.front = self.bus = None

        self.read_lat = timing.read_latency
        #: Cycles from a write column to its data landing.
        self.t_wr = timing.write_latency
        self.has_rows = timing.has_rows
        if self.has_rows:
            self.nib = timing.internal_banks
            self.t_rcd = timing.t_rcd
            self.t_rp = timing.t_rp
            self.t_rfc = timing.t_rfc
            self.refresh_interval = timing.refresh_interval
            col_mask = timing.row_words - 1
        else:
            self.nib = 1
            self.t_rcd = self.t_rp = self.t_rfc = 0
            self.refresh_interval = 0
            col_mask = -1  # a rowless memory logs the whole local word
        #: Logged column address: ``local_word & col_mask``.
        self.col_mask = col_mask
        self.ta = params.bus_turnaround
        self.fifo_depth = params.request_fifo_depth
        self.max_ctx = params.num_vector_contexts
        self.bypass = params.bypass_paths
        #: FirstHit Calculate multiply-add latency (section 5.2.3).
        self.calc_latency = params.fhc_latency
        self.num_banks = params.num_banks
        self.bank_bits = params.bank_bits
        self._pla = pla
        self._geom = schedule_geometry(timing)

        nib = self.nib
        nu = n * nib
        # -- per-internal-bank state (index u = bank * nib + ib) -------
        self.orow = array("q", [-1]) * nu  # open row, -1 = closed
        self.act = array("q", bytes(8 * nu))  # activate ready-at
        self.col = array("q", bytes(8 * nu))  # column ready-at
        self.pre = array("q", bytes(8 * nu))  # precharge ready-at
        self.ib_act = array("q", bytes(8 * nu))
        self.ib_pre = array("q", bytes(8 * nu))
        self.ib_ap = array("q", bytes(8 * nu))
        # -- per-bank state --------------------------------------------
        interval = self.refresh_interval
        #: Next refresh deadline (HORIZON: the device never refreshes).
        self.nr = array("q", [interval if interval > 0 else HORIZON]) * n
        #: Device pin state: the last column's cycle (-10, as the device
        #: models start, clears every turnaround at cycle 0) and its
        #: direction (-1 none, 0 read, 1 write).
        self.last_col = array("q", [-10]) * n
        self.last_dir = array("q", [-1]) * n
        self.calc_busy = array("q", bytes(8 * n))  # FHC busy-until
        self.reads = array("q", bytes(8 * n))
        self.writes = array("q", bytes(8 * n))
        self.turnarounds = array("q", bytes(8 * n))

        # -- mutable structures ----------------------------------------
        self._rqf: List[deque] = [deque() for _ in range(n)]
        self._win: List[list] = [[] for _ in range(n)]
        policy = params.row_policy
        self.paper = policy == "paper"
        #: The walk's answer when it need not ask the policy (a rowless
        #: memory never auto-precharges), else None: ``_decide_ap`` asks
        #: ManageRow or the history predictor, and only then is there
        #: row-policy state to keep.
        self.fixed_ap = _FIXED_AP.get(policy) if self.has_rows else False
        #: Same-row runs burst unless the policy may close a row early.
        self.burst = self.paper or self.fixed_ap is False
        if self.fixed_ap is None:
            #: Per bank and internal bank: is the last activated row
            #: still unread?
            self.asc = [[False] * nib for _ in range(n)]
            if self.paper:
                #: ManageRow's autoprecharge predictor bits, and the row
                #: of the last activate it trains on.
                self.predict = [[False] * nib for _ in range(n)]
                self.lrs = [[None] * nib for _ in range(n)]
            else:
                self.policies = [HistoryPolicy(nib) for _ in range(n)]

    def bind(self, front, bus) -> None:
        """Start a run: attach its front end and bus, and open a fresh
        ledger.  No work is queued between runs, so each bank's only
        standing event is its refresh deadline."""
        n = self.n
        self.front = front
        self.bus = bus
        self.outstanding = front.outstanding
        self.fully_issued = front.fully_issued
        self.ncmds = len(front.commands)
        self.bound = array("q", self.nr)  # next-event candidate
        # -- attribution ledger: busy and idle; the rest is stalled ----
        self.busy_c = array("q", bytes(8 * n))
        self.idle_c = array("q", bytes(8 * n))
        #: Start of the bank's open idle span, -1 while work is queued.
        self.idle_since = array("q", bytes(8 * n))

    def unbind(self) -> None:
        """End a run: drop the front end and bus, so the system keeps no
        reference cycle through them."""
        self.front = self.bus = self.outstanding = self.fully_issued = None

    def stage_read(self, txn) -> None:
        """STAGE_READ needs no merge: the walk gathered ``capture_data``
        values straight into ``txn.line``."""

    def retire_write(self, txn_id: int) -> None:
        """A retired write holds no bank-side buffer to release."""

    def device_stats(self) -> DeviceStats:
        """Device operation counts summed over every bank, from the
        system's first run (or last ``reset()``) on."""
        return DeviceStats(
            activates=sum(self.ib_act),
            precharges=sum(self.ib_pre),
            auto_precharges=sum(self.ib_ap),
            reads=sum(self.reads),
            writes=sum(self.writes),
            turnarounds=sum(self.turnarounds),
        )

    # ------------------------------------------------------------- #
    # Kernel component protocol
    # ------------------------------------------------------------- #

    def tick(self, cycle: int) -> bool:
        """Walk every bank whose next-event candidate lies below the
        broadcast horizon ``h`` up to (but excluding) ``h``, in one loop
        with every shared array held in a local, and leave ``bound[b]``
        at each bank's next candidate.  Returns True iff any event (even
        one ahead of kernel time) was processed: run-ahead mutates
        completion-visible state, so the kernel's bound cache must be
        voided.

        The loop fuses BankController.tick's refresh and dequeue, the
        scheduler's row pass and column issue, and the next-event bound:
        a failing probe accumulates the cycle each blocked timer frees,
        so it costs one walk, not two, and after an action the next
        probe lands on the action's floor (``t + cost``).  A burst is
        exact when the policy allows it, every in-flight context sits on
        its open row and the oldest one can issue: no row operation can
        fire before its same-row run ends (row ops need a row mismatch,
        and contexts only move when they issue), the oldest context
        matches the pin polarity every cycle, and the object model
        provably issues one of its columns per cycle.  A capped run still
        has same-row hits ahead, so only a run's last column can close
        its row.
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
        nr = self.nr
        rqfs = self._rqf
        wins = self._win
        storages = self.storage
        logs = self.logs
        orow = self.orow
        act = self.act
        col = self.col
        pre = self.pre
        busy_c = self.busy_c
        idle_since = self.idle_since
        last_col_a = self.last_col
        last_dir_a = self.last_dir
        has_rows = self.has_rows
        nib = self.nib
        max_ctx = self.max_ctx
        ta = self.ta
        t_wr = self.t_wr
        t_rp = self.t_rp
        t_rcd = self.t_rcd
        fixed_ap = self.fixed_ap
        burst = self.burst
        paper = self.paper
        # Only ManageRow on SDRAM trains on a request's first operation.
        issued = not (paper and has_rows)
        outstanding = self.outstanding
        fully_issued = self.fully_issued
        for b in range(self.n):
            t = bound[b]
            if t >= h:
                continue
            rqf = rqfs[b]
            win = wins[b]
            base_u = b * nib
            storage = storages[b]
            log = logs[b]
            while True:
                deadline = nr[b]
                if not rqf and not win:
                    # Only the refresh deadline can act, and with no
                    # pending work it may not run ahead of kernel time:
                    # the object model's run can exit before a tail
                    # refresh ever fires.
                    if deadline > cycle:
                        bound[b] = deadline
                        break
                    t = deadline
                elif t >= h:
                    bound[b] = t
                    break
                if t >= deadline:
                    # Auto-refresh consumes its cycle before any
                    # scheduler work, exactly at the deadline
                    # (BankController.tick checks maybe_refresh first and
                    # the kernel always visits the deadline cycle).
                    self._do_refresh(b, deadline)
                    acted = True
                    t = deadline + 1
                    continue
                # ---- one probed cycle: BankController.tick sans refresh
                # ``nb`` accumulates the next-event bound along every
                # *failing* branch (the candidate cycle each blocked
                # timer frees); an action discards it for the floor.
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
                                issued,
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
                    #    also deciding burst eligibility: every context
                    #    on its open row means no row op can preempt.
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
                                    if fixed_ap is None:
                                        self.asc[b][ib] = True
                                        if paper:
                                            self.lrs[b][ib] = row
                                    self.ib_act[u] += 1
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
                            burst
                            and all_open
                            and t > last_col
                            and (
                                last_dir < 0
                                or w == last_dir
                                or t >= last_col + 1 + ta
                            )
                            and (not has_rows or t >= col[base_u + vc[2][pos]])
                        ):
                            # -- burst: the oldest context's same-row run
                            run = vc[4][pos] - pos
                            cap = h - t
                            if deadline - t < cap:
                                cap = deadline - t
                            if rqf and nwin < max_ctx:
                                # The object model dequeues the next FIFO
                                # head at its ready cycle (>= t+1: at
                                # most one dequeue per cycle, and this
                                # cycle's already happened).
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
                                pins = last_col + 1
                                if not matches:
                                    pins += ta
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
                            #    device.column_at + note_issue, fused):
                            #    one column per cycle from t to ``end``
                            if has_rows:
                                ib = vc[2][pos]
                                row = vc[3][pos]
                            else:
                                ib = row = 0
                            if not vc[10]:
                                self._note_first(b, vc, ib)
                            stop = pos + run
                            end = t + run - 1
                            ap = fixed_ap
                            if ap is None:
                                ap = self._decide_ap(b, vc, stop - 1, ib, row, win)
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
                            vc[5] = stop
                            if stop == vc[6]:
                                del win[position]
                            cost = run
                if cost or progressed:
                    # -- action tail: book the cost busy; a bank left
                    #    with no work opens an idle span.
                    if cost == 0:
                        cost = 1
                    busy_c[b] += cost
                    acted = True
                    # After a burst of `cost` columns the cursor only
                    # clears the run at t + cost — nothing (in particular
                    # no row operation for the next element) may fire
                    # inside it.
                    floor = t + cost
                    if not rqf and not win:
                        idle_since[b] = floor
                    if floor >= h:
                        bound[b] = floor
                        break
                    t = floor
                    continue
                # ---- failed probe: jump to the accumulated bound ------
                t = nb if nb > t else t + 1
        return acted

    def next_event_cycle(self, cycle: int) -> int:
        """Single min-reduction over the per-bank deadline array."""
        target = min(self.bound)
        return target if target > cycle else cycle

    def account(self, total_cycles: int) -> Dict[str, ComponentCycles]:
        """Close every bank's open idle span at ``total_cycles`` and
        return the ``bank-*`` entries; every cycle neither busy nor idle
        was stalled."""
        out: Dict[str, ComponentCycles] = {}
        for b in range(self.n):
            busy = self.busy_c[b]
            idle = self.idle_c[b]
            since = self.idle_since[b]
            if 0 <= since < total_cycles:
                idle += total_cycles - since
            out[f"bank-{b}"] = ComponentCycles(
                busy=busy,
                stalled=total_cycles - busy - idle,
                idle=idle,
            )
        return out

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
        as ``BankDevice.column_at`` logs them; only the last carries the
        auto-precharge."""
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
        """BankDevice.maybe_refresh at ``cycle``: book the refresh
        cycle busy (cutting it out of an open idle span), then close
        every row, block activates for ``t_rfc`` and advance the
        deadline."""
        self.busy_c[b] += 1
        since = self.idle_since[b]
        if since >= 0:
            self.idle_c[b] += cycle - since
            self.idle_since[b] = cycle + 1
        orow = self.orow
        act = self.act
        release = cycle + self.t_rfc
        base_u = b * self.nib
        for u in range(base_u, base_u + self.nib):
            orow[u] = -1
            if release > act[u]:
                act[u] = release
        self.nr[b] = cycle + self.refresh_interval

    def _note_first(self, b: int, vc: list, internal_bank: int) -> None:
        """AccessScheduler._note_first_operation: train ManageRow's
        predictor on a request's very first operation (no other policy
        learns from it, so their contexts start with the flag set)."""
        self.predict[b][internal_bank] = (
            self.lrs[b][vc[C_FIB]] != vc[C_FROW]
        )
        vc[C_ISSUED] = True

    def _decide_ap(
        self, b: int, vc: list, pos: int, internal_bank: int, row: int, win: list
    ) -> bool:
        """AccessScheduler._decide_auto_precharge (the ManageRow lines)
        for ``vc``'s column at ``pos`` under the paper and history
        policies; the self-term reads the precomputed run end instead of
        decoding the next address live.

        Every other context still sits where it was, so a paper-policy
        burst asks once, at its last column: each column before it has a
        same-row hit ahead and keeps the row open, and the paper policy
        has no per-column state beyond ``asc``."""
        asc = self.asc[b]
        paper = self.paper
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
        run the FHP/FHC ready-cycle pipeline, append the FIFO entry,
        close the bank's idle span and lower its next-event bound.
        Returns the summed element count."""
        offsets = table.offsets
        rqfs = self._rqf
        wins = self._win
        bound = self.bound
        idle_since = self.idle_since
        idle_c = self.idle_c
        calc_busy = self.calc_busy
        fifo_depth = self.fifo_depth
        max_ctx = self.max_ctx
        bypass = self.bypass
        calc_latency = self.calc_latency
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
                if calc_busy[b] > first:
                    first = calc_busy[b]
                finish = first + calc_latency
                calc_busy[b] = finish
                ready = finish if (bypass and idle) else finish + 1
            rqf.append((ready, txn_id, iw, write_line, table, start, end))
            since = idle_since[b]
            if since >= 0:
                # The bank shows "stalled" from the broadcast call cycle
                # on (a reference bank, ticked after the front end, sees
                # the FIFO entry that same cycle); before it, idle.
                if call_cycle > since:
                    idle_c[b] += call_cycle - since
                idle_since[b] = -1
            if len(rqf) == 1 and len(win) < max_ctx and ready < bound[b]:
                bound[b] = ready
            total += expected
        return total
