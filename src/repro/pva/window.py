"""Closed-form broadcast-window resolution: the fast backend's default path.

The SoA automaton (:mod:`repro.pva.soa`) made bank events *cheap*; this
automaton removes them.  Between broadcasts a bank's
service timeline is fully determined by its slice of the command's
precomputed :class:`~repro.pva.schedule.HitTable` and the live restimer
deadlines: the table's ``run_end`` markers say which same-row runs will
issue, and each run costs at most one precharge, at most one activate,
and then streams its columns back to back.  So instead of probing
candidate cycles one by one, the window backend charges one whole
service chain **arithmetically** per resolution:

* step through the remaining slice run by run (each element's
  ``run_end`` marker, precomputed at broadcast time, is where its
  same-row run ends);
* walk the runs once, charging each a precharge/activate/CAS chain as a
  prefix sum over run lengths against *virtual* copies of the restimer
  deadlines (``max(cursor, timer)`` per row operation, ``max(cursor,
  column-ready, pin-turnaround)`` for the first column of a run — the
  same values the event walk's probe/jump loop converges to, computed
  directly);
* derive the chain's completion cycle, then commit everything at once:
  write data, transaction accounting, device counters,
  timer state, and the busy/stalled ledger as **bulk deltas** through
  the kernel's :meth:`~repro.sim.kernel.SimKernel.bulk_account` API;
* leave ``bound[b]`` at the completion cycle so the kernel fast-forwards
  to the next front-end event in one jump.

**Mid-chain dequeues.**  The event walk admits the next FIFO entry into
the context window at the first probe at or after its ready cycle — and
because failing probes jump through the head's ready cycle and column
bursts are clipped at it, that probe lands at exactly ``max(ready,
previous probe + 1)``.  The closed form therefore *materializes* those
dequeues instead of rejecting the chain: each admitted entry joins the
window at commit time, its dequeue probe is charged one busy cycle when
it coincides with no chain action, and the next resolution serves it as
the new oldest context.  This is exact only while the younger contexts
are provably **inert** during the current chain, which the gate below
enforces; the common case — every in-flight request targeting the same
internal bank on mutually distinct rows, precisely the back-to-back
read/write pattern of the paper's dense-stride workloads — passes, and
each context's chain is then charged sequentially at full closed-form
speed.  A younger context that could act is one that shares an internal
bank *and* a row with the chain (it could slip columns into the open
row) or sits on a different internal bank (its row operations could
overlap the chain): both fall back.  One refinement keeps the common
write-after-read pattern in closed form: a dequeue whose row equals the
chain's *initially* open row is still inert when the chain precharges
that row strictly before the admission probe — the row never reopens
(it is gated out of the chain's run rows), so nothing is left to
protect or slip into.

**Eligibility gating** is dynamic and conservative, per *chain*:

* the oldest service unit resolves alone; younger in-flight or
  mid-chain-admitted contexts must be inert — same internal bank as the
  whole remaining chain, current row distinct from the initially open
  row and from every row the chain opens (an inert context always loses
  the same-timer race to an older one, and ``bank_hit_predict``
  protects open rows mid-run);
* a dequeue the event walk would defer on a full context window stops
  materialization at that entry (the walk admits it only after this
  chain commits, which the next resolution reproduces);
* no refresh deadline at or inside the chain (every charged cycle must
  land strictly before ``nr[b]``);
* the whole chain fits inside the run-ahead horizon ``h`` (a chain that
  crosses it could be interleaved by the next broadcast);
* the paper row policy (or a rowless SRAM device): the closed form
  models only the paper policy's auto-precharge decisions.

A rejected chain falls back, bit-exactly, to the inherited SoA event
walk for the current batch (``SoaBankAutomaton._run_bank``); the next
batch tries the closed form again.  The same fallback route is used as
a deliberate *delegation* for chains the walk already resolves in O(1):
a single remaining same-row run on an already-open row needs no row
operation, and the walk's burst path prices it in one probe — the chain
machinery here would only add constant overhead (this is why
same-array read-modify-write kernels like ``scale`` route most chains
to the walk by design).  A per-bank streak predictor amortizes even
the *attempt*: after a few consecutive pure-fallback batches the bank
stops probing the closed form and re-probes only periodically, so
delegation-heavy regimes pay the walk's cost and little else.
Write–read bus turnarounds are not
a fallback case — the pin-polarity penalty only ever applies to the
first column of a chain (a context is uniformly read or write), where
it is charged exactly.  A ``capture_data`` read chain gathers its
values at commit.  A run with a command log attached sends every batch
to the walk, which logs each command it issues: the closed form commits
whole chains without per-command cycles.

**Exactness argument.**  Within a chain the only external actors are
FIFO dequeues, whose probe cycles are computed exactly (above), and
inert younger contexts, which by the gate can neither win a row-timer
race against an older context nor sit on an open row.  The event walk
is then a deterministic sequence of probe/jump steps whose action
cycles are exactly ``max(previous floor, blocking timer)`` — the closed
form computes those maxima directly instead of walking to them.  Two
path subtleties are charged explicitly rather than gated away: a
mid-chain dequeue degrades the walk's column bursts into single-column
issue, which is cycle- and counter-identical under the paper policy
(the per-column ``_decide_ap`` reproduces the burst path's run-end
auto-precharge decisions); and once a younger mismatched context is in
flight, the final column's auto-precharge is forced closed through
``bank_close_predict`` instead of consulting the per-bank predictor.
Every rejection condition corresponds to a case where the event walk
would genuinely interleave another actor into the chain; rejecting
mutates nothing, so the fallback replays the identical state.  The
differential suite (``tests/sim/test_window_equivalence.py``) pins
cycles, attribution ledgers and memory images against the reference
backend.
"""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.pva.soa import (
    C_END,
    C_FIB,
    C_FROW,
    C_IB,
    C_IBEND,
    C_IDX,
    C_ISSUED,
    C_LINE,
    C_LW,
    C_POS,
    C_ROW,
    C_RUN,
    C_TXN,
    C_W,
    R_END,
    R_LINE,
    R_READY,
    R_START,
    R_TABLE,
    R_TXN,
    R_W,
    SoaBankAutomaton,
)

__all__ = ["WindowBankAutomaton"]

# _resolve outcomes.
_RESOLVED = 0  # chain committed; bound[b] advanced past it
_BLOCKED = 1  # no event possible this batch; bound[b] updated
_FALLBACK = 2  # outside the closed form; nothing mutated

# Delegation-streak predictor (see _run_bank): after _STREAK_MIN
# consecutive pure-fallback batches a bank stops attempting the closed
# form and re-probes it only every _STREAK_PERIOD-th batch.
_STREAK_MIN = 4
_STREAK_PERIOD = 8


class WindowBankAutomaton(SoaBankAutomaton):
    """The SoA automaton with a closed-form fast path per service chain.

    Construction, broadcasts, writeback and the ledger finalization are
    inherited unchanged; only the per-bank batch stepping is overridden
    to try the arithmetic resolution first.  Needs the owning
    :class:`~repro.sim.kernel.SimKernel` to deposit bulk ledger deltas;
    :meth:`writeback` drops that reference again.
    """

    def __init__(self, banks, front, bus, params, kernel):
        super().__init__(banks, front, bus, params)
        self._kernel = kernel
        # Per-bank count of consecutive batches whose first probe fell
        # back without resolving anything.  Banks in a steady delegation
        # regime (open-row chains, non-paper policies) skip the resolve
        # attempt after ``_STREAK_MIN`` such batches and re-probe every
        # ``_STREAK_PERIOD``-th one, so the attempt overhead amortizes
        # away; the walk is bit-exact either way, so the predictor can
        # only shift where time is spent, never what happens.
        self._fb_streak = [0] * params.num_banks

    def writeback(self) -> None:
        """Restore the object graph (see the base class), and drop the
        kernel: it holds this automaton as a component, so keeping it
        would leave the run's whole system graph to the cyclic garbage
        collector."""
        self._kernel = None
        super().writeback()

    # ------------------------------------------------------------- #
    # Batch stepping
    # ------------------------------------------------------------- #

    def _run_bank(self, b: int, now: int, h: int) -> bool:
        """Resolve whole service chains while the closed form applies;
        delegate the remainder of the batch to the inherited event walk
        on the first chain it does not cover.  A logged run's batches
        all take the walk, which records every command it issues."""
        if self.logged:
            return SoaBankAutomaton._run_bank(self, b, now, h)
        streak = self._fb_streak
        s = streak[b]
        if s >= _STREAK_MIN and s % _STREAK_PERIOD:
            # Steady delegation regime: go straight to the walk and
            # only re-probe the closed form every _STREAK_PERIOD-th
            # batch (s is kept growing so the modulus keeps cycling).
            streak[b] = s + 1
            return SoaBankAutomaton._run_bank(self, b, now, h)
        processed = False
        bound = self.bound
        resolve = self._resolve
        while bound[b] < h:
            outcome = resolve(b, now, h)
            if outcome == _RESOLVED:
                processed = True
                continue
            if outcome == _BLOCKED:
                if processed:
                    streak[b] = 0
                return processed
            # A batch that resolved chains before falling back still
            # counts for the closed form; only pure-fallback batches
            # feed the delegation streak.
            streak[b] = 0 if processed else s + 1
            return SoaBankAutomaton._run_bank(self, b, now, h) or processed
        if processed:
            streak[b] = 0
        return processed

    def _resolve(self, b: int, now: int, h: int) -> int:
        """Try to charge bank ``b``'s oldest service chain arithmetically.

        Pure-compute-then-commit: every timer is copied into virtual
        state and every charged cycle validated against the refresh
        deadline and the horizon *before* anything mutates, so a
        rejected chain leaves the bank exactly as the event walk
        expects to find it.
        """
        t = self.bound[b]
        if t >= h:
            return _BLOCKED
        rqf = self._rqf[b]
        win = self._win[b]
        deadline = self.nr[b]
        dequeued = False
        nwin0 = len(win)
        if win:
            if t >= deadline:
                return _FALLBACK  # refresh due first
            vc = win[0]
            td = t
            # The first FIFO admission may land on the first probe.
            prev_d = t - 1
            ibs = vc[C_IB]
            rows = vc[C_ROW]
            run_end = vc[C_RUN]
            pos = vc[C_POS]
            stop = vc[C_END]
        elif rqf:
            head = rqf[0]
            ready = head[R_READY]
            td = ready if ready > t else t
            if td >= deadline:
                return _FALLBACK  # refresh fires before the dequeue
            if td >= h:
                # Nothing can happen this batch before the head's ready
                # cycle (the event walk's jump target).
                self.bound[b] = td
                return _BLOCKED
            dequeued = True
            # The unit's own dequeue consumed the probe at ``td``; the
            # next admission needs a later probe.
            prev_d = td
            table = head[R_TABLE]
            ibs = table.ibanks
            rows = table.rows
            run_end = table.run_end
            pos = head[R_START]
            stop = head[R_END]
        else:
            # Only the refresh deadline can act, and with no pending
            # work it may not run ahead of kernel time.
            if deadline <= now:
                return _FALLBACK
            self.bound[b] = deadline
            return _BLOCKED
        has_rows = self.has_rows
        if has_rows:
            if not self.paper[b]:
                return _FALLBACK  # only the paper policy is modelled
            if (
                run_end[pos] == stop
                and self.orow[b * self.nib + ibs[pos]] == rows[pos]
            ):
                # A single remaining same-row run on an already-open row
                # needs no row operation at all: the inherited walk
                # resolves it in one O(1) burst probe, so the chain
                # machinery below would only add constant overhead.
                # Route it to the walk (bit-exact by construction —
                # nothing was mutated, and the gates above kept this
                # check ahead of the full head extraction).
                return _FALLBACK
        rem = stop - pos
        if dequeued:
            lw = table.local_words
            idx = table.indices
            ib_end = table.ib_end
            w = head[R_W]
            line = head[R_LINE]
            txn_id = head[R_TXN]
            issued = False
            fib = ibs[pos]
            frow = rows[pos]
        else:
            lw = vc[C_LW]
            idx = vc[C_IDX]
            ib_end = vc[C_IBEND]
            w = vc[C_W]
            line = vc[C_LINE]
            txn_id = vc[C_TXN]
            issued = vc[C_ISSUED]
            fib = vc[C_FIB]
            frow = vc[C_FROW]
        # ---- pure phase: charge the run chain against virtual timers --
        lim = h if h < deadline else deadline
        t_rcd = self.t_rcd
        t_rp = self.t_rp
        t_wr = self.t_wr
        ta = self.ta
        base_u = b * self.nib
        orow = self.orow
        act = self.act
        col = self.col
        pre = self.pre
        vlast_col = self.last_col[b]
        vlast_dir = self.last_dir[b]
        cursor = td
        busy = 0
        turn = 0
        first_action = -1
        vstate = {}  # u -> [open row, activate, column, precharge]
        act_events = []  # (u, ib, row)
        pre_events = []  # u
        ap_events = []  # u (non-final runs: the paper policy closes)
        run_ibs = []
        run_rows = []  # row per run — the rows this chain opens
        rowop_cycles = []  # cycles consumed by precharges/activates
        col_spans = []  # (first, last) column cycle per run
        chain_mono = True  # every remaining element on one internal bank
        chain_ib = ibs[pos] if has_rows else 0
        if has_rows:
            if ib_end[pos] < stop:
                chain_mono = False
                # A non-mono chain can neither materialize dequeues nor
                # carry younger in-flight contexts; reject before the
                # pure phase when one of those is already certain.  The
                # chain streams at least one column per element, so the
                # first admission probe ``d1 <= td + rem - 1`` is a
                # guaranteed mid-chain landing.
                if nwin0 > 1:
                    return _FALLBACK
                qs = 1 if dequeued else 0
                if len(rqf) > qs and nwin0 + qs < self.max_ctx:
                    er = rqf[qs][R_READY]
                    d1 = er if er > prev_d + 1 else prev_d + 1
                    if d1 <= td + rem - 1:
                        return _FALLBACK
        # Cycle at which the chain precharges the internal bank's
        # *initially* open row (the first precharge on chain_ib always
        # closes exactly that row); -1 while it stays open.
        first_oclose = -1
        p = pos
        r = rem
        final_end = -1
        final_u = -1
        final_ib = 0
        while r > 0:
            if has_rows:
                run_len = run_end[p] - p
                ib = ibs[p]
                row = rows[p]
                u = base_u + ib
                st = vstate.get(u)
                if st is None:
                    st = [orow[u], act[u], col[u], pre[u]]
                    vstate[u] = st
                if st[0] != row:
                    if st[0] >= 0:
                        # precharge (InternalBank._close)
                        pcyc = cursor if cursor > st[3] else st[3]
                        if pcyc >= lim:
                            return _FALLBACK
                        if first_action < 0:
                            first_action = pcyc
                        busy += 1
                        pre_events.append(u)
                        rowop_cycles.append(pcyc)
                        if first_oclose < 0 and ib == chain_ib:
                            first_oclose = pcyc
                        st[0] = -1
                        rel = pcyc + t_rp
                        if rel > st[1]:
                            st[1] = rel
                        cursor = pcyc + 1
                    # activate
                    acyc = cursor if cursor > st[1] else st[1]
                    if acyc >= lim:
                        return _FALLBACK
                    if first_action < 0:
                        first_action = acyc
                    busy += 1
                    act_events.append((u, ib, row))
                    rowop_cycles.append(acyc)
                    st[0] = row
                    hold = acyc + t_rcd
                    if hold > st[2]:
                        st[2] = hold
                    if hold > st[3]:
                        st[3] = hold
                    cursor = acyc + 1
                col_ready = st[2]
                run_rows.append(row)
            else:
                run_len = r
                ib = 0
                row = 0
                u = -1
                st = None
                col_ready = 0
            # -- column burst: first column obeys the column timer and
            #    the device pin turnaround; the rest stream one/cycle --
            if vlast_dir < 0 or w == vlast_dir:
                pins = vlast_col + 1
            else:
                pins = vlast_col + 1 + ta
            c = cursor
            if col_ready > c:
                c = col_ready
            if pins > c:
                c = pins
            end = c + run_len - 1
            if end >= lim:
                return _FALLBACK
            if first_action < 0:
                first_action = c
            if vlast_dir >= 0 and w != vlast_dir:
                turn += 1
            vlast_col = end
            vlast_dir = w
            busy += run_len
            run_ibs.append(ib)
            col_spans.append((c, end))
            r -= run_len
            if has_rows:
                hold = end + 1 + t_wr if w else end + 1
                if hold > st[3]:
                    st[3] = hold
                if r:
                    # Run ends on a row transition: the paper policy
                    # auto-precharges (no inert context can hold it
                    # open — row sharing is gated out below).
                    st[0] = -1
                    rel = end + 1 + (t_wr if w else 0) + t_rp
                    if rel > st[1]:
                        st[1] = rel
                    ap_events.append(u)
            if r == 0:
                final_end = end
                final_u = u
                final_ib = ib
            cursor = end + 1
            p += run_len
        acct_end = cursor
        # ---- inertness of already in-flight younger contexts ---------
        #    (they hold position > 0 for the whole chain; the gate must
        #    prove they can neither win a row-timer race nor sit on an
        #    open row — same internal bank as the whole chain, row
        #    distinct from the initially open row and every chain row)
        if nwin0 > 1 and has_rows:
            if not chain_mono:
                return _FALLBACK
            oinit = orow[base_u + chain_ib]
            for j in range(1, nwin0):
                ovc = win[j]
                op = ovc[C_POS]
                if ovc[C_IB][op] != chain_ib:
                    return _FALLBACK
                orw = ovc[C_ROW][op]
                if orw == oinit:
                    return _FALLBACK
                for rr in run_rows:
                    if orw == rr:
                        return _FALLBACK
        # ---- materialize mid-chain FIFO dequeues ---------------------
        #    The event walk admits the head at probe max(ready, previous
        #    probe + 1): failing probes jump through the head's ready
        #    cycle and bursts are clipped at it, so that probe exists.
        inflight = nwin0 + (1 if dequeued else 0)
        max_ctx = self.max_ctx
        qstart = 1 if dequeued else 0
        ndq = 0
        dq_cycles = []
        nq = len(rqf)
        qi = qstart
        while qi < nq:
            e = rqf[qi]
            er = e[R_READY]
            d = er if er > prev_d + 1 else prev_d + 1
            if d > final_end:
                break
            if inflight + ndq >= max_ctx:
                # The walk defers this dequeue past the chain's final
                # commit probe; the next resolution admits it exactly.
                break
            if has_rows:
                if not chain_mono:
                    return _FALLBACK
                et = e[R_TABLE]
                es = e[R_START]
                # The whole entry must sit on the chain's internal bank.
                if et.ibanks[es] != chain_ib or et.ib_end[es] < e[R_END]:
                    return _FALLBACK
                erow = et.rows[es]
                if erow == orow[base_u + chain_ib] and not (
                    0 <= first_oclose < d
                ):
                    # The entry's first row equals the chain's initially
                    # open row.  While that row is still open at the
                    # admission probe the entry could slip columns into
                    # it (the walk's generic column path serves any
                    # context on an open row) — fall back.  But if the
                    # chain precharged it strictly before ``d``, the row
                    # is closed for the rest of the chain (it is gated
                    # out of ``run_rows`` below, so it never reopens)
                    # and the entry is as inert as any other row.
                    return _FALLBACK
                for rr in run_rows:
                    if erow == rr:
                        return _FALLBACK
            dq_cycles.append(d)
            prev_d = d
            ndq += 1
            qi += 1
        # A dequeue probe that coincides with no chain action consumes
        # its own busy cycle (the walk's progressed-without-cost probe).
        for d in dq_cycles:
            hit = False
            for cs, ce in col_spans:
                if cs <= d <= ce:
                    hit = True
                    break
            if not hit:
                for rc in rowop_cycles:
                    if rc == d:
                        hit = True
                        break
            if not hit:
                busy += 1
        # Once a younger mismatched context is in flight, the final
        # column's auto-precharge is forced through bank_close_predict
        # instead of the per-bank predictor.
        forced_close = has_rows and (nwin0 > 1 or ndq > 0)
        # ---- commit phase (nothing above mutated shared state) -------
        if dequeued and first_action > td:
            busy += 1  # the dequeue consumes its own otherwise-idle cycle
        if not issued:
            # AccessScheduler._note_first_operation at the chain's first
            # operation (activate or column — both on the first run).
            row_continues = self.lrs[b][fib] == frow
            if self.paper[b]:
                self.predict[b][ibs[pos]] = not row_continues
            else:
                self.policies[b].note_first_operation(
                    ibs[pos], row_continues
                )
        total = rem
        txn = self.outstanding.get(txn_id)
        if txn is None:
            raise ProtocolError(
                f"bank {b} issued for unknown transaction {txn_id}"
            )
        storage = self.storage[b]
        if w:
            for k in range(pos, pos + total):
                storage[lw[k]] = line[idx[k]]
            self.writes[b] += total
            data_cycle = final_end + t_wr
        else:
            gathered = txn.line
            if gathered is not None:
                # A capture_data read: younger contexts are inert during
                # the chain, so storage holds every word's value as of
                # its column.
                get = storage.get
                for k in range(pos, pos + total):
                    gathered[idx[k]] = get(lw[k], 0)
            self.reads[b] += total
            data_cycle = final_end + self.read_lat
        txn.done += total
        if data_cycle > txn.last_data_cycle:
            txn.last_data_cycle = data_cycle
        if txn.done >= txn.expected:
            self.fully_issued.append(txn)
        self.sched_col[b] += total
        if turn:
            self.turnarounds[b] += turn
        self.last_col[b] = vlast_col
        self.last_dir[b] = w
        if has_rows:
            for u in pre_events:
                self.ib_pre[u] += 1
            if pre_events:
                self.sched_pre[b] += len(pre_events)
            lrs = self.lrs[b]
            for u, ib, row in act_events:
                self.ib_act[u] += 1
                lrs[ib] = row
            if act_events:
                self.sched_act[b] += len(act_events)
            for u in ap_events:
                self.ib_ap[u] += 1
            for u, st in vstate.items():
                orow[u] = st[0]
                act[u] = st[1]
                col[u] = st[2]
                pre[u] = st[3]
            asc = self.asc[b]
            for ib in run_ibs:
                asc[ib] = False
            # Final-run auto-precharge: the burst path's predictor term
            # (post-training), or the forced close when a younger
            # mismatched context is in flight at the final column.
            if forced_close or self.predict[b][final_ib]:
                orow[final_u] = -1
                rel = final_end + 1 + (t_wr if w else 0) + t_rp
                if rel > act[final_u]:
                    act[final_u] = rel
                self.ib_ap[final_u] += 1
        # -- ledger: one bulk deposit for the whole chain --------------
        span = acct_end - self.acct[b]
        self._kernel.bulk_account(
            self.ledger_names[b], busy=busy, stalled=span - busy
        )
        self.acct[b] = acct_end
        # -- queue state and the next candidate ------------------------
        if dequeued:
            rqf.popleft()
        else:
            del win[0]
        for _ in range(ndq):
            e = rqf.popleft()
            et = e[R_TABLE]
            es = e[R_START]
            win.append(
                # VectorContext.__init__, cursor mode (the SoA dequeue).
                [
                    et.local_words,
                    et.indices,
                    et.ibanks,
                    et.rows,
                    et.run_end,
                    es,
                    e[R_END],
                    e[R_TXN],
                    e[R_W],
                    e[R_LINE],
                    False,
                    et.ibanks[es],
                    et.rows[es],
                    et.ib_end,
                ]
            )
        if win:
            self.pending[b] = True
            # The next unit's first action cannot precede acct_end: its
            # row timers hold past the final column (same internal bank
            # by the gate), and the pin turnaround holds rowless chains.
            self.bound[b] = acct_end
        elif rqf:
            self.pending[b] = True
            nready = rqf[0][R_READY]
            nxt = nready if nready > acct_end else acct_end
            if deadline < nxt:
                nxt = deadline  # refresh runs ahead while work pends
            self.bound[b] = nxt
        else:
            self.pending[b] = False
            self.bound[b] = deadline
        return _RESOLVED
