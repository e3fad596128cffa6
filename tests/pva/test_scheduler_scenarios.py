"""Directed scheduler scenarios: progress guarantees, policy integration
and arbitration priorities that the fuzz suite can't pin down precisely."""

import dataclasses

import pytest

from repro.core.pla import K1PLA
from repro.params import SDRAMTiming, SystemParams
from repro.pva.bank_controller import BankController
from repro.sdram.device import BankDevice
from repro.types import Vector

PARAMS = SystemParams(
    num_banks=4,
    cache_line_words=8,
    sdram=SDRAMTiming(row_words=64),
)


def make_bc(params=PARAMS):
    device = BankDevice(params.sdram, bus_turnaround=params.bus_turnaround)
    return BankController(0, params, device, K1PLA(params.num_banks))


def drain(bc, limit=2000):
    issued = []
    for cycle in range(limit):
        result = bc.tick(cycle)
        if result is not None:
            issued.append((cycle, result))
        if bc.is_idle:
            break
    assert bc.is_idle, "bank controller failed to drain (deadlock?)"
    return issued


class TestProgressGuarantees:
    def test_polarity_blocked_write_vs_row_hitting_read(self):
        """The scenario that would deadlock a naive precharge rule: an
        older WRITE needs a row conflicting with the one a younger READ
        keeps hitting, while the bus polarity is 'read'.  The oldest
        context must be allowed to close the row and make progress."""
        bc = make_bc()
        # Prime bus polarity to 'read' and open row 0 of internal bank 0.
        warmup = Vector(base=0, stride=4, length=2)  # ib 0, row 0
        bc.broadcast(7, warmup, is_write=False, cycle=0)
        for cycle in range(12):
            bc.tick(cycle)
        assert bc.is_idle
        # Older write wants ib0 row 1 (local words 256..), younger read
        # keeps hitting ib0 row 0.
        write = Vector(base=1024, stride=4, length=4)
        read = Vector(base=0, stride=4, length=4)
        bc.broadcast(0, write, is_write=True, cycle=20,
                     write_line=tuple(range(4)))
        bc.broadcast(1, read, is_write=False, cycle=20)
        issued = []
        for cycle in range(20, 300):
            result = bc.tick(cycle)
            if result is not None:
                issued.append(result)
            if bc.is_idle:
                break
        assert bc.is_idle, "deadlock: write never progressed"
        kinds = [col.is_write for col in issued]
        # Program order preserved: all writes before all reads.
        assert kinds == [True] * 4 + [False] * 4

    def test_many_conflicting_requests_drain(self):
        """Eight requests ping-ponging between two rows of one internal
        bank with alternating directions — worst-case contention — must
        drain without deadlock and in program order per direction rules."""
        bc = make_bc()
        rows = [Vector(base=0, stride=4, length=4),
                Vector(base=1024, stride=4, length=4)]
        for txn in range(8):
            vector = rows[txn % 2]
            is_write = txn % 2 == 1
            line = tuple(range(4)) if is_write else None
            bc.broadcast(txn, vector, is_write, 0, write_line=line)
        issued = drain(bc)
        assert len(issued) == 32
        # Strict program order here: every polarity change is a barrier.
        txns = [col.txn_id for _, col in issued]
        assert txns == [t for t in range(8) for _ in range(4)]


class TestPolicyIntegration:
    def _run_policy(self, policy):
        params = dataclasses.replace(PARAMS, row_policy=policy)
        bc = make_bc(params)
        # Two requests reusing one row, then one to a different row.
        same_row = Vector(base=0, stride=4, length=4)
        other_row = Vector(base=1024, stride=4, length=4)
        bc.broadcast(0, same_row, False, 0)
        bc.broadcast(1, same_row, False, 0)
        bc.broadcast(2, other_row, False, 0)
        drain(bc)
        return bc.device.stats()

    def test_open_policy_reuses_rows(self):
        stats = self._run_policy("open")
        # Row 0 activated once for both requests; row 1 once.
        assert stats.activates == 2
        assert stats.auto_precharges == 0

    def test_close_policy_precharges_every_access(self):
        stats = self._run_policy("close")
        assert stats.auto_precharges == 12
        assert stats.activates == 12

    def test_paper_policy_matches_open_here(self):
        """With back-to-back row reuse the ManageRow heuristic keeps the
        row open, matching the open policy's activate count."""
        assert self._run_policy("paper").activates == self._run_policy(
            "open"
        ).activates

    def test_history_policy_learns_hot_row(self):
        stats = self._run_policy("history")
        # After a few hits the 21174 predictor keeps the row open: far
        # fewer activates than closed-page.
        assert stats.activates <= 4


class TestArbitrationPriorities:
    def test_oldest_context_issues_first(self):
        bc = make_bc()
        a = Vector(base=0, stride=4, length=4)  # ib0 row0
        b = Vector(base=256, stride=4, length=4)  # ib1 row0
        bc.broadcast(0, a, False, 0)
        bc.broadcast(1, b, False, 0)
        issued = drain(bc)
        assert issued[0][1].txn_id == 0

    def test_new_requests_enter_after_context_frees(self):
        """More requests than vector contexts: the fifth request's
        columns appear only after an earlier context retires."""
        params = dataclasses.replace(PARAMS, num_vector_contexts=2)
        bc = make_bc(params)
        vectors = [
            Vector(base=256 * i, stride=4, length=4) for i in range(5)
        ]
        for txn, vector in enumerate(vectors):
            bc.broadcast(txn, vector, False, 0)
        issued = drain(bc)
        assert len(issued) == 20
        txns = [col.txn_id for _, col in issued]
        # FIFO service order across the window refills.
        assert txns == [t for t in range(5) for _ in range(4)]
