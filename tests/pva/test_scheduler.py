"""Behavioural tests for the access scheduler, driven through a single
bank controller over a real SDRAM device."""

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
PLA = K1PLA(PARAMS.num_banks)


def make_bc(params=PARAMS):
    device = BankDevice(params.sdram, bus_turnaround=params.bus_turnaround)
    return BankController(0, params, device, K1PLA(params.num_banks))


def drive(bc, cycles, start=0):
    """Tick the BC; collect (cycle, IssuedColumn) pairs."""
    issued = []
    for cycle in range(start, start + cycles):
        result = bc.tick(cycle)
        if result is not None:
            issued.append((cycle, result))
    return issued


class TestSingleRequest:
    def test_unit_stride_read_lifecycle(self):
        bc = make_bc()
        # 8-element unit-stride vector: this bank (0) owns elements 0 and 4.
        v = Vector(base=0, stride=1, length=8)
        count = bc.broadcast(txn_id=0, vector=v, is_write=False, cycle=0)
        assert count == 2
        issued = drive(bc, 20)
        assert len(issued) == 2
        indices = [col.index for _, col in issued]
        assert indices == [0, 4]
        # Activate (t_rcd=2) must precede the first column.
        first_cycle = issued[0][0]
        assert first_cycle >= 3  # ready at 1 (bypass), activate, t_rcd
        last_data = issued[-1][1].data_cycle
        assert bc.read_complete(0, last_data)
        assert not bc.read_complete(0, last_data - 1)

    def test_no_hit_bank_completes_immediately(self):
        bc = make_bc()
        # stride 4 over 4 banks from base 1: bank 0 never hit.
        v = Vector(base=1, stride=4, length=8)
        count = bc.broadcast(txn_id=0, vector=v, is_write=False, cycle=0)
        assert count == 0
        assert bc.read_complete(0, cycle=0)
        assert drive(bc, 10) == []

    def test_write_commits_with_recovery(self):
        bc = make_bc()
        v = Vector(base=0, stride=4, length=4)  # all 4 elements in bank 0
        line = tuple(range(50, 54))
        count = bc.broadcast(0, v, is_write=True, cycle=0, write_line=line)
        assert count == 4
        issued = drive(bc, 20)
        assert len(issued) == 4
        assert all(col.is_write for _, col in issued)
        last_commit = issued[-1][1].data_cycle
        assert bc.write_complete(0, last_commit)
        # The data actually landed in storage (local words 0..3).
        assert [bc.device.storage[i] for i in range(4)] == [50, 51, 52, 53]

    def test_non_power_of_two_pays_fhc_latency(self):
        bc_pow2 = make_bc()
        bc_odd = make_bc()
        bc_pow2.broadcast(0, Vector(base=0, stride=4, length=4), False, 0)
        bc_odd.broadcast(0, Vector(base=0, stride=3, length=4), False, 0)
        first_pow2 = drive(bc_pow2, 20)[0][0]
        first_odd = drive(bc_odd, 20)[0][0]
        assert first_odd > first_pow2


class TestOrderingRules:
    def test_polarity_rule_blocks_younger_reversal(self):
        """A younger write must not overtake an older read stream."""
        bc = make_bc()
        read = Vector(base=0, stride=4, length=8)  # 8 elements, bank 0
        write = Vector(base=64, stride=4, length=8)
        bc.broadcast(0, read, is_write=False, cycle=0)
        bc.broadcast(
            1, write, is_write=True, cycle=0, write_line=tuple(range(8))
        )
        issued = drive(bc, 60)
        kinds = [col.is_write for _, col in issued]
        # All 8 reads strictly precede all 8 writes.
        assert kinds == [False] * 8 + [True] * 8

    def test_same_polarity_requests_pipeline(self):
        """Two read requests to different internal banks pipeline: total
        time is far below the sum of two isolated requests."""
        bc = make_bc()
        # Request A in internal bank 0 (rows 0..), request B in internal
        # bank 1 (local words 64..127 = row sequence 1).
        a = Vector(base=0, stride=4, length=8)
        b = Vector(base=256, stride=4, length=8)
        bc.broadcast(0, a, is_write=False, cycle=0)
        bc.broadcast(1, b, is_write=False, cycle=0)
        issued = drive(bc, 60)
        assert len(issued) == 16
        # Oldest-first arbitration: A's columns all precede B's.
        txns = [col.txn_id for _, col in issued]
        assert txns == [0] * 8 + [1] * 8
        # But B's row was opened under A's columns, so the whole pair
        # finishes in little more than 16 column cycles.
        assert issued[-1][0] - issued[0][0] <= 18

    def test_activate_promotion_hides_row_open(self):
        """While request A streams columns, request B's activate (other
        internal bank) is promoted, so B starts immediately after A."""
        bc = make_bc()
        a = Vector(base=0, stride=4, length=8)
        b = Vector(base=256, stride=4, length=8)
        bc.broadcast(0, a, is_write=False, cycle=0)
        bc.broadcast(1, b, is_write=False, cycle=0)
        issued = drive(bc, 60)
        cycles_by_txn = {}
        for cycle, col in issued:
            cycles_by_txn.setdefault(col.txn_id, []).append(cycle)
        gap = cycles_by_txn[1][0] - cycles_by_txn[0][-1]
        assert gap <= 2  # B's row was opened while A was draining


class TestRowManagement:
    def test_row_reuse_within_request(self):
        """Columns within one row pay a single activate."""
        bc = make_bc()
        v = Vector(base=0, stride=4, length=8)  # local words 0..7, one row
        bc.broadcast(0, v, is_write=False, cycle=0)
        drive(bc, 30)
        stats = bc.device.stats()
        assert stats.activates == 1
        assert stats.reads == 8

    def test_row_conflict_forces_precharge(self):
        """Requests to different rows of the same internal bank must
        close and reopen."""
        bc = make_bc()
        a = Vector(base=0, stride=4, length=4)  # ib 0, row 0
        b = Vector(base=1024, stride=4, length=4)  # local 256.. -> ib 0, row 1
        bc.broadcast(0, a, is_write=False, cycle=0)
        bc.broadcast(1, b, is_write=False, cycle=0)
        issued = drive(bc, 60)
        assert len(issued) == 8
        stats = bc.device.stats()
        assert stats.activates == 2
        assert stats.precharges + stats.auto_precharges >= 1

    def test_scheduler_stats_accumulate(self):
        bc = make_bc()
        v = Vector(base=0, stride=4, length=8)
        bc.broadcast(0, v, is_write=False, cycle=0)
        drive(bc, 30)
        assert bc.scheduler.columns == 8
        assert bc.scheduler.activates == 1
