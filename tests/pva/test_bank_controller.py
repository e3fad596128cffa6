"""Integration tests for a single bank controller's request pipeline."""

import pytest

from repro.core.pla import K1PLA
from repro.errors import CapacityError
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


def drive(bc, cycles, start=0):
    issued = []
    for cycle in range(start, start + cycles):
        result = bc.tick(cycle)
        if result is not None:
            issued.append((cycle, result))
    return issued


class TestPipeline:
    def test_idle_flag(self):
        bc = make_bc()
        assert bc.is_idle
        bc.broadcast(0, Vector(base=0, stride=4, length=2), False, 0)
        assert not bc.is_idle
        drive(bc, 20)
        assert bc.is_idle

    def test_request_capacity_enforced(self):
        bc = make_bc()
        v = Vector(base=0, stride=4, length=8)
        for txn in range(PARAMS.request_fifo_depth):
            bc.broadcast(txn, v, False, 0)
        # A ninth outstanding transaction exceeds the staging capacity
        # (the register file holds exactly max_transactions entries).
        with pytest.raises(CapacityError):
            bc.broadcast(PARAMS.request_fifo_depth, v, False, 0)

    def test_transaction_id_reuse_rejected(self):
        from repro.errors import ProtocolError

        bc = make_bc()
        v = Vector(base=0, stride=4, length=8)
        bc.broadcast(3, v, False, 0)
        with pytest.raises(ProtocolError):
            bc.broadcast(3, v, False, 1)

    def test_requests_dequeue_in_order(self):
        bc = make_bc()
        bc.broadcast(0, Vector(base=0, stride=4, length=4), False, 0)
        bc.broadcast(1, Vector(base=256, stride=4, length=4), False, 0)
        bc.broadcast(2, Vector(base=512, stride=4, length=4), False, 0)
        issued = drive(bc, 80)
        txns = [col.txn_id for _, col in issued]
        assert txns == [0] * 4 + [1] * 4 + [2] * 4

    def test_bypass_reduces_idle_latency(self):
        """The FHP-to-VC bypass shaves a cycle off a lone power-of-two
        request into an idle bank controller."""
        import dataclasses

        with_bypass = make_bc(PARAMS)
        without = make_bc(dataclasses.replace(PARAMS, bypass_paths=False))
        v = Vector(base=0, stride=4, length=4)
        with_bypass.broadcast(0, v, False, 0)
        without.broadcast(0, v, False, 0)
        first_with = drive(with_bypass, 30)[0][0]
        first_without = drive(without, 30)[0][0]
        assert first_without - first_with == 1

    def test_fhc_latency_hidden_when_busy(self):
        """With the scheduler busy on an older request, a non-power-of-two
        stride's FHC latency does not delay its first column."""
        bc = make_bc()
        # Older request occupies the scheduler for ~10 cycles.
        bc.broadcast(0, Vector(base=0, stride=4, length=8), False, 0)
        # Non-power-of-two request queued right behind.
        bc.broadcast(1, Vector(base=12, stride=3, length=8), False, 1)
        issued = drive(bc, 80)
        by_txn = {}
        for cycle, col in issued:
            by_txn.setdefault(col.txn_id, []).append(cycle)
        gap = by_txn[1][0] - by_txn[0][-1]
        assert gap <= 3  # FHC finished long before the scheduler freed up

    def test_read_data_routed_to_staging(self):
        bc = make_bc()
        bc.device.storage.update({0: 11, 1: 22})
        v = Vector(base=0, stride=4, length=2)  # global 0, 4 -> local 0, 1
        bc.broadcast(0, v, False, 0)
        issued = drive(bc, 20)
        last_data = issued[-1][1].data_cycle
        assert bc.read_complete(0, last_data)
        assert bc.drain_read(0) == [(0, 11), (1, 22)]

    def test_explicit_broadcast(self):
        bc = make_bc()
        bc.device.storage.update({10: 5, 2: 6})
        # Addresses 40 and 8 belong to bank 0 (mod 4), locals 10 and 2.
        count = bc.broadcast_explicit(
            0, addresses=(40, 9, 8), is_write=False, cycle=0
        )
        assert count == 2
        issued = drive(bc, 30)
        assert [(c.index, c.value) for _, c in issued] == [(0, 5), (2, 6)]
