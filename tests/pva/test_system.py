"""End-to-end tests of the full PVA memory system (section 5.2.6)."""

from collections import deque

import pytest

from repro.errors import ProtocolError, VectorSpecError
from repro.params import SDRAMTiming, SystemParams
from repro.pva import system as system_module
from repro.pva.system import PVAMemorySystem
from repro.types import AccessType, ExplicitCommand, Vector, VectorCommand

PROTO = SystemParams()


def read_cmd(base, stride, length=32, data=None):
    return VectorCommand(
        vector=Vector(base=base, stride=stride, length=length),
        access=AccessType.READ,
    )


def write_cmd(base, stride, length=32, data=None):
    return VectorCommand(
        vector=Vector(base=base, stride=stride, length=length),
        access=AccessType.WRITE,
        data=data,
    )


class TestFunctionalGather:
    @pytest.mark.parametrize("stride", [1, 2, 4, 7, 16, 19, 31])
    def test_gather_returns_strided_elements(self, stride):
        system = PVAMemorySystem(PROTO)
        v = Vector(base=5, stride=stride, length=32)
        for address in v.addresses():
            system.poke(address, address * 2 + 1)
        result = system.run([read_cmd(5, stride)], capture_data=True)
        assert result.read_lines[0] == tuple(
            a * 2 + 1 for a in v.addresses()
        )

    def test_short_vector(self):
        system = PVAMemorySystem(PROTO)
        for a in range(0, 12, 3):
            system.poke(a, 100 + a)
        cmd = read_cmd(0, 3, length=4)
        result = system.run([cmd], capture_data=True)
        assert result.read_lines[0] == (100, 103, 106, 109)

    def test_scatter_lands_in_memory(self):
        system = PVAMemorySystem(PROTO)
        data = tuple(range(900, 932))
        system.run([write_cmd(7, 19, data=data)])
        v = Vector(base=7, stride=19, length=32)
        assert [system.peek(a) for a in v.addresses()] == list(data)

    def test_write_then_read_same_vector(self):
        system = PVAMemorySystem(PROTO)
        data = tuple(i * 3 for i in range(32))
        result = system.run(
            [write_cmd(64, 5, data=data), read_cmd(64, 5)],
            capture_data=True,
        )
        assert result.read_lines[0] == data

    def test_multiple_reads_capture_in_trace_order(self):
        system = PVAMemorySystem(PROTO)
        for a in range(0, 4096):
            system.poke(a, a)
        trace = [read_cmd(0, 1), read_cmd(1000, 2), read_cmd(3, 19)]
        result = system.run(trace, capture_data=True)
        assert result.read_lines[0] == tuple(range(32))
        assert result.read_lines[1] == tuple(range(1000, 1064, 2))
        assert result.read_lines[2] == tuple(range(3, 3 + 19 * 32, 19))


class TestProtocolLimits:
    def test_vector_longer_than_line_rejected(self):
        system = PVAMemorySystem(PROTO)
        with pytest.raises(VectorSpecError):
            system.run([read_cmd(0, 1, length=33)])

    def test_write_data_too_short_rejected(self):
        system = PVAMemorySystem(PROTO)
        with pytest.raises(VectorSpecError):
            system.run([write_cmd(0, 1, data=(1, 2, 3))])

    def test_empty_trace(self):
        system = PVAMemorySystem(PROTO)
        result = system.run([])
        assert result.cycles == 0
        assert result.commands == 0

    def test_more_commands_than_transaction_ids(self):
        """A trace much longer than the 8 outstanding transactions
        completes (ids recycle)."""
        system = PVAMemorySystem(PROTO)
        trace = [read_cmd(64 * i, 1) for i in range(24)]
        result = system.run(trace)
        assert result.commands == 24
        assert result.cycles > 0


class TestTransactionChecks:
    """The fast backend keeps no per-bank staging slots; the checks they
    made move to the front end's transaction table, on plain and
    ``capture_data`` runs alike."""

    @pytest.fixture
    def overcount(self, monkeypatch):
        """Corrupt each fully-issued transaction's done count before the
        front end's completion phase reads it, as if a bank reported one
        element too many."""
        retire = system_module._FrontEnd.retire

        def corrupt(self, cycle):
            for txn in self.fully_issued:
                txn.done = txn.expected + 1
            return retire(self, cycle)

        monkeypatch.setattr(system_module._FrontEnd, "retire", corrupt)

    @pytest.mark.parametrize("capture", [False, True])
    def test_overcounted_read_raises_at_stage_read(self, overcount, capture):
        with pytest.raises(ProtocolError, match="STAGE_READ"):
            PVAMemorySystem(PROTO).run([read_cmd(0, 1)], capture_data=capture)

    @pytest.mark.parametrize("capture", [False, True])
    def test_overcounted_write_raises_at_retirement(self, overcount, capture):
        data = tuple(range(32))
        with pytest.raises(ProtocolError, match="write retirement"):
            PVAMemorySystem(PROTO).run(
                [write_cmd(0, 1, data=data)], capture_data=capture
            )

    @staticmethod
    def _free_ids(monkeypatch, ids):
        """Start every front end with ``ids`` as its free id list."""
        init = system_module._FrontEnd.__init__

        def patched(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.free_ids = deque(ids)

        monkeypatch.setattr(system_module._FrontEnd, "__init__", patched)

    @pytest.mark.parametrize("capture", [False, True])
    def test_duplicate_outstanding_id_raises(self, monkeypatch, capture):
        self._free_ids(monkeypatch, [0, 0, 1])
        with pytest.raises(ProtocolError, match="reused while outstanding"):
            PVAMemorySystem(PROTO).run(
                [read_cmd(0, 1), read_cmd(64, 1)], capture_data=capture
            )

    def test_id_beyond_capacity_raises(self, monkeypatch):
        self._free_ids(monkeypatch, range(PROTO.max_transactions + 1))
        # Broadcasts win the bus while ids remain, so no read is staged
        # before the ninth broadcast finds eight outstanding.
        trace = [read_cmd(64 * i, 1) for i in range(PROTO.max_transactions + 1)]
        with pytest.raises(ProtocolError, match="exceeds"):
            PVAMemorySystem(PROTO).run(trace)


class TestTimingShape:
    def test_single_read_latency(self):
        """One unit-stride read: a handful of SDRAM cycles plus the
        16-cycle staging transfer."""
        system = PVAMemorySystem(PROTO)
        result = system.run([read_cmd(0, 1)])
        assert 20 <= result.cycles <= 32

    def test_pipelined_reads_approach_bus_bound(self):
        """Many reads: steady state is ~18 bus cycles per command
        (1 request + 1 stage command + 16 data)."""
        system = PVAMemorySystem(PROTO)
        trace = [read_cmd(64 * i, 1) for i in range(16)]
        result = system.run(trace)
        assert result.cycles / len(trace) < 22

    def test_prime_stride_matches_unit_stride(self):
        """Stride 19 exercises all 16 banks: throughput equals stride 1
        (the paper's key claim)."""
        system1 = PVAMemorySystem(PROTO)
        t1 = system1.run([read_cmd(2048 * i, 1) for i in range(8)]).cycles
        system19 = PVAMemorySystem(PROTO)
        t19 = system19.run([read_cmd(2048 * i, 19) for i in range(8)]).cycles
        assert abs(t19 - t1) / t1 < 0.1

    def test_single_bank_stride_is_slowest(self):
        """Stride 16 hits one bank: markedly slower than stride 1."""
        s1 = PVAMemorySystem(PROTO).run(
            [read_cmd(2048 * i, 1) for i in range(8)]
        )
        s16 = PVAMemorySystem(PROTO).run(
            [read_cmd(2048 * i, 16) for i in range(8)]
        )
        assert s16.cycles > 1.5 * s1.cycles

    def test_stats_populated(self):
        system = PVAMemorySystem(PROTO)
        result = system.run([read_cmd(0, 1), write_cmd(4096, 1)])
        assert result.read_commands == 1
        assert result.write_commands == 1
        assert result.elements_read == 32
        assert result.elements_written == 32
        assert result.device.reads == 32
        assert result.device.writes == 32
        assert result.bus.data_cycles == 32
        assert 0 < result.bus.utilization(result.cycles) <= 1

    def test_element_conservation(self):
        """SDRAM column counts equal the trace's element counts — nothing
        fetched twice, nothing skipped."""
        system = PVAMemorySystem(PROTO)
        trace = [read_cmd(512 * i, s) for i, s in enumerate((1, 2, 19, 16))]
        result = system.run(trace)
        assert result.device.reads == 4 * 32


class TestExplicitCommands:
    def test_explicit_gather(self):
        system = PVAMemorySystem(PROTO)
        addresses = tuple(range(100, 4196, 128))
        for a in addresses:
            system.poke(a, a + 7)
        cmd = ExplicitCommand(
            addresses=addresses, access=AccessType.READ, broadcast_cycles=17
        )
        result = system.run([cmd], capture_data=True)
        assert result.read_lines[0] == tuple(a + 7 for a in addresses)

    def test_explicit_scatter(self):
        system = PVAMemorySystem(PROTO)
        addresses = (5, 300, 17, 4098)
        cmd = ExplicitCommand(
            addresses=addresses,
            access=AccessType.WRITE,
            broadcast_cycles=3,
            data=(1, 2, 3, 4),
        )
        system.run([cmd])
        assert [system.peek(a) for a in addresses] == [1, 2, 3, 4]

    def test_broadcast_cost_charged(self):
        """The explicit broadcast occupies the bus longer than a
        base-stride request cycle."""
        addresses = tuple(range(32))  # same elements as a stride-1 read
        base = PVAMemorySystem(PROTO).run(
            [read_cmd(0, 1)]
        ).cycles
        explicit = PVAMemorySystem(PROTO).run(
            [
                ExplicitCommand(
                    addresses=addresses,
                    access=AccessType.READ,
                    broadcast_cycles=17,
                )
            ]
        ).cycles
        assert explicit >= base + 10
