"""Edge-case behaviour of the full PVA system: bus turnaround accounting,
latency reporting, transaction-limit scaling, and feature interactions
(interleave + refresh, explicit + base-stride mixes)."""

import dataclasses

import pytest

from repro.interleave.schemes import InterleaveScheme
from repro.params import SDRAMTiming, SystemParams
from repro.pva.system import PVAMemorySystem
from repro.types import AccessType, ExplicitCommand, Vector, VectorCommand

SMALL = SystemParams(
    num_banks=4, cache_line_words=8, sdram=SDRAMTiming(row_words=64)
)


def read_cmd(base, stride=1, length=8):
    return VectorCommand(
        vector=Vector(base=base, stride=stride, length=length),
        access=AccessType.READ,
    )


def write_cmd(base, stride=1, length=8, data=None):
    return VectorCommand(
        vector=Vector(base=base, stride=stride, length=length),
        access=AccessType.WRITE,
        data=data,
    )


class TestBusAccounting:
    def test_read_only_trace_no_turnarounds(self):
        result = PVAMemorySystem(SMALL).run(
            [read_cmd(64 * i) for i in range(4)]
        )
        assert result.bus.turnaround_cycles == 0

    def test_alternating_directions_pay_turnarounds(self):
        """Mixing directions costs at least one turnaround; the front end
        batches broadcasts ahead of staging, so consecutive write streams
        coalesce and most reversals are amortized away."""
        trace = []
        for i in range(3):
            trace.append(write_cmd(64 * i))
            trace.append(read_cmd(64 * i))
        result = PVAMemorySystem(SMALL).run(trace)
        assert result.bus.turnaround_cycles >= 1

    def test_interleaved_staging_pays_more_turnarounds(self):
        """With only one outstanding transaction the write data and read
        returns strictly alternate on the bus — every boundary reverses."""
        params = dataclasses.replace(
            SMALL, max_transactions=1, request_fifo_depth=8
        )
        trace = []
        for i in range(3):
            trace.append(write_cmd(64 * i))
            trace.append(read_cmd(64 * i))
        result = PVAMemorySystem(params).run(trace)
        assert result.bus.turnaround_cycles >= 5

    def test_bus_cycle_conservation(self):
        """Total cycles >= all bus activity (the bus serializes)."""
        trace = [read_cmd(64 * i) for i in range(6)]
        result = PVAMemorySystem(SMALL).run(trace)
        assert result.cycles >= result.bus.busy_cycles

    def test_request_cycles_counted(self):
        result = PVAMemorySystem(SMALL).run([read_cmd(0)])
        # VEC_READ + STAGE_READ commands.
        assert result.bus.request_cycles == 2
        assert result.bus.data_cycles == SMALL.stage_cycles


class TestLatencies:
    def test_one_latency_per_command(self):
        trace = [read_cmd(64 * i) for i in range(5)]
        result = PVAMemorySystem(SMALL).run(trace)
        assert len(result.command_latencies) == 5
        assert all(latency > 0 for latency in result.command_latencies)

    def test_queued_commands_wait_longer(self):
        """Later commands in a burst include their queueing delay."""
        trace = [read_cmd(64 * i) for i in range(8)]
        latencies = PVAMemorySystem(SMALL).run(trace).command_latencies
        assert latencies[-1] > latencies[0]

    def test_write_latency_measured_to_commit(self):
        result = PVAMemorySystem(SMALL).run([write_cmd(0)])
        (latency,) = result.command_latencies
        # STAGE_WRITE + 8 data cycles + broadcast + SDRAM work.
        assert latency > SMALL.stage_cycles


class TestTransactionScaling:
    @pytest.mark.parametrize("txns", [1, 2, 4, 8])
    def test_more_transactions_never_slower(self, txns):
        params = dataclasses.replace(
            SMALL, max_transactions=txns, request_fifo_depth=max(txns, 8)
        )
        trace = [read_cmd(64 * i) for i in range(8)]
        cycles = PVAMemorySystem(params).run(trace).cycles
        baseline = PVAMemorySystem(SMALL).run(trace).cycles
        assert cycles >= baseline  # 8 txns is the fastest configuration

    def test_single_transaction_serializes(self):
        params = dataclasses.replace(
            SMALL, max_transactions=1, request_fifo_depth=8
        )
        trace = [read_cmd(64 * i) for i in range(4)]
        serialized = PVAMemorySystem(params).run(trace).cycles
        pipelined = PVAMemorySystem(SMALL).run(trace).cycles
        assert serialized > pipelined * 1.3


class TestIssueThrottling:
    def test_throttled_cpu_is_slower(self):
        trace = [read_cmd(64 * i) for i in range(6)]
        fast = PVAMemorySystem(SMALL).run(trace).cycles
        slow_params = dataclasses.replace(SMALL, issue_interval=30)
        slow = PVAMemorySystem(slow_params).run(trace).cycles
        assert slow > fast
        # Issue gaps dominate: ~interval per command.
        assert slow >= 5 * 30

    def test_throttling_preserves_data(self):
        params = dataclasses.replace(SMALL, issue_interval=13)
        system = PVAMemorySystem(params)
        v = Vector(base=0, stride=3, length=8)
        for a in v.addresses():
            system.poke(a, a + 2)
        result = system.run(
            [VectorCommand(vector=v, access=AccessType.READ)],
            capture_data=True,
        )
        assert result.read_lines[0] == tuple(a + 2 for a in v.addresses())


class TestFeatureInteractions:
    def test_interleave_with_refresh(self):
        params = dataclasses.replace(
            SMALL,
            sdram=SDRAMTiming(
                row_words=64, refresh_interval=50, t_rfc=6
            ),
        )
        scheme = InterleaveScheme.cache_line(4, 8)
        system = PVAMemorySystem(params, interleave=scheme)
        v = Vector(base=5, stride=3, length=8)
        for a in v.addresses():
            system.poke(a, a * 2)
        trace = [VectorCommand(vector=v, access=AccessType.READ)] * 3
        result = system.run(trace, capture_data=True)
        for line in result.read_lines:
            assert line == tuple(a * 2 for a in v.addresses())

    def test_mixed_explicit_and_vector_commands(self):
        system = PVAMemorySystem(SMALL)
        system.poke(100, 1)
        system.poke(200, 2)
        trace = [
            write_cmd(0, data=tuple(range(8))),
            ExplicitCommand(
                addresses=(100, 200),
                access=AccessType.READ,
                broadcast_cycles=2,
            ),
            read_cmd(0),
        ]
        result = system.run(trace, capture_data=True)
        assert result.read_lines[0] == (1, 2)
        assert result.read_lines[1] == tuple(range(8))

    def test_interleaved_system_latencies_populated(self):
        scheme = InterleaveScheme.cache_line(4, 8)
        system = PVAMemorySystem(SMALL, interleave=scheme)
        result = system.run([read_cmd(0), read_cmd(64)])
        assert len(result.command_latencies) == 2
