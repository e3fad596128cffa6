"""Tests pinning the simulators to the closed-form performance models."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.model import (
    available_parallelism,
    bus_bound_cycles,
    cacheline_serial_cycles,
    gathering_serial_cycles,
    per_bank_column_bound,
    pva_lower_bound,
)
from repro.baselines.cacheline_serial import CacheLineSerialSDRAM
from repro.baselines.gathering_serial import GatheringSerialSDRAM
from repro.baselines.pva_sram import make_pva_sram
from repro.core.firsthit import hit_count
from repro.explore import DEFAULT_SPEC, enumerate_candidates
from repro.kernels import alignment_by_name, build_trace, kernel_by_name
from repro.params import ROW_POLICIES, SDRAMTiming, SystemParams
from repro.pva.system import PVAMemorySystem
from repro.types import AccessType, ExplicitCommand, Vector, VectorCommand
from repro.workloads.random_traces import RandomTraceConfig, random_trace

PROTO = SystemParams()


def reference_bus_bound(commands, params):
    """The bus bound term by term: request, stage command, transfer."""
    total = 0
    for command in commands:
        if isinstance(command, ExplicitCommand):
            request = command.broadcast_cycles
        else:
            request = 1
        if command.access is AccessType.READ:
            total += request + 1 + params.channel_stage_cycles
        else:
            total += 1 + params.channel_stage_cycles + request
    return total


def reference_column_bound(commands, params):
    """The column bound from the FirstHit spec: every bank's
    ``hit_count`` for every vector command, plus each explicit
    address's bank, maximised over banks."""
    totals = {}
    mask = params.num_banks - 1
    for command in commands:
        if isinstance(command, ExplicitCommand):
            for address in command.addresses:
                totals[address & mask] = totals.get(address & mask, 0) + 1
        else:
            for bank in range(params.num_banks):
                count = hit_count(command.vector, bank, params.num_banks)
                totals[bank] = totals.get(bank, 0) + count
    return max(totals.values(), default=0)


@st.composite
def mixed_traces(draw):
    """A bank count of 2..64 and a trace mixing vector commands (any
    stride up to ``4 * M``, multiples of ``M`` included) with
    explicit-address commands."""
    num_banks = draw(st.sampled_from([2, 4, 8, 16, 32, 64]))
    accesses = st.sampled_from([AccessType.READ, AccessType.WRITE])
    vectors = st.builds(
        VectorCommand,
        vector=st.builds(
            Vector,
            base=st.integers(0, 1 << 16),
            stride=st.one_of(
                st.integers(1, 4 * num_banks),
                st.integers(1, 4).map(lambda k: k * num_banks),
            ),
            length=st.integers(1, 64),
        ),
        access=accesses,
    )
    explicits = st.builds(
        ExplicitCommand,
        addresses=st.lists(
            st.integers(0, 1 << 16), min_size=1, max_size=16
        ).map(tuple),
        access=accesses,
        broadcast_cycles=st.integers(1, 8),
    )
    trace = draw(st.lists(st.one_of(vectors, explicits), max_size=24))
    return SystemParams(num_banks=num_banks), trace


@st.composite
def random_systems(draw):
    """A random system (2..64 banks on 1..4 channels, any row policy,
    refresh off, short or long) and a random program for it: vector
    commands with or without explicit ones, full or partial lines."""
    num_banks = draw(st.sampled_from([2, 4, 8, 16, 32, 64]))
    params = SystemParams(
        num_banks=num_banks,
        num_channels=draw(
            st.sampled_from([c for c in (1, 2, 4) if c <= num_banks])
        ),
        row_policy=draw(st.sampled_from(ROW_POLICIES)),
        sdram=SDRAMTiming(refresh_interval=draw(st.sampled_from([0, 97, 780]))),
    )
    config = RandomTraceConfig(
        commands=draw(st.integers(1, 8)),
        explicit_fraction=draw(st.sampled_from([0.0, 0.25])),
        full_lines=draw(st.booleans()),
    )
    return params, random_trace(draw(st.integers(0, 2**32 - 1)), params, config)


def _assert_bound_holds_on_both_backends(params, trace):
    """Neither backend beats the analytic bound, and they agree."""
    bound = pva_lower_bound(trace, params)
    reference = PVAMemorySystem(replace(params, sim_mode="reference")).run(trace)
    fast = PVAMemorySystem(replace(params, sim_mode="fast")).run(trace)
    assert bound <= reference.cycles
    assert bound <= fast.cycles
    assert fast.cycles == reference.cycles
    assert fast.attribution == reference.attribution


class TestBoundOnRandomSystems:
    @given(case=random_systems())
    @settings(max_examples=60, deadline=None)
    def test_bound_holds_on_both_backends(self, case):
        _assert_bound_holds_on_both_backends(*case)

    @pytest.mark.slow
    @given(case=random_systems())
    @settings(max_examples=2000, deadline=None)
    def test_bound_holds_on_both_backends_long(self, case):
        _assert_bound_holds_on_both_backends(*case)


class TestParallelism:
    def test_section_631_values(self):
        assert available_parallelism(1, 16) == 16
        assert available_parallelism(4, 16) == 4
        assert available_parallelism(16, 16) == 1
        assert available_parallelism(19, 16) == 16


class TestBaselineFormulas:
    @pytest.mark.parametrize("kernel", ["copy", "scale", "vaxpy", "tridiag"])
    @pytest.mark.parametrize("stride", [1, 4, 16, 19])
    def test_cacheline_simulator_matches_formula(self, kernel, stride):
        trace = build_trace(
            kernel_by_name(kernel), stride=stride, params=PROTO, elements=128
        )
        simulated = CacheLineSerialSDRAM(PROTO).run(trace).cycles
        assert simulated == cacheline_serial_cycles(trace, PROTO)

    @pytest.mark.parametrize("stride", [1, 4, 16, 19])
    def test_gathering_simulator_matches_formula(self, stride):
        trace = build_trace(
            kernel_by_name("swap"), stride=stride, params=PROTO, elements=128
        )
        simulated = GatheringSerialSDRAM(PROTO).run(trace).cycles
        assert simulated == gathering_serial_cycles(trace, PROTO)


class TestPVABounds:
    @pytest.mark.parametrize("kernel", ["copy", "scale", "swap", "vaxpy"])
    @pytest.mark.parametrize("stride", [1, 2, 8, 16, 19])
    def test_simulation_never_beats_lower_bound(self, kernel, stride):
        trace = build_trace(
            kernel_by_name(kernel), stride=stride, params=PROTO, elements=256
        )
        bound = pva_lower_bound(trace, PROTO)
        for system in (PVAMemorySystem(PROTO), make_pva_sram(PROTO)):
            assert system.run(trace).cycles >= bound

    def test_bus_bound_is_tight_at_unit_stride(self):
        """At stride 1 the PVA is bus-limited: the simulation lands within
        ~10% of the occupancy bound."""
        trace = build_trace(
            kernel_by_name("copy"), stride=1, params=PROTO, elements=512
        )
        bound = bus_bound_cycles(trace, PROTO)
        cycles = PVAMemorySystem(PROTO).run(trace).cycles
        assert bound <= cycles <= bound * 1.10

    def test_column_bound_dominates_at_single_bank_stride(self):
        """At stride 16 every element of a vector lands in one bank: the
        busiest-bank bound exceeds the bus bound per command."""
        trace = build_trace(
            kernel_by_name("scale"), stride=16, params=PROTO, elements=512
        )
        assert per_bank_column_bound(trace, PROTO) > 0
        # All of scale's elements share one bank at stride 16.
        assert per_bank_column_bound(trace, PROTO) == 2 * 512

    def test_per_bank_bound_with_explicit_command(self):
        cmd = ExplicitCommand(
            addresses=(0, 16, 32, 1),
            access=AccessType.READ,
            broadcast_cycles=3,
        )
        assert per_bank_column_bound([cmd], PROTO) == 3  # bank 0 gets 3

    @given(
        stride=st.integers(1, 64),
        length=st.integers(1, 32),
        base=st.integers(0, 1024),
    )
    @settings(max_examples=50, deadline=None)
    def test_bound_invariant_random_single_commands(self, stride, length, base):
        command = VectorCommand(
            vector=Vector(base=base, stride=stride, length=length),
            access=AccessType.READ,
        )
        cycles = PVAMemorySystem(PROTO).run([command]).cycles
        assert cycles >= pva_lower_bound([command], PROTO)


class TestBoundValues:
    """The bounds agree with their term-by-term references away from
    the paper's prototype: any bank count, stride and command mix."""

    def test_empty_trace_bounds_are_zero(self):
        assert bus_bound_cycles([], PROTO) == 0
        assert per_bank_column_bound([], PROTO) == 0
        assert pva_lower_bound([], PROTO) == 0

    @given(case=mixed_traces())
    @settings(max_examples=150, deadline=None)
    def test_bounds_match_reference(self, case):
        params, trace = case
        assert per_bank_column_bound(trace, params) == (
            reference_column_bound(trace, params)
        )
        assert bus_bound_cycles(trace, params) == (
            reference_bus_bound(trace, params)
        )

    def test_default_sweep_candidates_carry_reference_bound(self):
        kernel = kernel_by_name(DEFAULT_SPEC.kernel)
        alignment = alignment_by_name(DEFAULT_SPEC.alignment)
        candidates, _ = enumerate_candidates(DEFAULT_SPEC)
        assert len(candidates) == 96
        for candidate in candidates:
            trace = build_trace(
                kernel,
                stride=DEFAULT_SPEC.stride,
                params=candidate.params,
                elements=candidate.elements,
                alignment=alignment,
            )
            assert candidate.bound == max(
                reference_bus_bound(trace, candidate.params),
                reference_column_bound(trace, candidate.params),
            ), candidate.settings
