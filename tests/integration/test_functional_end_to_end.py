"""Randomized functional verification: the cycle-level PVA system must be
*observationally equivalent* to a flat reference memory executing the same
command stream in program order — for arbitrary mixes of base-stride and
explicit scatter/gather commands, including overlapping vectors and
read-after-write chains, on random systems under both backends and both
bank memories."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.params import ROW_POLICIES, SIM_MODES, SDRAMTiming, SystemParams
from repro.pva.system import PVAMemorySystem
from repro.types import (
    AccessType,
    ExplicitCommand,
    Vector,
    VectorCommand,
)

from ..strategies import random_params

SMALL = SystemParams(
    num_banks=4,
    cache_line_words=8,
    sdram=SDRAMTiming(row_words=64),
)

ADDRESS_SPACE = 1 << 12


@st.composite
def base_stride_command(draw, params):
    length = draw(st.integers(1, params.cache_line_words))
    stride = draw(st.integers(1, 40))
    base = draw(st.integers(0, ADDRESS_SPACE - length * stride - 1))
    if draw(st.booleans()):
        return VectorCommand(
            vector=Vector(base=base, stride=stride, length=length),
            access=AccessType.READ,
        )
    data = tuple(
        draw(st.integers(0, 2**20)) for _ in range(length)
    )
    return VectorCommand(
        vector=Vector(base=base, stride=stride, length=length),
        access=AccessType.WRITE,
        data=data,
    )


@st.composite
def explicit_command(draw, params):
    length = draw(st.integers(1, params.cache_line_words))
    addresses = tuple(
        draw(st.integers(0, ADDRESS_SPACE - 1)) for _ in range(length)
    )
    if draw(st.booleans()):
        return ExplicitCommand(
            addresses=addresses,
            access=AccessType.READ,
            broadcast_cycles=1 + (length + 1) // 2,
        )
    data = tuple(draw(st.integers(0, 2**20)) for _ in range(length))
    return ExplicitCommand(
        addresses=addresses,
        access=AccessType.WRITE,
        broadcast_cycles=1 + (length + 1) // 2,
        data=data,
    )


@st.composite
def traces(draw, params):
    n = draw(st.integers(1, 12))
    return [
        draw(
            st.one_of(
                base_stride_command(params), explicit_command(params)
            )
        )
        for _ in range(n)
    ]


def reference_execute(trace, initial):
    """Program-order interpreter over a flat word array."""
    memory = dict(initial)
    read_lines = []
    for command in trace:
        if isinstance(command, ExplicitCommand):
            addresses = list(command.addresses)
        else:
            addresses = list(command.vector.addresses())
        if command.access is AccessType.READ:
            read_lines.append(tuple(memory.get(a, 0) for a in addresses))
        else:
            data = command.data or tuple(range(len(addresses)))
            for a, value in zip(addresses, data):
                memory[a] = value
    return read_lines, memory


def run_and_compare(params, trace, memory="sdram"):
    """Run ``trace`` on a fresh ``memory`` system under each backend;
    both must gather the program-order lines and leave its image."""
    initial = {a: a * 7 + 3 for a in range(0, ADDRESS_SPACE, 13)}
    expected_lines, expected_memory = reference_execute(trace, initial)
    for mode in SIM_MODES:
        system = PVAMemorySystem(
            dataclasses.replace(params, sim_mode=mode), memory=memory
        )
        for a, value in initial.items():
            system.poke(a, value)
        result = system.run(trace, capture_data=True)
        assert result.read_lines == expected_lines, mode
        for a, value in expected_memory.items():
            assert system.peek(a) == value, (mode, a)


@st.composite
def random_cases(draw):
    """A random system (2..64 banks, channels, row policy, both
    memories' timings) and a program for it.  Rows shrink with the bank
    count so that each bank's share of the address space spans sixteen
    rows, as on a 4-bank system with 64-word rows: the programs meet
    row conflicts at every bank count (at 512-word rows they would meet
    none)."""
    params = draw(random_params())
    rows = ADDRESS_SPACE // params.num_banks // 16
    params = dataclasses.replace(
        params, sdram=dataclasses.replace(params.sdram, row_words=rows)
    )
    return params, draw(traces(params))


class TestObservationalEquivalence:
    @given(case=random_cases())
    @settings(max_examples=60, deadline=None)
    def test_sdram_system(self, case):
        run_and_compare(*case)

    @given(case=random_cases())
    @settings(max_examples=40, deadline=None)
    def test_sram_system(self, case):
        run_and_compare(*case, memory="sram")

    @given(case=random_cases())
    @settings(max_examples=25, deadline=None)
    def test_row_policies_are_functionally_identical(self, case):
        """Row management changes timing, never data."""
        params, trace = case
        for policy in ROW_POLICIES:
            run_and_compare(
                dataclasses.replace(params, row_policy=policy), trace
            )

    @pytest.mark.slow
    @given(
        case=random_cases(), memory=st.sampled_from(("sdram", "sram"))
    )
    @settings(max_examples=1000, deadline=None)
    def test_random_systems_long(self, case, memory):
        run_and_compare(*case, memory=memory)


class TestWAWOrdering:
    """Regression: two in-flight *writes* covering the same word must
    commit in program order.  The bank schedulers reorder same-polarity
    contexts across internal banks (the polarity rule only orders mixed
    read/write pairs), so before the front end's WAW gate the younger
    write could land first — observed under the open/history policies,
    where the kept-open row let the younger context slip its column in
    while the older context was activating another internal bank's row.
    """

    # Hypothesis-minimized: command 1 ends with a write of 1 to word 0
    # (via an element on another internal bank's row in between),
    # command 2 overwrites word 0 with 0 while command 1 is in flight.
    TRACE = [
        ExplicitCommand(
            addresses=(0, 0, 0, 0, 0, 308, 0),
            access=AccessType.WRITE,
            broadcast_cycles=5,
            data=(0, 0, 0, 0, 0, 0, 1),
        ),
        ExplicitCommand(
            addresses=(0,),
            access=AccessType.WRITE,
            broadcast_cycles=2,
            data=(0,),
        ),
    ]

    @pytest.mark.parametrize(
        "policy", ("paper", "close", "open", "history")
    )
    def test_all_row_policies(self, policy):
        params = dataclasses.replace(SMALL, row_policy=policy)
        system = PVAMemorySystem(params)
        system.run(self.TRACE, capture_data=True)
        assert system.peek(0) == 0, policy
        assert system.peek(308) == 0

    def test_all_sim_modes(self):
        for mode in SIM_MODES:
            params = dataclasses.replace(
                SMALL, row_policy="open", sim_mode=mode
            )
            system = PVAMemorySystem(params)
            system.run(self.TRACE, capture_data=True)
            assert system.peek(0) == 0, mode


class TestRAWChains:
    def test_repeated_overwrite_of_same_vector(self):
        system = PVAMemorySystem(SMALL)
        v = Vector(base=16, stride=3, length=8)
        trace = []
        for round_number in range(5):
            data = tuple(round_number * 100 + i for i in range(8))
            trace.append(
                VectorCommand(vector=v, access=AccessType.WRITE, data=data)
            )
            trace.append(VectorCommand(vector=v, access=AccessType.READ))
        result = system.run(trace, capture_data=True)
        for round_number in range(5):
            assert result.read_lines[round_number] == tuple(
                round_number * 100 + i for i in range(8)
            )

    def test_partial_overlap_write_read(self):
        """A read overlapping two earlier writes sees both."""
        system = PVAMemorySystem(SMALL)
        w1 = VectorCommand(
            vector=Vector(base=0, stride=2, length=8),
            access=AccessType.WRITE,
            data=tuple(100 + i for i in range(8)),
        )
        w2 = VectorCommand(
            vector=Vector(base=1, stride=2, length=8),
            access=AccessType.WRITE,
            data=tuple(200 + i for i in range(8)),
        )
        read = VectorCommand(
            vector=Vector(base=0, stride=1, length=8),
            access=AccessType.READ,
        )
        result = system.run([w1, w2, read], capture_data=True)
        assert result.read_lines[0] == (100, 200, 101, 201, 102, 202, 103, 203)
