"""The symmetry oracle behind the engine's trace classes.

:func:`repro.pva.schedule.trace_class_key` claims that a PVA run sees
an address only through ``addr % P`` (bank, internal bank, column) and
the identity of its block ``addr // P`` (its row, or its local word on
a rowless memory), where ``P`` is the decode period.  This oracle
relabels a random program's blocks with an injective map that keeps
every vector's blocks consecutive: the connected block ranges are
shuffled and spread apart, each moved whole.  The relabeled program
must get the same class key and simulate alike under both backends and
both bank memories.  It assumes neither backend is right: it checks, in
code both share (decode, row policies, bus), that timing depends on
addresses only through what the key keeps.
"""

import bisect
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.params import SystemParams
from repro.pva.system import PVAMemorySystem
from repro.types import AccessType, ExplicitCommand, Vector, VectorCommand

from ..strategies import random_systems


def _period(params, memory):
    """Words between two addresses with the same bank, internal bank and
    column: every bank's rows times its internal banks, or just the
    banks on a rowless memory."""
    timing = getattr(params, memory)
    if not timing.has_rows:
        return params.num_banks
    return params.num_banks * timing.row_words * timing.internal_banks


def _block_ranges(trace, period):
    """Each vector's block interval, and each explicit address's block."""
    for command in trace:
        if isinstance(command, ExplicitCommand):
            for address in command.addresses:
                yield address // period, address // period
        else:
            vector = command.vector
            yield vector.base // period, vector.last_address // period


def relabel(trace, period, rng):
    """``trace`` with its connected block ranges shuffled and placed
    apart (by zero to three free blocks), each translated whole."""
    components = []
    for lo, hi in sorted(_block_ranges(trace, period)):
        if components and lo <= components[-1][1]:
            components[-1][1] = max(components[-1][1], hi)
        else:
            components.append([lo, hi])
    order = list(range(len(components)))
    rng.shuffle(order)
    shift = [0] * len(components)
    start = rng.randrange(3)
    for position in order:
        lo, hi = components[position]
        shift[position] = (start - lo) * period
        start += hi - lo + 1 + rng.randrange(4)
    starts = [lo for lo, _ in components]

    def move(address):
        return address + shift[bisect.bisect(starts, address // period) - 1]

    moved = []
    for command in trace:
        if isinstance(command, ExplicitCommand):
            moved.append(
                replace(command, addresses=tuple(map(move, command.addresses)))
            )
        else:
            vector = command.vector
            moved.append(
                replace(
                    command,
                    vector=Vector(move(vector.base), vector.stride, vector.length),
                )
            )
    return moved


def _run(params, memory, trace):
    system = PVAMemorySystem(params, memory=memory)
    return system.class_key(trace), system.run(trace)


def _assert_relabeling_invisible(case, seed, memory, sim_mode):
    params, trace = case
    params = replace(params, sim_mode=sim_mode)
    moved = relabel(trace, _period(params, memory), random.Random(seed))
    key, result = _run(params, memory, trace)
    moved_key, moved_result = _run(params, memory, moved)
    assert moved_key == key
    assert moved_result.cycles == result.cycles
    assert moved_result.attribution == result.attribution
    assert moved_result.command_latencies == result.command_latencies
    assert moved_result.device == result.device
    assert moved_result.bus == result.bus


_MEMORIES = st.sampled_from(["sdram", "sram"])
_MODES = st.sampled_from(["fast", "reference"])


class TestRelabelingSymmetry:
    @given(
        case=random_systems(),
        seed=st.integers(0, 2**32 - 1),
        memory=_MEMORIES,
        sim_mode=_MODES,
    )
    @settings(max_examples=60, deadline=None)
    def test_relabeled_blocks_simulate_alike(self, case, seed, memory, sim_mode):
        _assert_relabeling_invisible(case, seed, memory, sim_mode)

    @pytest.mark.slow
    @given(
        case=random_systems(),
        seed=st.integers(0, 2**32 - 1),
        memory=_MEMORIES,
        sim_mode=_MODES,
    )
    @settings(max_examples=2000, deadline=None)
    def test_relabeled_blocks_simulate_alike_long(
        self, case, seed, memory, sim_mode
    ):
        _assert_relabeling_invisible(case, seed, memory, sim_mode)


@pytest.mark.parametrize("sim_mode", ["fast", "reference"])
def test_key_separates_a_row_hit_from_a_row_conflict(sim_mode):
    """Two reads in the same row of one internal bank, against the same
    pair with the second a row period further on: the key must tell
    them apart, because the second pair activates a second row in every
    bank, which moves the banks' attribution (the bus hides it from the
    cycle count here)."""
    params = SystemParams(sim_mode=sim_mode)
    period = _period(params, "sdram")

    def pair(second_base):
        return [
            VectorCommand(Vector(base, 1, 32), AccessType.READ)
            for base in (0, second_base)
        ]

    hit_key, hit = _run(params, "sdram", pair(32))
    conflict_key, conflict = _run(params, "sdram", pair(32 + period))
    assert hit_key != conflict_key
    assert conflict.device.activates > hit.device.activates
    assert conflict.attribution != hit.attribution
