"""The broadcast-time hit-schedule layer (repro.pva.schedule).

Three obligations:

* **Equivalence** — the closed-form table the fast backend reads is
  value-identical to the incremental ``first_hit``/``next_hit``/
  ``bank_subvector`` walk the reference backend expands live, over
  fuzzed geometries (banks 2..64, odd/even/power-of-two strides, all
  five paper alignments).  The closed forms of theorems 4.3/4.4 are the
  spec; the schedule must never disagree with them.
* **Decode correctness** — per-element device coordinates and the
  row-transition markers match ``device.locate`` exactly.
* **Memo hygiene** — memoized broadcast tables are immutable and never
  alias mutable state between vectors; the memo is LRU-bounded in
  schedules and cleared by ``repro.api.clear_caches``.
"""

import random

import pytest

from repro.api import clear_caches
from repro.core.firsthit import bank_subvector, first_hit, next_hit
from repro.core.pla import shared_k1_pla
from repro.kernels import ALIGNMENTS
from repro.params import SIM_MODES, SDRAMTiming, SystemParams
from repro.pva.schedule import (
    SCHEDULE_CACHE_SIZE,
    broadcast_schedules,
    clear_schedule_cache,
    pairs_schedule,
    schedule_cache_info,
    stride_schedule,
)
from repro.sdram.device import SDRAMDevice
from repro.sram.device import SRAMDevice
from repro.types import Vector


def _reference_table(vector, bank, num_banks, device):
    """The incremental walk the schedule replaces: FirstHit/NextHit plus
    a per-element ``device.locate`` decode."""
    k = first_hit(vector, bank, num_banks)
    if k is None:
        return None
    delta = next_hit(vector.stride, num_banks)
    bank_bits = num_banks.bit_length() - 1
    words = [address >> bank_bits for address in
             bank_subvector(vector, bank, num_banks)]
    indices = list(range(k, vector.length, delta))
    locs = [device.locate(word) for word in words]
    next_same = [
        j + 1 < len(locs)
        and locs[j + 1].internal_bank == locs[j].internal_bank
        and locs[j + 1].row == locs[j].row
        for j in range(len(locs))
    ]
    return (
        tuple(indices),
        tuple(words),
        tuple(loc.internal_bank for loc in locs),
        tuple(loc.row for loc in locs),
        tuple(next_same),
    )


def _assert_matches_reference(vector, num_banks, device):
    geometry = device.schedule_geometry
    total = 0
    for bank in range(num_banks):
        schedule = stride_schedule(
            vector.base, vector.stride, vector.length, bank, num_banks,
            geometry,
        )
        reference = _reference_table(vector, bank, num_banks, device)
        if reference is None:
            assert schedule is None, (vector, bank, num_banks)
            continue
        assert schedule is not None, (vector, bank, num_banks)
        assert schedule.indices == reference[0]
        assert schedule.local_words == reference[1]
        assert schedule.ibanks == reference[2]
        assert schedule.rows == reference[3]
        assert schedule.next_same_row == reference[4]
        assert schedule.count == len(reference[0])
        total += schedule.count
    assert total == vector.length  # the banks partition the vector


def _device_for(num_banks, internal_banks=4, row_words=64):
    timing = SDRAMTiming(internal_banks=internal_banks, row_words=row_words)
    return SDRAMDevice(timing)


STRIDES = [1, 2, 3, 4, 7, 8, 13, 16, 19, 24, 32, 48, 63]


@pytest.mark.parametrize("num_banks", [2, 8, 16])
@pytest.mark.parametrize("stride", STRIDES)
def test_schedule_matches_incremental_walk(num_banks, stride):
    device = _device_for(num_banks)
    for alignment in ALIGNMENTS:
        params = SystemParams(num_banks=num_banks)
        base = 96 + alignment.offset(1, params)
        vector = Vector(base=base, stride=stride, length=32)
        _assert_matches_reference(vector, num_banks, device)


@pytest.mark.slow
def test_schedule_matches_incremental_walk_fuzzed():
    """Heavyweight sweep: banks 2..64, fuzzed bases/strides/lengths and
    internal-bank/row geometries."""
    rng = random.Random(0xC0FFEE)
    for num_banks in (2, 4, 8, 16, 32, 64):
        for _ in range(120):
            device = _device_for(
                num_banks,
                internal_banks=rng.choice([1, 2, 4, 8]),
                row_words=rng.choice([16, 64, 512]),
            )
            stride = rng.choice(
                [rng.randrange(1, 4 * num_banks) | 1,      # odd
                 2 * rng.randrange(1, 2 * num_banks),      # even
                 1 << rng.randrange(0, 8),                 # power of two
                 num_banks, 2 * num_banks]                 # degenerate
            )
            vector = Vector(
                base=rng.randrange(0, 1 << 16),
                stride=stride,
                length=rng.randrange(1, 64),
            )
            _assert_matches_reference(vector, num_banks, device)


def test_schedule_agrees_with_pla_ownership():
    """The schedule's element partition must match the FHP's PLA tables
    (both are theorem 4.3; they may never drift apart)."""
    num_banks = 16
    device = _device_for(num_banks)
    pla = shared_k1_pla(num_banks)
    for stride in STRIDES:
        entry = pla.entry(stride)
        vector = Vector(base=35, stride=stride, length=32)
        for bank in range(num_banks):
            schedule = stride_schedule(
                vector.base, stride, vector.length, bank, num_banks,
                device.schedule_geometry,
            )
            k = first_hit(vector, bank, num_banks)
            assert (schedule is None) == (k is None)
            if schedule is not None:
                assert schedule.indices[0] == k
                if schedule.count > 1:
                    assert (
                        schedule.indices[1] - schedule.indices[0]
                        == entry.delta
                    )


def test_flat_geometry_decodes_to_single_row():
    device = SRAMDevice()
    schedule = stride_schedule(0, 3, 16, 1, 4, device.schedule_geometry)
    assert schedule is not None
    assert set(schedule.ibanks) == {0}
    assert set(schedule.rows) == {0}
    # A single always-open row: every transition but the last is a hit.
    assert schedule.next_same_row == tuple(
        j < schedule.count - 1 for j in range(schedule.count)
    )


def test_pairs_schedule_decodes_pairs_in_order():
    device = _device_for(4, internal_banks=2, row_words=16)
    pairs = ((3, 0), (19, 1), (16, 2), (700, 3))
    schedule = pairs_schedule(pairs, device.schedule_geometry)
    assert schedule.count == 4
    assert schedule.local_words == (3, 19, 16, 700)
    assert schedule.indices == (0, 1, 2, 3)
    for j, word in enumerate(schedule.local_words):
        loc = device.locate(word)
        assert schedule.ibanks[j] == loc.internal_bank
        assert schedule.rows[j] == loc.row
    assert pairs_schedule((), device.schedule_geometry) is None


def test_memoized_schedules_are_immutable_and_unaliased():
    geometry = _device_for(16).schedule_geometry
    tables = broadcast_schedules(0, 19, 32, 16, geometry)
    assert broadcast_schedules(0, 19, 32, 16, geometry) is tables  # hit
    first = tables[3]
    direct = stride_schedule(0, 19, 32, 3, 16, geometry)
    assert (first.indices, first.local_words) == (
        direct.indices,
        direct.local_words,
    )
    # Every field is a flat tuple — nothing a consumer could mutate.
    for field in ("indices", "local_words", "ibanks", "rows",
                  "next_same_row"):
        assert isinstance(getattr(first, field), tuple)
    with pytest.raises(AttributeError):
        first.extra = 1  # __slots__: no dict to scribble on
    # A different vector never shares identity with another's tuples
    # unless the values are equal (tuples are immutable either way).
    other = broadcast_schedules(16, 19, 32, 16, geometry)[3]
    assert other.local_words != first.local_words


def test_schedule_cache_is_lru_bounded_and_clearable():
    clear_schedule_cache()
    for num_banks in (16, 4):
        geometry = _device_for(num_banks).schedule_geometry
        for base in range(SCHEDULE_CACHE_SIZE // num_banks + 8):
            broadcast_schedules(base, 1, 4, num_banks, geometry)
        info = schedule_cache_info()
        assert info.maxsize == SCHEDULE_CACHE_SIZE
        # The bound counts schedules: 256 broadcasts at 16 banks.
        assert SCHEDULE_CACHE_SIZE - num_banks < info.currsize
        assert info.currsize <= SCHEDULE_CACHE_SIZE
    # The oldest broadcast was evicted, the newest is still held.
    hits = schedule_cache_info().hits
    broadcast_schedules(SCHEDULE_CACHE_SIZE // 4 + 7, 1, 4, 4, geometry)
    assert schedule_cache_info().hits == hits + 1
    broadcast_schedules(0, 1, 4, 16, _device_for(16).schedule_geometry)
    assert schedule_cache_info().hits == hits + 1
    clear_caches()
    assert schedule_cache_info().currsize == 0


def test_clear_caches_resets_pla_memo():
    clear_caches()
    assert shared_k1_pla.cache_info().currsize == 0
    shared_k1_pla(16)
    assert shared_k1_pla.cache_info().currsize == 1
    clear_caches()
    assert shared_k1_pla.cache_info().currsize == 0


def test_degenerate_stride_hits_base_bank_only():
    geometry = _device_for(8).schedule_geometry
    for stride in (8, 16, 24):
        hits = [
            stride_schedule(5, stride, 7, bank, 8, geometry)
            for bank in range(8)
        ]
        assert [s is not None for s in hits] == [
            bank == 5 for bank in range(8)
        ]
        assert hits[5].count == 7
        assert hits[5].indices == tuple(range(7))


def test_precompute_toggle_is_cycle_exact():
    """Toggling schedule precomputation is cycle-exact: the fast backend
    reads the closed-form tables, the reference backend expands
    FirstHit/NextHit live, and both give bit-identical RunResults
    (cycles, latencies, device stats and attribution) — the schedule is
    a representation change, not a timing change."""
    from repro.kernels import alignment_by_name, build_trace, kernel_by_name
    from repro.pva.system import PVAMemorySystem

    for kernel, alignment in (("copy", "aligned"), ("saxpy", "row-conflict")):
        for stride in (1, 8, 19):
            results = []
            for sim_mode in SIM_MODES:
                params = SystemParams(sim_mode=sim_mode)
                trace = build_trace(
                    kernel_by_name(kernel),
                    stride=stride,
                    params=params,
                    elements=128,
                    alignment=alignment_by_name(alignment),
                )
                results.append(PVAMemorySystem(params).run(trace))
            reference, fast = results
            assert fast.cycles == reference.cycles
            assert fast.command_latencies == reference.command_latencies
            assert fast.device == reference.device
            assert fast.attribution == reference.attribution
