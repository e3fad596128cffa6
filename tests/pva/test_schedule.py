"""The broadcast-time hit-table layer (repro.pva.schedule).

Three obligations:

* **Equivalence** — every bank's slice of the table the fast backend
  reads is value-identical to the incremental ``first_hit``/
  ``next_hit``/``bank_subvector`` walk the reference backend expands
  live (strided commands), or to the bank's snooped pair list (explicit
  commands), over 1..64 banks, both device geometries, odd/even/
  power-of-two strides and all five paper alignments.  The closed forms
  of theorems 4.3/4.4 are the spec; the table must never disagree with
  them.
* **Decode and markers** — per-element device coordinates match
  ``device.locate`` exactly, and the ``run_end`` markers match the
  per-bank definitions they replace: the ``next_same_row``
  row-transition markers and the ``run_starts``/``run_lengths``
  same-row run partition.
* **Memo hygiene** — memoized tables are immutable and never alias
  mutable state between vectors; the memo is LRU-bounded in table
  elements plus bank offsets and cleared by ``clear_schedule_cache``.
"""

import random

import pytest

from repro.core.firsthit import bank_subvector, first_hit, next_hit
from repro.core.pla import shared_k1_pla
from repro.kernels import ALIGNMENTS
from repro.params import SIM_MODES, SDRAMTiming, SRAMTiming, SystemParams
from repro.pva.schedule import (
    SCHEDULE_CACHE_ELEMENTS,
    broadcast_schedules,
    clear_schedule_cache,
    pairs_schedule,
    schedule_cache_info,
    schedule_geometry,
)
from repro.sdram.device import BankDevice
from repro.types import Vector


def _reference_table(vector, bank, num_banks, device):
    """The incremental walk the table replaces: FirstHit/NextHit plus
    a per-element ``device.locate`` decode."""
    k = first_hit(vector, bank, num_banks)
    if k is None:
        return None
    delta = next_hit(vector.stride, num_banks)
    bank_bits = num_banks.bit_length() - 1
    words = [address >> bank_bits for address in
             bank_subvector(vector, bank, num_banks)]
    indices = list(range(k, vector.length, delta))
    return _decoded(indices, words, device)


def _decoded(indices, words, device):
    locs = [device.locate(word) for word in words]
    return (
        tuple(indices),
        tuple(words),
        tuple(loc.internal_bank for loc in locs),
        tuple(loc.row for loc in locs),
    )


def _old_markers(ibanks, rows):
    """The per-bank markers the table's ``run_end`` column replaces, as
    the per-bank schedule defined them: ``next_same_row`` and the
    ``run_starts``/``run_lengths`` partition."""
    count = len(ibanks)
    next_same_row = [
        j < count - 1 and ibanks[j + 1] == ibanks[j] and rows[j + 1] == rows[j]
        for j in range(count)
    ]
    starts = [0] if count else []
    for j in range(count - 1):
        if not next_same_row[j]:
            starts.append(j + 1)
    lengths = [
        (starts[i + 1] if i + 1 < len(starts) else count) - starts[i]
        for i in range(len(starts))
    ]
    return next_same_row, starts, lengths


def _assert_slice(table, bank, reference):
    """Bank ``bank``'s slice equals ``reference`` (None: no element) and
    its markers equal the per-bank definitions."""
    start, end = table.offsets[bank], table.offsets[bank + 1]
    if reference is None:
        assert start == end, bank
        return 0
    indices, words, ibanks, rows = reference
    assert table.indices[start:end] == indices
    assert table.local_words[start:end] == words
    assert table.ibanks[start:end] == ibanks
    assert table.rows[start:end] == rows
    next_same_row, starts, lengths = _old_markers(ibanks, rows)
    run_end = [e - start for e in table.run_end[start:end]]
    assert [r > j + 1 for j, r in enumerate(run_end)] == next_same_row
    for first, length in zip(starts, lengths):
        assert run_end[first:first + length] == [first + length] * length
    return end - start


def _assert_matches_reference(vector, num_banks, device):
    table = broadcast_schedules(
        vector.base, vector.stride, vector.length, num_banks,
        schedule_geometry(device.timing),
    )
    assert len(table.offsets) == num_banks + 1
    total = sum(
        _assert_slice(
            table, bank, _reference_table(vector, bank, num_banks, device)
        )
        for bank in range(num_banks)
    )
    assert total == len(table) == vector.length  # banks partition it


def _snooped(addresses, num_banks):
    """Each bank's ``(local_word, index)`` pairs of an explicit command,
    as ``BankController.broadcast_explicit`` snoops them."""
    bank_bits = num_banks.bit_length() - 1
    return [
        [
            (address >> bank_bits, index)
            for index, address in enumerate(addresses)
            if address & (num_banks - 1) == bank
        ]
        for bank in range(num_banks)
    ]


def _assert_explicit_matches(addresses, num_banks, device):
    per_bank = _snooped(addresses, num_banks)
    table = pairs_schedule(per_bank, schedule_geometry(device.timing))
    assert len(table.offsets) == num_banks + 1
    total = 0
    for bank, pairs in enumerate(per_bank):
        reference = None
        if pairs:
            reference = _decoded(
                [index for _, index in pairs],
                [word for word, _ in pairs],
                device,
            )
        total += _assert_slice(table, bank, reference)
    assert total == len(table) == len(addresses)


def _device_for(num_banks, internal_banks=4, row_words=64):
    timing = SDRAMTiming(internal_banks=internal_banks, row_words=row_words)
    return BankDevice(timing)


STRIDES = [1, 2, 3, 4, 7, 8, 13, 16, 19, 24, 32, 48, 63]


@pytest.mark.parametrize("num_banks", [1, 2, 8, 16, 64])
@pytest.mark.parametrize("stride", STRIDES)
def test_schedule_matches_incremental_walk(num_banks, stride):
    for device in (_device_for(num_banks), BankDevice(SRAMTiming())):
        for alignment in ALIGNMENTS:
            params = SystemParams(num_banks=num_banks)
            base = 96 + alignment.offset(1, params)
            vector = Vector(base=base, stride=stride, length=32)
            _assert_matches_reference(vector, num_banks, device)


@pytest.mark.parametrize("num_banks", [1, 2, 16, 64])
def test_explicit_table_matches_snooped_pairs(num_banks):
    rng = random.Random(num_banks)
    for device in (_device_for(num_banks, row_words=16), BankDevice(SRAMTiming())):
        for _ in range(10):
            addresses = [
                rng.randrange(0, 1 << 12) for _ in range(rng.randrange(1, 48))
            ]
            _assert_explicit_matches(addresses, num_banks, device)


def _fuzzed_device(rng):
    if rng.random() < 0.2:
        return BankDevice(SRAMTiming())
    timing = SDRAMTiming(
        internal_banks=rng.choice([1, 2, 4, 8]),
        row_words=rng.choice([16, 64, 512]),
    )
    return BankDevice(timing)


@pytest.mark.slow
def test_schedule_matches_incremental_walk_fuzzed():
    """Heavyweight sweep: banks 1..64, fuzzed bases/strides/lengths and
    internal-bank/row geometries."""
    rng = random.Random(0xC0FFEE)
    for num_banks in (1, 2, 4, 8, 16, 32, 64):
        for _ in range(120):
            device = _fuzzed_device(rng)
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


@pytest.mark.slow
def test_explicit_table_matches_snooped_pairs_fuzzed():
    """Heavyweight sweep of explicit commands: banks 1..64, fuzzed
    geometries, address spreads from one row to the whole device, and
    repeated words."""
    rng = random.Random(0xFACADE)
    for num_banks in (1, 2, 4, 8, 16, 32, 64):
        for _ in range(120):
            device = _fuzzed_device(rng)
            space = 1 << rng.choice([4, 8, 12, 20])
            addresses = [
                rng.randrange(0, space) for _ in range(rng.randrange(0, 64))
            ]
            _assert_explicit_matches(addresses, num_banks, device)


def test_schedule_agrees_with_pla_ownership():
    """The table's element partition must match the FHP's PLA tables
    (both are theorem 4.3; they may never drift apart)."""
    num_banks = 16
    device = _device_for(num_banks)
    pla = shared_k1_pla(num_banks)
    for stride in STRIDES:
        entry = pla.entry(stride)
        vector = Vector(base=35, stride=stride, length=32)
        table = broadcast_schedules(
            vector.base, stride, vector.length, num_banks,
            schedule_geometry(device.timing),
        )
        for bank in range(num_banks):
            start, end = table.offsets[bank], table.offsets[bank + 1]
            k = first_hit(vector, bank, num_banks)
            assert (start == end) == (k is None)
            if k is not None:
                assert table.indices[start] == k
                if end - start > 1:
                    assert (
                        table.indices[start + 1] - table.indices[start]
                        == entry.delta
                    )


def test_flat_geometry_decodes_to_single_row():
    device = BankDevice(SRAMTiming())
    table = broadcast_schedules(0, 3, 16, 4, schedule_geometry(device.timing))
    start, end = table.offsets[1], table.offsets[2]
    assert end - start == 4
    assert set(table.ibanks) == {0}
    assert set(table.rows) == {0}
    # A single always-open row: each bank's slice is one run.
    assert table.run_end[start:end] == (end,) * 4


def test_pairs_schedule_decodes_pairs_in_order():
    device = _device_for(4, internal_banks=2, row_words=16)
    per_bank = [(), ((3, 0), (19, 1), (16, 2), (700, 3)), ()]
    table = pairs_schedule(per_bank, schedule_geometry(device.timing))
    assert table.offsets == (0, 0, 4, 4)
    assert table.local_words == (3, 19, 16, 700)
    assert table.indices == (0, 1, 2, 3)
    for j, word in enumerate(table.local_words):
        loc = device.locate(word)
        assert table.ibanks[j] == loc.internal_bank
        assert table.rows[j] == loc.row
    empty = pairs_schedule([(), ()], schedule_geometry(device.timing))
    assert empty.offsets == (0, 0, 0)
    assert len(empty) == 0


def test_repeated_words_keep_index_order_inside_their_bank():
    """An explicit command may name one word twice: both elements stay
    in their bank's slice in index order, as one same-row run."""
    device = _device_for(4, internal_banks=2, row_words=16)
    addresses = (9, 4, 9, 17, 4, 9)
    table = pairs_schedule(_snooped(addresses, 4), schedule_geometry(device.timing))
    assert table.offsets == (0, 2, 6, 6, 6)
    assert table.indices == (1, 4, 0, 2, 3, 5)
    assert table.local_words == (1, 1, 2, 2, 4, 2)
    # Bank 1's words 2, 2, 4, 2 all sit on row 0 of internal bank 0.
    assert table.run_end == (2, 2, 6, 6, 6, 6)
    _assert_explicit_matches(addresses, 4, device)


class TestRunSegmentation:
    """The run_end markers partition a bank's slice into the same-row
    runs a burst streams: each element's run_end is where its maximal
    same-(internal bank, row) span ends, never past its bank's slice."""

    def _table(self, pairs):
        geometry = schedule_geometry(SystemParams().sdram)
        # Bank 0 owns nothing, bank 1 owns ``pairs``: the runs must be
        # positioned in the shared table, not from zero.
        return pairs_schedule(((), tuple(pairs)), geometry)

    def _runs(self, table):
        start, end = table.offsets[1], table.offsets[2]
        runs = []
        p = start
        while p < end:
            runs.append((p, table.run_end[p]))
            p = table.run_end[p]
        return runs

    def test_partition_is_exact(self):
        table = self._table((word, word) for word in range(6))
        runs = self._runs(table)
        # Runs abut, cover the slice, and every element of a run shares
        # its run's end.
        assert runs[0][0] == table.offsets[1]
        assert runs[-1][1] == table.offsets[2]
        for (_, end), (start, _) in zip(runs, runs[1:]):
            assert end == start
        for start, end in runs:
            assert end > start
            assert table.run_end[start:end] == (end,) * (end - start)

    def test_boundaries_follow_next_same_row(self):
        # A large stride hops rows every element: all runs length 1.
        table = self._table((word * 4096, word) for word in range(5))
        for j in range(len(table)):
            same_row = j + 1 < len(table) and (
                table.ibanks[j + 1],
                table.rows[j + 1],
            ) == (table.ibanks[j], table.rows[j])
            assert (table.run_end[j] > j + 1) == same_row
        assert self._runs(table) == [(j, j + 1) for j in range(5)]

    def test_single_element(self):
        table = self._table([(7, 0)])
        assert table.run_end == (1,)

    def test_empty(self):
        # A command no bank owns an element of still gets a table: its
        # slices are empty and partition into no runs.
        table = self._table([])
        assert table.offsets == (0, 0, 0)
        assert table.run_end == ()
        assert self._runs(table) == []


def test_memoized_schedules_are_immutable_and_unaliased():
    device = _device_for(16)
    geometry = schedule_geometry(device.timing)
    table = broadcast_schedules(0, 19, 32, 16, geometry)
    assert broadcast_schedules(0, 19, 32, 16, geometry) is table  # hit
    vector = Vector(base=0, stride=19, length=32)
    _assert_slice(table, 3, _reference_table(vector, 3, 16, device))
    # Every field is a flat tuple — nothing a consumer could mutate.
    for field in ("offsets", "indices", "local_words", "ibanks", "rows",
                  "run_end"):
        assert isinstance(getattr(table, field), tuple)
    with pytest.raises(AttributeError):
        table.extra = 1  # __slots__: no dict to scribble on
    # A different vector never shares identity with another's tuples
    # unless the values are equal (tuples are immutable either way).
    other = broadcast_schedules(16, 19, 32, 16, geometry)
    assert other.local_words != table.local_words


def test_schedule_cache_is_lru_bounded_and_clearable():
    clear_schedule_cache()
    for num_banks in (16, 4):
        # An entry weighs its elements plus its bank offsets.
        weight = 4 + num_banks
        geometry = schedule_geometry(_device_for(num_banks).timing)
        for base in range(SCHEDULE_CACHE_ELEMENTS // weight + 8):
            broadcast_schedules(base, 1, 4, num_banks, geometry)
        info = schedule_cache_info()
        assert info.maxsize == SCHEDULE_CACHE_ELEMENTS
        assert SCHEDULE_CACHE_ELEMENTS - weight < info.currsize
        assert info.currsize <= SCHEDULE_CACHE_ELEMENTS
    # The oldest broadcast was evicted, the newest is still held.
    hits = schedule_cache_info().hits
    broadcast_schedules(SCHEDULE_CACHE_ELEMENTS // 8 + 7, 1, 4, 4, geometry)
    assert schedule_cache_info().hits == hits + 1
    broadcast_schedules(0, 1, 4, 16, schedule_geometry(_device_for(16).timing))
    assert schedule_cache_info().hits == hits + 1
    clear_schedule_cache()
    assert schedule_cache_info().currsize == 0
    broadcast_schedules(0, 1, 32, 4, geometry)
    assert schedule_cache_info().currsize == 32 + 4


def test_degenerate_stride_hits_base_bank_only():
    geometry = schedule_geometry(_device_for(8).timing)
    for stride in (8, 16, 24):
        table = broadcast_schedules(5, stride, 7, 8, geometry)
        assert table.offsets == (0, 0, 0, 0, 0, 0, 7, 7, 7)
        assert table.indices == tuple(range(7))


def test_reference_and_fast_are_cycle_exact():
    """The fast backend reads the closed-form tables and the reference
    backend expands FirstHit/NextHit live, and both give bit-identical
    RunResults (cycles, latencies, device stats and attribution) — the
    table is a representation change, not a timing change."""
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
