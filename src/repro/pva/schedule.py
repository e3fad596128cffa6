"""Broadcast-time hit tables: one per vector command.

The paper's central observation is that ``FirstHit()``/``NextHit()``
(theorems 4.3 and 4.4) are *closed forms*: the moment a vector command
``<B, S, L>`` is broadcast, every bank controller can derive its entire
subvector — indices, local word addresses, even the decoded SDRAM
coordinates — without waiting for the per-cycle expansion to walk there.
This module exploits that wholesale, for all banks at once.

A :class:`HitTable` holds every bank's hit list for one command as flat
integer tuples, ordered by (bank, index); bank ``b`` owns the positions
``offsets[b] .. offsets[b + 1] - 1``:

* ``indices[j]``      — vector element index (``K_i + n * delta`` within
  a strided bank's slice, theorem 4.4);
* ``local_words[j]``  — bank-internal word address
  (``(B + S*K_i) >> m`` plus ``n`` steps of ``(S * delta) >> m``);
* ``ibanks[j]`` / ``rows[j]`` — decoded device coordinates of that word
  under the device's interleave geometry;
* ``run_end[j]``      — where element ``j``'s run of same-(internal
  bank, row) elements ends (exclusive, never past its bank's slice).
  ``run_end[j] > j + 1`` is exactly the ``bank_morehit_predict``
  self-term of the ManageRow heuristic, and ``run_end[j] - j`` the
  columns a burst from ``j`` streams;
* ``ib_end[j]``       — where element ``j``'s stretch on one internal
  bank ends: the remaining slice stays on one internal bank iff
  ``ib_end[j]`` is the slice's end.

The fast backend's bank automata (:mod:`repro.pva.soa`,
:mod:`repro.pva.window`) keep absolute positions into the shared table
instead of expanding and decoding each element live, as the reference
backend's vector contexts do.

**Cycle-exactness.**  A strided table is a pure function of
``(base, stride, length, num_banks, geometry)`` and reproduces the
incremental ``first_hit``/``next_hit`` walk value for value (the
property suite in ``tests/pva/test_schedule.py`` checks every bank's
slice against it over geometries and all paper alignments).  Nothing
about *when* operations issue changes — only how their addresses are
obtained.

**Memoization.**  :func:`broadcast_schedules` builds and memoizes
strided tables, keyed with the same content-key discipline as the
engine's result cache: the key is the full value tuple, never an object
identity, and the table is immutable (tuples only), so two vectors can
share a table but can never alias mutable state.  The memo is
LRU-bounded in table elements and bank offsets (long-lived engine
workers sweep thousands of distinct vectors) and hooked into
:func:`repro.api.clear_caches`.  :func:`pairs_schedule` builds the
tables of explicit and interleaved commands, once per command and
unmemoized.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

from repro.core.pla import shared_k1_pla

__all__ = [
    "HitTable",
    "broadcast_schedules",
    "pairs_schedule",
    "schedule_cache_info",
    "clear_schedule_cache",
]

#: Bound on the broadcast memo, counted in table elements plus bank
#: offsets: 256 broadcasts of the prototype's 32-element lines over 16
#: banks.  The point is boundedness, not a tight fit.
SCHEDULE_CACHE_ELEMENTS = 256 * (32 + 16)

#: ``schedule_cache_info()`` result, shaped like ``lru_cache``'s.
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")

#: Geometry descriptor kinds (see ``schedule_geometry`` on the devices).
_GEOM_ROTATED = "rot"
_GEOM_FLAT = "flat"


class HitTable:
    """Every bank's precomputed hit list for one vector command.

    Immutable by construction: every field is a tuple of ints, so
    memoized tables can be shared between requests freely.  See the
    module docstring for the columns.
    """

    __slots__ = (
        "offsets",
        "indices",
        "local_words",
        "ibanks",
        "rows",
        "run_end",
        "ib_end",
    )

    def __init__(
        self,
        offsets: Tuple[int, ...],
        indices: Tuple[int, ...],
        local_words: Tuple[int, ...],
        ibanks: Tuple[int, ...],
        rows: Tuple[int, ...],
        run_end: Tuple[int, ...],
        ib_end: Tuple[int, ...],
    ):
        self.offsets = offsets
        self.indices = indices
        self.local_words = local_words
        self.ibanks = ibanks
        self.rows = rows
        self.run_end = run_end
        self.ib_end = ib_end

    def __len__(self) -> int:
        return len(self.indices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HitTable(elements={len(self)}, banks={len(self.offsets) - 1})"


def _table(
    offsets: List[int],
    indices: List[int],
    local_words: List[int],
    geometry: Tuple,
) -> HitTable:
    """Decode the words of a (bank, index)-ordered element list under a
    device geometry descriptor and mark its run and stretch ends."""
    count = len(local_words)
    kind = geometry[0]
    if kind == _GEOM_ROTATED:
        # SDRAM: consecutive rows rotate internal banks
        # (see SDRAMDevice.locate).  A row-sequence number names one
        # (internal bank, row) pair, so runs are equal-sequence spans.
        row_bits, ib_bits = geometry[1], geometry[2]
        ib_mask = (1 << ib_bits) - 1
        seqs = [word >> row_bits for word in local_words]
        ibanks = tuple([seq & ib_mask for seq in seqs])
        rows = tuple([seq >> ib_bits for seq in seqs])
        run_end = [0] * count
        ib_end = [0] * count
        start = 0
        for end in offsets[1:]:
            if end > start:
                run = stretch = end
                j = end - 1
                seq = seqs[j]
                run_end[j] = ib_end[j] = end
                while j > start:
                    j -= 1
                    prev = seqs[j]
                    if prev != seq:
                        run = j + 1
                        if (prev ^ seq) & ib_mask:
                            stretch = run
                        seq = prev
                    run_end[j] = run
                    ib_end[j] = stretch
            start = end
        run_end = tuple(run_end)
        ib_end = tuple(ib_end)
    elif kind == _GEOM_FLAT:
        # SRAM: a single always-open row, so a bank's whole slice is one
        # run on one internal bank.
        ibanks = rows = (0,) * count
        ends: List[int] = []
        start = 0
        for end in offsets[1:]:
            ends += [end] * (end - start)
            start = end
        run_end = ib_end = tuple(ends)
    else:  # pragma: no cover - guarded by schedule_geometry discovery
        raise ValueError(f"unknown schedule geometry {geometry!r}")
    return HitTable(
        tuple(offsets),
        tuple(indices),
        tuple(local_words),
        ibanks,
        rows,
        run_end,
        ib_end,
    )


def _stride_table(
    base: int, stride: int, length: int, num_banks: int, geometry: Tuple
) -> HitTable:
    """The hit table of ``<base, stride, length>`` over ``num_banks``
    word-interleaved banks.

    Theorems 4.3/4.4 read from the compiled K1 PLA (the same table the
    FirstHit Predict unit reads) — value-identical to the incremental
    ``first_hit``/``next_hit`` walk of the FHP/VC expansion path.
    """
    pla = shared_k1_pla(num_banks)
    first_hit_index = pla.first_hit_index
    delta = pla.entry(stride).delta
    bank_bits = pla.bank_bits
    # S * delta is a multiple of M (theorem 4.4), so the shift is exact.
    local_step = (stride * delta) >> bank_bits
    mask = num_banks - 1
    offsets = [0]
    indices: List[int] = []
    local_words: List[int] = []
    for bank in range(num_banks):
        k = first_hit_index(stride, (bank - base) & mask)
        if k is not None and k < length:
            indices += range(k, length, delta)
            first = (base + stride * k) >> bank_bits
            count = (length - 1 - k) // delta + 1
            local_words += range(first, first + count * local_step, local_step)
        offsets.append(len(indices))
    return _table(offsets, indices, local_words, geometry)


def pairs_schedule(
    per_bank: Sequence[Sequence[Tuple[int, int]]], geometry: Tuple
) -> HitTable:
    """The hit table of a command whose elements were partitioned
    outside the word-interleave FirstHit path: ``per_bank[b]`` lists bank
    ``b``'s ``(local_word, index)`` pairs in index order (the
    scatter/gather snoop path and the cache-line/block interleave front
    end).  Not memoized — the key would be the whole pair list."""
    pairs = [pair for bank_pairs in per_bank for pair in bank_pairs]
    return _table(
        list(accumulate(map(len, per_bank), initial=0)),
        [index for _, index in pairs],
        [word for word, _ in pairs],
        geometry,
    )


#: The broadcast memo: key -> table, least recently used first (a dict
#: keeps insertion order; a hit re-inserts its entry).
_memo: Dict[Tuple, HitTable] = {}
#: [hits, misses, elements and offsets held].
_memo_stats: List[int] = [0, 0, 0]


def broadcast_schedules(
    base: int,
    stride: int,
    length: int,
    num_banks: int,
    geometry: Tuple,
) -> HitTable:
    """The memoized hit table of one strided vector command.

    An entry weighs its ``length`` elements plus its ``num_banks`` bank
    offsets, so short vectors over many banks are charged for the
    offsets they carry.  Least recently used entries are evicted while
    the memo holds more than :data:`SCHEDULE_CACHE_ELEMENTS`.
    """
    key = (base, stride, length, num_banks, geometry)
    table = _memo.pop(key, None)
    if table is not None:
        _memo[key] = table
        _memo_stats[0] += 1
        return table
    _memo_stats[1] += 1
    table = _stride_table(base, stride, length, num_banks, geometry)
    _memo[key] = table
    _memo_stats[2] += length + num_banks
    while _memo_stats[2] > SCHEDULE_CACHE_ELEMENTS:
        evicted = _memo.pop(next(iter(_memo)))
        _memo_stats[2] -= len(evicted) + len(evicted.offsets) - 1
    return table


def schedule_cache_info() -> CacheInfo:
    """The broadcast memo's statistics; ``maxsize`` and ``currsize``
    count table elements plus bank offsets."""
    hits, misses, held = _memo_stats
    return CacheInfo(hits, misses, SCHEDULE_CACHE_ELEMENTS, held)


def clear_schedule_cache() -> None:
    """Drop every memoized table (see :func:`repro.api.clear_caches`)."""
    _memo.clear()
    _memo_stats[:] = [0, 0, 0]
