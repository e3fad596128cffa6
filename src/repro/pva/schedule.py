"""Broadcast-time hit-schedule precomputation.

The paper's central observation is that ``FirstHit()``/``NextHit()``
(theorems 4.3 and 4.4) are *closed forms*: the moment a vector command
``<B, S, L>`` is broadcast, every bank controller can derive its entire
subvector — indices, local word addresses, even the decoded SDRAM
coordinates — without waiting for the per-cycle expansion to walk there.
The simulator used to exploit this only one element at a time (the
vector context's shift-and-add); this module exploits it wholesale.

A :class:`BankSchedule` is one bank's complete hit table for one vector
command, precomputed at broadcast time as flat integer tuples:

* ``indices[j]``      — vector element index of the j-th owned element
  (``K_i + j * delta``, theorem 4.4);
* ``local_words[j]``  — bank-internal word address
  (``(B + S*K_i) >> m`` plus ``j`` steps of ``(S * delta) >> m``);
* ``ibanks[j]`` / ``rows[j]`` — decoded device coordinates of that word
  under the device's interleave geometry;
* ``next_same_row[j]`` — row-transition marker: does element ``j + 1``
  hit the same (internal bank, row) as element ``j``?  This is exactly
  the ``bank_morehit_predict`` self-term of the ManageRow heuristic.

The fast backend's bank automaton (:mod:`repro.pva.soa`) then consumes
a cursor into the table instead of expanding and decoding each element
live, as the reference backend's vector contexts do.

**Cycle-exactness.**  The table is a pure function of
``(base, stride, length, bank, num_banks, geometry)`` and reproduces the
incremental ``first_hit``/``next_hit`` walk value for value (the
property suite in ``tests/pva/test_schedule.py`` fuzzes this over
geometries and all paper alignments).  Nothing about *when* operations
issue changes — only how their addresses are obtained.

**Memoization.**  :func:`stride_schedule` is the uncached closed form.
:func:`broadcast_schedules` — all banks' tables for one command — is
the one memo, keyed with the same content-key discipline as the
engine's result cache: the key is the full value tuple, never an object
identity, and the cached value is immutable (tuples only), so two
vectors can share a table but can never alias mutable state.  The memo
is LRU-bounded in schedules (long-lived engine workers sweep thousands
of distinct vectors) and hooked into :func:`repro.api.clear_caches`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.core.decode import decompose_stride

__all__ = [
    "BankSchedule",
    "broadcast_schedules",
    "stride_schedule",
    "pairs_schedule",
    "schedule_cache_info",
    "clear_schedule_cache",
]

#: Bound on the broadcast memo, counted in per-bank schedules: it holds
#: at most ``SCHEDULE_CACHE_SIZE // num_banks`` broadcasts (256 at the
#: prototype's 16 banks).  The point is boundedness, not a tight fit.
SCHEDULE_CACHE_SIZE = 4096

#: ``schedule_cache_info()`` result, shaped like ``lru_cache``'s.
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")

#: Geometry descriptor kinds (see ``schedule_geometry`` on the devices).
_GEOM_ROTATED = "rot"
_GEOM_FLAT = "flat"


class BankSchedule:
    """One bank's precomputed hit table for one vector command.

    Immutable by construction: every field is a tuple of ints (or bools),
    so memoized instances can be shared between requests freely.

    ``run_starts``/``run_lengths`` partition the table into maximal
    same-(internal bank, row) runs — the segments the ``next_same_row``
    markers delimit.  Element positions ``run_starts[i] ..
    run_starts[i] + run_lengths[i] - 1`` share the device row
    ``rows[run_starts[i]]`` in internal bank ``ibanks[run_starts[i]]``;
    each run costs at most one activate (plus one precharge) and then
    streams its columns back to back.  The closed-form window backend
    (:mod:`repro.pva.window`) charges whole runs arithmetically off
    these segments instead of rediscovering them element by element.
    """

    __slots__ = (
        "count",
        "indices",
        "local_words",
        "ibanks",
        "rows",
        "next_same_row",
        "run_starts",
        "run_lengths",
        "mono_from",
    )

    def __init__(
        self,
        indices: Tuple[int, ...],
        local_words: Tuple[int, ...],
        ibanks: Tuple[int, ...],
        rows: Tuple[int, ...],
        next_same_row: Tuple[bool, ...],
    ):
        count = len(indices)
        self.count = count
        self.indices = indices
        self.local_words = local_words
        self.ibanks = ibanks
        self.rows = rows
        self.next_same_row = next_same_row
        starts = [0] if count else []
        for j in range(count - 1):
            if not next_same_row[j]:
                starts.append(j + 1)
        self.run_starts = tuple(starts)
        self.run_lengths = tuple(
            (starts[i + 1] if i + 1 < len(starts) else count) - starts[i]
            for i in range(len(starts))
        )
        # Smallest position p with ``ibanks[p:]`` all on one internal
        # bank: a chain starting at ``pos`` stays on a single internal
        # bank iff ``pos >= mono_from``.  The window backend's inertness
        # gates test this before pricing a chain.
        p = count - 1
        while p > 0 and ibanks[p - 1] == ibanks[p]:
            p -= 1
        self.mono_from = p if p > 0 else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BankSchedule(count={self.count}, indices={self.indices[:4]}...)"


def _decode(
    local_words: Tuple[int, ...], geometry: Tuple
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[bool, ...]]:
    """Decode a word sequence into (ibanks, rows, next_same_row) under a
    device geometry descriptor."""
    kind = geometry[0]
    if kind == _GEOM_ROTATED:
        # SDRAM: consecutive rows rotate internal banks
        # (see SDRAMDevice.locate).
        row_bits, ib_bits = geometry[1], geometry[2]
        ib_mask = (1 << ib_bits) - 1
        ibanks = []
        rows = []
        for word in local_words:
            row_seq = word >> row_bits
            ibanks.append(row_seq & ib_mask)
            rows.append(row_seq >> ib_bits)
    elif kind == _GEOM_FLAT:
        # SRAM: a single always-open row.
        n = len(local_words)
        ibanks = [0] * n
        rows = [0] * n
    else:  # pragma: no cover - guarded by schedule_geometry discovery
        raise ValueError(f"unknown schedule geometry {geometry!r}")
    last = len(local_words) - 1
    next_same_row = tuple(
        j < last and ibanks[j + 1] == ibanks[j] and rows[j + 1] == rows[j]
        for j in range(len(local_words))
    )
    return tuple(ibanks), tuple(rows), next_same_row


@lru_cache(maxsize=256)
def _stride_pattern(stride: int, num_banks: int) -> Tuple[int, int, int, int]:
    """``(s, delta, k1, bank_bits)`` of ``stride`` over ``num_banks``.

    Split out of :func:`stride_schedule` and memoized on the tiny
    ``(stride, num_banks)`` domain: the modular inverse behind ``k1``
    (theorem 4.3) would otherwise be recomputed on every broadcast, while
    the full schedule memo below misses whenever the base moves.
    """
    decomp = decompose_stride(stride, num_banks)
    return decomp.s, decomp.delta, decomp.k1, decomp.bank_bits


def stride_schedule(
    base: int,
    stride: int,
    length: int,
    bank: int,
    num_banks: int,
    geometry: Tuple,
) -> Optional[BankSchedule]:
    """The full hit table for bank ``bank`` of ``<base, stride, length>``
    over ``num_banks`` word-interleaved banks, or ``None`` for no hit.

    Pure closed-form evaluation of theorems 4.3/4.4 — value-identical to
    the incremental ``first_hit``/``next_hit`` walk of the FHP/VC
    expansion path.  Uncached: :func:`broadcast_schedules` memoizes
    whole broadcasts instead.
    """
    s, delta, k1, bank_bits = _stride_pattern(stride, num_banks)
    b0 = base & (num_banks - 1)
    if s == bank_bits:
        # S mod M == 0: every element lands on the base bank.
        k = 0 if bank == b0 else None
    else:
        d = (bank - b0) % num_banks
        if d & ((1 << s) - 1):
            k = None  # lemma 4.2: bank distance not a multiple of 2**s
        else:
            k = (k1 * (d >> s)) % delta
    if k is None or k >= length:
        return None
    count = (length - 1 - k) // delta + 1
    # S * delta is a multiple of M (theorem 4.4), so the shift is exact.
    local_first = (base + stride * k) >> bank_bits
    local_step = (stride * delta) >> bank_bits
    indices = tuple(range(k, k + count * delta, delta))
    if count == 1:
        local_words = (local_first,)
    else:
        local_words = tuple(
            range(local_first, local_first + count * local_step, local_step)
        )
    ibanks, rows, next_same_row = _decode(local_words, geometry)
    return BankSchedule(indices, local_words, ibanks, rows, next_same_row)


def pairs_schedule(
    pairs: Tuple[Tuple[int, int], ...], geometry: Tuple
) -> Optional[BankSchedule]:
    """A hit table for an explicit ``(local_word, index)`` pair list (the
    scatter/gather snoop path and the cache-line/block interleave front
    end).  Not memoized — the key would be the whole pair list."""
    if not pairs:
        return None
    local_words = tuple(word for word, _ in pairs)
    indices = tuple(index for _, index in pairs)
    ibanks, rows, next_same_row = _decode(local_words, geometry)
    return BankSchedule(indices, local_words, ibanks, rows, next_same_row)


#: The broadcast memo: key -> per-bank tables, least recently used
#: first (a dict keeps insertion order; a hit re-inserts its entry).
_memo: Dict[Tuple, Tuple[Optional[BankSchedule], ...]] = {}
#: [hits, misses, schedules held].
_memo_stats: List[int] = [0, 0, 0]


def broadcast_schedules(
    base: int,
    stride: int,
    length: int,
    num_banks: int,
    geometry: Tuple,
) -> Tuple[Optional[BankSchedule], ...]:
    """All banks' hit tables for one vector command, as a tuple indexed
    by bank number (``None`` where the bank owns no element).

    One memo probe per broadcast instead of ``num_banks``.  An entry
    weighs ``num_banks`` schedules; least recently used entries are
    evicted while the memo holds more than :data:`SCHEDULE_CACHE_SIZE`.
    """
    key = (base, stride, length, num_banks, geometry)
    tables = _memo.pop(key, None)
    if tables is not None:
        _memo[key] = tables
        _memo_stats[0] += 1
        return tables
    _memo_stats[1] += 1
    tables = tuple(
        stride_schedule(base, stride, length, bank, num_banks, geometry)
        for bank in range(num_banks)
    )
    _memo[key] = tables
    _memo_stats[2] += num_banks
    while _memo_stats[2] > SCHEDULE_CACHE_SIZE:
        _memo_stats[2] -= len(_memo.pop(next(iter(_memo))))
    return tables


def schedule_cache_info() -> CacheInfo:
    """The broadcast memo's statistics; ``maxsize`` and ``currsize``
    count per-bank schedules."""
    hits, misses, held = _memo_stats
    return CacheInfo(hits, misses, SCHEDULE_CACHE_SIZE, held)


def clear_schedule_cache() -> None:
    """Drop every memoized schedule (see :func:`repro.api.clear_caches`)."""
    _memo.clear()
    _memo_stats[:] = [0, 0, 0]
    _stride_pattern.cache_clear()
