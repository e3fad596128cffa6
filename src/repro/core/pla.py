"""PLA (programmable logic array) implementation models for FirstHit.

Section 4.2 sketches several hardware strategies; section 4.3.1 discusses
how they scale with the number of banks.  We model the two table-based ones:

* :class:`FullKiPLA` — a PLA indexed by ``(S mod M, d)`` returning ``K_i``
  directly.  One product term per legal combination, so the term count
  grows as the *square* of the bank count; the paper bounds this design at
  around 16 banks.
* :class:`K1PLA` — a PLA indexed by ``S mod M`` returning
  ``(s, delta, K1)``; ``K_i`` then costs a small multiply and mask
  (``(K1 * (d >> s)) mod 2**(m-s)``).  Term count grows linearly with the
  bank count.
* :class:`NextHitPLA` — the tiny table mapping ``S mod M`` to
  ``delta = 2**(m-s)``; optionally folded into either FirstHit PLA.

All three are *compiled* from the theorems at construction time — "most of
the variables ... will never be calculated explicitly; instead, their
values will be compiled into the circuitry in the form of look-up tables"
(section 4.2) — and afterwards answer queries with dict lookups only, so
the simulator's per-cycle work mirrors the hardware's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.core.decode import decompose_stride
from repro.errors import ConfigurationError
from repro.params import is_power_of_two, log2_exact

__all__ = [
    "FullKiPLA",
    "K1PLA",
    "NextHitPLA",
    "pla_product_terms",
    "shared_k1_pla",
]


@dataclass(frozen=True)
class K1Entry:
    """One row of the K1 PLA: the stride decomposition a bank controller
    needs to evaluate theorem 4.3 for any bank distance."""

    s: int
    delta: int
    k1: int
    power_of_two: bool


class NextHitPLA:
    """Lookup table ``S mod M -> delta = 2**(m-s)`` (theorem 4.4)."""

    def __init__(self, num_banks: int):
        if not is_power_of_two(num_banks):
            raise ConfigurationError(
                f"num_banks must be a power of two, got {num_banks}"
            )
        self.num_banks = num_banks
        self._table: Dict[int, int] = {}
        for s_mod in range(num_banks):
            stride = s_mod if s_mod != 0 else num_banks
            self._table[s_mod] = decompose_stride(stride, num_banks).delta

    def lookup(self, stride: int) -> int:
        """``NextHit(S)`` via one table read."""
        return self._table[stride % self.num_banks]

    def __len__(self) -> int:
        return len(self._table)


class K1PLA:
    """Lookup table ``S mod M -> (s, delta, K1)`` plus the multiply-and-mask
    evaluation of ``K_i`` (the linear-scaling design of section 4.3.1)."""

    def __init__(self, num_banks: int):
        if not is_power_of_two(num_banks):
            raise ConfigurationError(
                f"num_banks must be a power of two, got {num_banks}"
            )
        self.num_banks = num_banks
        self.bank_bits = log2_exact(num_banks, "num_banks")
        self._table: Dict[int, K1Entry] = {}
        for s_mod in range(num_banks):
            stride = s_mod if s_mod != 0 else num_banks
            decomp = decompose_stride(stride, num_banks)
            self._table[s_mod] = K1Entry(
                s=decomp.s,
                delta=decomp.delta,
                k1=decomp.k1,
                power_of_two=decomp.is_power_of_two_stride,
            )

    def entry(self, stride: int) -> K1Entry:
        return self._table[stride % self.num_banks]

    def first_hit_index(
        self, stride: int, bank_distance: int
    ) -> Optional[int]:
        """``K_i`` for a bank at modulo distance ``bank_distance`` from the
        base bank, or ``None`` when lemma 4.2 rules the bank out.

        The caller still has to compare the result against the vector
        length — the PLA knows nothing about ``L``.
        """
        entry = self._table[stride % self.num_banks]
        if bank_distance & ((1 << entry.s) - 1):
            return None
        if entry.s == self.bank_bits and bank_distance != 0:
            return None
        i = bank_distance >> entry.s
        # (K1 * i) mod 2**(m-s): selecting the least significant m-s bits
        # of the product (section 4.2, step 5).
        return (entry.k1 * i) & (entry.delta - 1)

    def __len__(self) -> int:
        return len(self._table)


@lru_cache(maxsize=32)
def shared_k1_pla(num_banks: int) -> K1PLA:
    """Process-wide compiled K1 PLA for a bank count.

    The table is pure function of ``num_banks`` and immutable after
    construction (frozen :class:`K1Entry` rows, read-only queries), so
    every system instance with the same geometry can share one copy —
    the hardware analogy is exact: all bank controllers read the same
    mask ROM.  Construction is O(M) table rows but happens per *system*
    in hot sweep loops, so memoizing it is a real win for the
    experiment engine.

    LRU-bounded (legal bank counts are powers of two, so 32 entries
    cover every geometry up to 2**32 banks).
    """
    return K1PLA(num_banks)


class FullKiPLA:
    """Lookup table ``(S mod M, d) -> K_i`` — the low-latency,
    quadratically-growing design viable up to about 16 banks."""

    #: Sentinel stored for (stride, distance) pairs with no hit.
    NO_HIT = -1

    def __init__(self, num_banks: int):
        if not is_power_of_two(num_banks):
            raise ConfigurationError(
                f"num_banks must be a power of two, got {num_banks}"
            )
        self.num_banks = num_banks
        self._table: Dict[Tuple[int, int], int] = {}
        helper = shared_k1_pla(num_banks)
        for s_mod in range(num_banks):
            for d in range(num_banks):
                k_i = helper.first_hit_index(s_mod, d)
                self._table[(s_mod, d)] = (
                    self.NO_HIT if k_i is None else k_i
                )

    def first_hit_index(
        self, stride: int, bank_distance: int
    ) -> Optional[int]:
        """``K_i`` via a single wide lookup, or ``None`` for no hit."""
        value = self._table[(stride % self.num_banks, bank_distance)]
        return None if value == self.NO_HIT else value

    def __len__(self) -> int:
        return len(self._table)

    @property
    def product_terms(self) -> int:
        """Rows that actually encode a hit — a proxy for PLA area."""
        return sum(1 for v in self._table.values() if v != self.NO_HIT)


def pla_product_terms(num_banks: int, design: str) -> int:
    """Scaling model of section 4.3.1: PLA complexity versus bank count.

    ``design`` is ``"full_ki"`` (quadratic) or ``"k1"`` (linear).  Used by
    the hardware-complexity experiment and the bank-scaling ablation.
    """
    if design == "full_ki":
        return FullKiPLA(num_banks).product_terms
    if design == "k1":
        return len(K1PLA(num_banks))
    raise ConfigurationError(f"unknown PLA design {design!r}")
