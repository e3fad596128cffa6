"""Memory-controller TLB with power-of-two super-pages (section 4.3.2).

The paper's ``SplitVector`` algorithm assumes the memory controller "has
access to the page table and the function ``mmc_tlb_lookup(vaddress)``
returns the physical address corresponding to virtual address ``vaddress``
and the size of the superpage it is contained in" — this module is that
function.

Pages here are sized in *words* and must be powers of two, as the paper
assumes ("the size of a superpage is always a power of 2").  Mappings may
be registered explicitly, or the TLB can be built identity-mapped for
experiments that do not exercise paging.  Pages are kept sorted by
virtual base so lookups and overlap checks are O(log n).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ConfigurationError, TLBMissError
from repro.params import is_power_of_two

__all__ = ["PageMapping", "MMCTLB"]


@dataclass(frozen=True)
class PageMapping:
    """One super-page: a virtual page base mapped to a physical frame base.

    Both bases must be aligned to the page size.
    """

    virtual_base: int
    physical_base: int
    page_words: int

    def __post_init__(self) -> None:
        if not is_power_of_two(self.page_words):
            raise ConfigurationError(
                f"page_words must be a power of two, got {self.page_words}"
            )
        if self.virtual_base % self.page_words:
            raise ConfigurationError(
                f"virtual_base {self.virtual_base} not aligned to page of "
                f"{self.page_words} words"
            )
        if self.physical_base % self.page_words:
            raise ConfigurationError(
                f"physical_base {self.physical_base} not aligned to page of "
                f"{self.page_words} words"
            )

    @property
    def virtual_end(self) -> int:
        return self.virtual_base + self.page_words

    def contains(self, vaddr: int) -> bool:
        return self.virtual_base <= vaddr < self.virtual_end

    def translate(self, vaddr: int) -> int:
        return self.physical_base + (vaddr - self.virtual_base)


class MMCTLB:
    """The memory controller's view of the page table.

    ``lookup`` is the paper's ``mmc_tlb_lookup``: it returns the physical
    word address *and the page size*, which is what lets ``SplitVector``
    bound how many vector elements stay on the current super-page.
    """

    def __init__(self) -> None:
        self._pages: List[PageMapping] = []  # sorted by virtual_base
        self._bases: List[int] = []
        self.lookups = 0

    def map(self, mapping: PageMapping) -> None:
        """Register a super-page; overlapping virtual ranges are rejected."""
        position = bisect.bisect_left(self._bases, mapping.virtual_base)
        if position < len(self._pages):
            right = self._pages[position]
            if mapping.virtual_end > right.virtual_base:
                raise ConfigurationError(
                    f"page at {mapping.virtual_base} overlaps existing page "
                    f"at {right.virtual_base}"
                )
        if position > 0:
            left = self._pages[position - 1]
            if left.virtual_end > mapping.virtual_base:
                raise ConfigurationError(
                    f"page at {mapping.virtual_base} overlaps existing page "
                    f"at {left.virtual_base}"
                )
        self._pages.insert(position, mapping)
        self._bases.insert(position, mapping.virtual_base)

    @classmethod
    def identity(cls, total_words: int, page_words: int) -> "MMCTLB":
        """An identity-mapped TLB covering ``total_words`` of memory with
        uniform super-pages of ``page_words`` — the configuration under
        which ``SplitVector`` degenerates to simple chunking."""
        tlb = cls()
        # Bulk build: the pages are disjoint by construction.
        base = 0
        while base < total_words:
            tlb._pages.append(
                PageMapping(
                    virtual_base=base, physical_base=base, page_words=page_words
                )
            )
            tlb._bases.append(base)
            base += page_words
        return tlb

    def lookup(self, vaddr: int) -> Tuple[int, int]:
        """``mmc_tlb_lookup``: map a virtual word address to
        ``(physical_address, page_words)``; raise :class:`TLBMissError` if
        unmapped."""
        self.lookups += 1
        position = bisect.bisect_right(self._bases, vaddr) - 1
        if position >= 0:
            page = self._pages[position]
            if page.contains(vaddr):
                return page.translate(vaddr), page.page_words
        raise TLBMissError(f"virtual word address {vaddr} is not mapped")
