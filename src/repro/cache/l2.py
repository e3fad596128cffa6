"""A set-associative, write-back/write-allocate L2 cache model.

Chapter 1: "Though modern processors generate memory operations at
several granularities, such operations are filtered through the cache and
the real memory accesses are done by the cache controllers at cacheline
grain size."  This model is that filter: scalar accesses go in, line
fills and write-backs come out.

It also quantifies the paper's *cache pollution* argument: for a strided
application vector only ``line_words / stride`` of each fetched line is
useful, so large strides both thrash the cache and waste bus bandwidth —
the numbers `utilization()` reports.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.params import is_power_of_two

__all__ = ["CacheStats", "L2Cache"]


@dataclass
class CacheStats:
    """Access and traffic counters."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    writebacks: int = 0
    #: Distinct words actually touched in filled lines (for pollution
    #: accounting).
    words_used: int = 0

    def utilization(self, line_words: int) -> float:
        """Fraction of fetched words the processor actually used —
        chapter 1's 'poor cache utilization' number."""
        fetched = self.fills * line_words
        if fetched == 0:
            return 0.0
        return min(1.0, self.words_used / fetched)


class _Line:
    __slots__ = ("tag", "dirty", "touched")

    def __init__(self, tag: int):
        self.tag = tag
        self.dirty = False
        self.touched: Set[int] = set()


class L2Cache:
    """Set-associative cache with LRU replacement, write-back and
    write-allocate — the policy the paper assumes for the L2
    (section 5.2.4 relies on write-allocate separating same-line writes
    with a read)."""

    def __init__(
        self,
        total_words: int = 1 << 16,  # 256 KB of 4-byte words
        associativity: int = 4,
        line_words: int = 32,
    ):
        if not is_power_of_two(total_words):
            raise ConfigurationError(
                f"total_words must be a power of two, got {total_words}"
            )
        if not is_power_of_two(line_words):
            raise ConfigurationError(
                f"line_words must be a power of two, got {line_words}"
            )
        if associativity < 1:
            raise ConfigurationError("associativity must be >= 1")
        lines = total_words // line_words
        if lines % associativity:
            raise ConfigurationError(
                f"{lines} lines do not divide into ways of {associativity}"
            )
        self.total_words = total_words
        self.associativity = associativity
        self.line_words = line_words
        self.num_sets = lines // associativity
        self._line_bits = line_words.bit_length() - 1
        # Per set: OrderedDict tag -> _Line, LRU first.
        self._sets: List["OrderedDict[int, _Line]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.stats = CacheStats()

    # ----------------------------------------------------------------- #

    def _locate(self, address: int) -> Tuple[int, int, int]:
        line_address = address >> self._line_bits
        set_index = line_address % self.num_sets
        tag = line_address // self.num_sets
        return line_address, set_index, tag

    def line_base(self, address: int) -> int:
        """Word address of the start of the line containing ``address``."""
        return (address >> self._line_bits) << self._line_bits

    def access(
        self, address: int, is_write: bool = False
    ) -> Tuple[bool, Optional[int]]:
        """One scalar access.

        Returns ``(hit, writeback_line_base)``: on a miss the line is
        allocated (write-allocate) and, if the victim was dirty, its base
        address is returned so the front end can issue the write-back.
        """
        line_address, set_index, tag = self._locate(address)
        ways = self._sets[set_index]
        offset = address & (self.line_words - 1)
        line = ways.get(tag)
        if line is not None:
            ways.move_to_end(tag)
            self.stats.hits += 1
            if offset not in line.touched:
                line.touched.add(offset)
                self.stats.words_used += 1
            if is_write:
                line.dirty = True
            return True, None
        # Miss: fill, possibly evicting the LRU way.
        self.stats.misses += 1
        self.stats.fills += 1
        writeback = None
        if len(ways) >= self.associativity:
            victim_tag, victim = ways.popitem(last=False)
            if victim.dirty:
                self.stats.writebacks += 1
                victim_line_address = victim_tag * self.num_sets + set_index
                writeback = victim_line_address << self._line_bits
        line = _Line(tag)
        line.touched.add(offset)
        self.stats.words_used += 1
        if is_write:
            line.dirty = True
        ways[tag] = line
        return False, writeback

    def contains(self, address: int) -> bool:
        _, set_index, tag = self._locate(address)
        return tag in self._sets[set_index]
