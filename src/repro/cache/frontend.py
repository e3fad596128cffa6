"""Cache front end: scalar access streams -> memory-controller commands.

This is the machinery chapter 1 describes: the processor issues loads and
stores; the cache filters them; the memory controller sees only
cache-line-grain traffic.  Feeding a strided loop through it produces the
"conventional system" command stream — every miss a unit-stride line
fill, every eviction a write-back — which can then be run on any of the
simulated memory systems and compared against the PVA's gathered
commands for the same loop.

The comparison quantifies both halves of the paper's motivation:

* **bus traffic**: fills x line size versus the elements actually used;
* **cache pollution**: `L2Cache.stats.utilization()`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.cache.l2 import L2Cache
from repro.params import SystemParams
from repro.types import AccessType, Vector, VectorCommand

__all__ = ["ScalarAccess", "CacheFrontEnd"]


@dataclass(frozen=True)
class ScalarAccess:
    """One processor load/store of a single word."""

    address: int
    is_write: bool = False


class CacheFrontEnd:
    """Filters a scalar access stream through an L2 and emits the
    line-grain command trace the memory controller would see."""

    def __init__(
        self,
        params: Optional[SystemParams] = None,
        cache: Optional[L2Cache] = None,
    ):
        self.params = params or SystemParams()
        self.cache = cache or L2Cache(
            line_words=self.params.cache_line_words
        )

    def feed(self, accesses: Iterable[ScalarAccess]) -> List[VectorCommand]:
        """Run the accesses; return the memory commands in issue order
        (fills as unit-stride reads, write-backs as unit-stride writes)."""
        line_words = self.cache.line_words
        commands: List[VectorCommand] = []
        for access in accesses:
            hit, writeback = self.cache.access(
                access.address, access.is_write
            )
            if writeback is not None:
                commands.append(
                    VectorCommand(
                        vector=Vector(
                            base=writeback, stride=1, length=line_words
                        ),
                        access=AccessType.WRITE,
                        tag=f"writeback[{writeback}]",
                    )
                )
            if not hit:
                commands.append(
                    VectorCommand(
                        vector=Vector(
                            base=self.cache.line_base(access.address),
                            stride=1,
                            length=line_words,
                        ),
                        access=AccessType.READ,
                        tag=f"fill[{access.address}]",
                    )
                )
        return commands

    # ----------------------------------------------------------------- #
    # Convenience generators
    # ----------------------------------------------------------------- #

    @staticmethod
    def strided_loop(
        base: int, stride: int, length: int, is_write: bool = False
    ) -> List[ScalarAccess]:
        """The scalar accesses of ``for i: touch x[i * stride]``."""
        return [
            ScalarAccess(address=base + i * stride, is_write=is_write)
            for i in range(length)
        ]

    def traffic_words(self, commands: List[VectorCommand]) -> int:
        """Bus traffic in words for a line-grain command trace."""
        return sum(c.vector.length for c in commands)
