"""Shared value types for the PVA reproduction library.

Conventions
-----------
* Addresses are **word addresses** (one machine word = 4 bytes) unless a
  name is explicitly suffixed ``_byte``.
* A base-stride vector is the paper's tuple ``V = <B, S, L>``: base word
  address, stride in words, and element count (section 4.1.1).
* Vector *commands* are what the memory-controller front end places on the
  vector bus: a vector plus an access direction and a transaction id.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import VectorSpecError

__all__ = [
    "WORD_BYTES",
    "AccessType",
    "Vector",
    "VectorCommand",
    "ExplicitCommand",
    "ElementAccess",
]

#: Size of one machine word in bytes.  The paper's prototype targets a
#: MIPS R10000 with 32-bit (4-byte) vector elements.
WORD_BYTES = 4


class AccessType(enum.Enum):
    """Direction of a vector operation on the vector bus."""

    READ = "read"
    WRITE = "write"

    @property
    def is_read(self) -> bool:
        return self is AccessType.READ

    @property
    def is_write(self) -> bool:
        return self is AccessType.WRITE


@dataclass(frozen=True)
class Vector:
    """A base-stride application vector ``V = <B, S, L>`` (section 4.1.1).

    ``base`` is the word address of element 0, ``stride`` the distance in
    words between consecutive elements, and ``length`` the element count.
    Element ``i`` lives at word address ``base + i * stride``.

    Example: ``Vector(base=0, stride=4, length=5)`` designates the words
    ``0, 4, 8, 12, 16`` — the paper's ``<A, 4, 5>`` example.
    """

    base: int
    stride: int
    length: int

    def __post_init__(self) -> None:
        if self.base < 0:
            raise VectorSpecError(f"vector base must be >= 0, got {self.base}")
        if self.length <= 0:
            raise VectorSpecError(
                f"vector length must be positive, got {self.length}"
            )
        if self.stride <= 0:
            raise VectorSpecError(
                "vector stride must be positive (the PVA hardware handles "
                f"forward base-stride vectors), got {self.stride}"
            )

    def element_address(self, index: int) -> int:
        """Word address of element ``index`` (``V[index]``)."""
        if not 0 <= index < self.length:
            raise IndexError(
                f"vector index {index} out of range [0, {self.length})"
            )
        return self.base + index * self.stride

    def addresses(self) -> Iterator[int]:
        """Yield the word address of every element, in vector order."""
        addr = self.base
        for _ in range(self.length):
            yield addr
            addr += self.stride

    @property
    def last_address(self) -> int:
        """Word address of the final element."""
        return self.base + (self.length - 1) * self.stride

    @property
    def span_words(self) -> int:
        """Number of words between the first and last element, inclusive."""
        return (self.length - 1) * self.stride + 1

    def split(self, max_length: int) -> List["Vector"]:
        """Split into consecutive subvectors of at most ``max_length``
        elements each.

        This mirrors what the memory-controller front end does when an
        application vector is longer than one cache-line-sized command
        (32 elements in the prototype): a 1024-element application vector
        becomes 32 bus commands (section 6.2).
        """
        if max_length <= 0:
            raise VectorSpecError(
                f"max_length must be positive, got {max_length}"
            )
        pieces: List[Vector] = []
        remaining = self.length
        base = self.base
        while remaining > 0:
            take = min(max_length, remaining)
            pieces.append(Vector(base=base, stride=self.stride, length=take))
            base += take * self.stride
            remaining -= take
        return pieces

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<B={self.base}, S={self.stride}, L={self.length}>"


def _check_data(data: Optional[Tuple[int, ...]], length: int) -> None:
    """Write data, when given, must cover every element of its command."""
    if data is not None and len(data) < length:
        raise VectorSpecError(
            f"write command carries {len(data)} words for a "
            f"{length}-element vector"
        )


@dataclass(frozen=True)
class VectorCommand:
    """One vector-bus operation: a vector plus direction and optional tag.

    ``tag`` identifies the command within a trace (useful for debugging and
    statistics); the bus-level three-bit transaction id is assigned
    dynamically by the front end, not stored here.
    """

    vector: Vector
    access: AccessType
    tag: Optional[str] = None
    #: Write data for the command's elements, in vector-index order.
    #: ``None`` on reads and on performance-only write traces (the
    #: simulator scatters a placeholder pattern).
    data: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        _check_data(self.data, self.vector.length)

    @property
    def is_read(self) -> bool:
        return self.access.is_read

    @property
    def is_write(self) -> bool:
        return self.access.is_write


@dataclass(frozen=True)
class ExplicitCommand:
    """A scatter/gather command over an explicit address list.

    This is the command shape the paper's future-work extensions need
    (chapter 7): vector-indirect gathers broadcast the indirection
    vector's contents (two addresses per cycle) and bit-reversed vectors
    are expanded sequentially — in both cases each bank controller snoops
    the element addresses and bit-masks out its own, instead of evaluating
    FirstHit.  ``broadcast_cycles`` carries the request-phase bus cost the
    expansion implies.
    """

    addresses: Tuple[int, ...]
    access: AccessType
    broadcast_cycles: int
    tag: Optional[str] = None
    data: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not self.addresses:
            raise VectorSpecError("explicit command carries no addresses")
        if any(a < 0 for a in self.addresses):
            raise VectorSpecError("explicit command has a negative address")
        if self.broadcast_cycles < 1:
            raise VectorSpecError(
                f"broadcast_cycles must be >= 1, got {self.broadcast_cycles}"
            )
        _check_data(self.data, len(self.addresses))

    @property
    def is_read(self) -> bool:
        return self.access.is_read

    @property
    def is_write(self) -> bool:
        return self.access.is_write

    @property
    def length(self) -> int:
        return len(self.addresses)


@dataclass(frozen=True)
class ElementAccess:
    """A single expanded element reference: which vector element touched
    which word address.  Produced by reference expanders and used to verify
    the parallel algorithms against brute force."""

    index: int
    address: int


def expand_reference(vector: Vector) -> List[ElementAccess]:
    """Brute-force expansion of a vector into per-element accesses.

    This is the *reference semantics* every parallel-access algorithm in
    :mod:`repro.core` must agree with; it is what a naive serial controller
    would compute one element per cycle.
    """
    return [
        ElementAccess(index=i, address=addr)
        for i, addr in enumerate(vector.addresses())
    ]
