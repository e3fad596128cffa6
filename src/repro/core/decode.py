"""Bank decoding and stride decomposition (section 4.1.1).

``DecodeBank(addr)`` maps a word address to the memory bank that owns it.
For an ``N``-word interleave block over ``M = 2**m`` banks it is the
bit-select ``(addr >> n) mod M`` — word interleave is the ``N = 1`` case.

Every stride can be written ``S = sigma * 2**s`` with ``sigma`` odd
(section 4.1.4); ``s`` — the number of trailing zero bits — determines both
the set of banks a vector touches (lemma 4.2: banks at modulo distances
that are multiples of ``2**s``) and the revisit period
``NextHit = 2**(m-s)`` (theorem 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import ConfigurationError, VectorSpecError
from repro.params import is_power_of_two, log2_exact

__all__ = [
    "BankDecoder",
    "StrideDecomposition",
    "decompose_stride",
]


@dataclass(frozen=True)
class BankDecoder:
    """Bit-select bank decoder for an interleaved memory.

    Parameters
    ----------
    num_banks:
        ``M = 2**m``, the number of banks.
    block_words:
        ``N = 2**n``, the number of consecutive words each bank holds
        before the next bank takes over.  ``1`` for word interleave,
        the cache-line size for cache-line interleave.
    """

    num_banks: int
    block_words: int = 1

    def __post_init__(self) -> None:
        if not is_power_of_two(self.num_banks):
            raise ConfigurationError(
                f"num_banks must be a power of two, got {self.num_banks}"
            )
        if not is_power_of_two(self.block_words):
            raise ConfigurationError(
                f"block_words must be a power of two, got {self.block_words}"
            )

    @cached_property
    def bank_bits(self) -> int:
        """``m`` such that ``num_banks == 2**m`` (cached: hot in
        ``bank_of``/``local_word``)."""
        return log2_exact(self.num_banks, "num_banks")

    @cached_property
    def block_bits(self) -> int:
        """``n`` such that ``block_words == 2**n`` (cached likewise)."""
        return log2_exact(self.block_words, "block_words")

    def bank_of(self, address: int) -> int:
        """``DecodeBank(addr) = (addr >> n) mod M`` (section 4.1.1)."""
        if address < 0:
            raise VectorSpecError(f"address must be >= 0, got {address}")
        return (address >> self.block_bits) & (self.num_banks - 1)

    def local_word(self, address: int) -> int:
        """Index of ``address`` within its bank's local storage.

        The bank sees blocks of ``block_words`` at a block pitch of
        ``num_banks`` blocks; words inside a block stay consecutive.
        """
        if address < 0:
            raise VectorSpecError(f"address must be >= 0, got {address}")
        block = address >> self.block_bits
        offset = address & (self.block_words - 1)
        return (block >> self.bank_bits) * self.block_words + offset

    def block_offset(self, address: int) -> int:
        """Offset of ``address`` within its interleave block
        (the paper's ``theta`` for the vector base)."""
        return address & (self.block_words - 1)


@dataclass(frozen=True)
class StrideDecomposition:
    """``S mod M`` written as ``sigma * 2**s`` with ``sigma`` odd.

    The degenerate case ``S mod M == 0`` is represented with
    ``sigma == 1`` and ``s == m``: the vector touches a single bank and
    revisits it on every element (``delta == 2**(m-s) == 1``).
    """

    stride: int
    num_banks: int
    sigma: int
    s: int

    @property
    def bank_bits(self) -> int:
        return log2_exact(self.num_banks, "num_banks")

    @property
    def delta(self) -> int:
        """Theorem 4.4: ``NextHit(S) = 2**(m-s)``."""
        return 1 << (self.bank_bits - self.s)

    @property
    def banks_hit(self) -> int:
        """Number of distinct banks the vector can touch
        (``M / 2**s``, lemma 4.2) — the available parallelism."""
        return self.num_banks >> self.s

    @property
    def is_power_of_two_stride(self) -> bool:
        """True when the bus-visible stride is a power of two (or hits a
        single bank), i.e. the FirstHit address needs only shift/mask and
        the FHP can complete it in one cycle (section 5.2.2)."""
        return self.sigma == 1

    @property
    def k1(self) -> int:
        """Theorem 4.3's ``K1``: the smallest vector index hitting the bank
        at modulo distance ``2**s`` from the base bank.

        ``K1`` satisfies ``K1 * sigma === 1 (mod 2**(m-s))`` — it is the
        multiplicative inverse of the odd factor, which always exists.
        """
        modulus = self.delta
        if modulus == 1:
            return 0
        return pow(self.sigma, -1, modulus)


def decompose_stride(stride: int, num_banks: int) -> StrideDecomposition:
    """Decompose ``stride mod num_banks`` into ``sigma * 2**s``.

    Per lemma 4.1 only the least-significant ``m`` bits of the stride
    matter for the bank access pattern, so the decomposition operates on
    ``stride mod M``.
    """
    if stride <= 0:
        raise VectorSpecError(f"stride must be positive, got {stride}")
    if not is_power_of_two(num_banks):
        raise ConfigurationError(
            f"num_banks must be a power of two, got {num_banks}"
        )
    m = num_banks.bit_length() - 1
    s_mod = stride % num_banks
    if s_mod == 0:
        return StrideDecomposition(
            stride=stride, num_banks=num_banks, sigma=1, s=m
        )
    s = (s_mod & -s_mod).bit_length() - 1  # trailing zero count
    sigma = s_mod >> s
    return StrideDecomposition(
        stride=stride, num_banks=num_banks, sigma=sigma, s=s
    )
