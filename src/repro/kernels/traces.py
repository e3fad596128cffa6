"""Command-trace generation for the evaluation (section 6.2).

The experiments run 1024-element application vectors chunked into
cache-line-sized commands (32 elements), at strides {1, 2, 4, 8, 16, 19}
and five *relative vector alignments* — "placement of the base addresses
within memory banks, within internal banks for a given SDRAM, and within
rows or pages for a given internal bank".

Arrays are laid out in disjoint regions separated by a multiple of the
full bank x internal-bank x row geometry, so that with zero alignment
offset every array's base lands on the same bank, the same internal bank
and the same row offset; each named alignment then perturbs the bases to
steer them to different banks / internal banks / conflicting rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.kernels.kernels import Kernel
from repro.params import SystemParams
from repro.types import AccessType, Vector, VectorCommand

__all__ = [
    "Alignment",
    "ALIGNMENTS",
    "alignment_by_name",
    "build_trace",
    "array_bases",
]

#: Words reserved before the first array so that negative element offsets
#: (tridiag's ``x[i-1]``) stay at non-negative addresses.
_LEAD_WORDS = 64


@dataclass(frozen=True)
class Alignment:
    """One relative-alignment setting: array ``i`` is displaced by
    ``offset_fn(i, params)`` words from its region base."""

    name: str
    description: str
    offset_fn: Callable[[int, SystemParams], int]

    def offset(self, array_index: int, params: SystemParams) -> int:
        return self.offset_fn(array_index, params)


def _same_everything(i: int, p: SystemParams) -> int:
    return 0


def _next_bank(i: int, p: SystemParams) -> int:
    return i  # one word: consecutive banks


def _next_line(i: int, p: SystemParams) -> int:
    return i * p.cache_line_words  # same bank, nearby columns


def _next_internal_bank(i: int, p: SystemParams) -> int:
    # One full row per bank advances the row sequence by one, which the
    # device geometry maps to the next internal bank.
    return i * p.num_banks * p.sdram.row_words


def _row_conflict(i: int, p: SystemParams) -> int:
    # Advance the row sequence by a full internal-bank rotation: the same
    # internal bank, a different row -- the worst case.
    return i * p.num_banks * p.sdram.row_words * p.sdram.internal_banks


ALIGNMENTS: List[Alignment] = [
    Alignment(
        "aligned",
        "all bases on the same bank, internal bank and row offset",
        _same_everything,
    ),
    Alignment(
        "bank+1",
        "bases staggered by one word: consecutive memory banks",
        _next_bank,
    ),
    Alignment(
        "line+1",
        "bases staggered by one cache line: same bank, nearby columns",
        _next_line,
    ),
    Alignment(
        "ibank+1",
        "bases staggered by one row pitch: same bank, next internal bank",
        _next_internal_bank,
    ),
    Alignment(
        "row-conflict",
        "bases staggered to the same internal bank but different rows",
        _row_conflict,
    ),
]


def alignment_by_name(name: str) -> Alignment:
    """Look up one of the five evaluation alignments by its name."""
    for alignment in ALIGNMENTS:
        if alignment.name == name:
            return alignment
    raise ConfigurationError(
        f"unknown alignment {name!r}; available: "
        f"{[a.name for a in ALIGNMENTS]}"
    )


def _region_words(elements: int, max_stride: int, params: SystemParams) -> int:
    """Per-array region size: spans the largest vector plus alignment
    head-room, rounded up to a whole bank x internal-bank x row period so
    zero-offset bases are congruent in every geometric dimension."""
    period = (
        params.num_banks * params.sdram.row_words * params.sdram.internal_banks
    )
    need = (
        _LEAD_WORDS
        + elements * max_stride
        + period  # head-room for the largest alignment offset
    )
    regions = (need + period - 1) // period
    return (regions + 1) * period


def array_bases(
    kernel: Kernel,
    stride: int,
    elements: int,
    params: SystemParams,
    alignment: Alignment,
    max_stride: Optional[int] = None,
) -> dict:
    """Base word address of each of the kernel's arrays under
    ``alignment``.  ``max_stride`` (default: ``stride``) sizes the regions
    so traces of different strides can share a layout."""
    region = _region_words(elements, max_stride or stride, params)
    bases = {}
    for i, name in enumerate(kernel.arrays):
        bases[name] = _LEAD_WORDS + i * region + alignment.offset(i, params)
    return bases


def build_trace(
    kernel: Kernel,
    stride: int,
    params: Optional[SystemParams] = None,
    elements: int = 1024,
    alignment: Optional[Alignment] = None,
) -> List[VectorCommand]:
    """Generate the vector-command trace one kernel run produces.

    The ``elements``-element application vectors are chunked into
    cache-line commands of ``params.cache_line_words`` elements; per chunk
    (or per ``kernel.unroll`` chunks, grouped by array) the kernel's
    pattern of reads and writes is emitted in program order.
    """
    params = params or SystemParams()
    alignment = alignment or ALIGNMENTS[0]
    if stride <= 0:
        raise ConfigurationError(f"stride must be positive, got {stride}")
    if elements < 1:
        raise ConfigurationError(f"elements must be positive, got {elements}")
    chunk = params.cache_line_words
    if elements % chunk:
        raise ConfigurationError(
            f"elements ({elements}) must be a multiple of the command "
            f"length ({chunk})"
        )
    bases = array_bases(kernel, stride, elements, params, alignment)
    blocks = elements // chunk
    commands: List[VectorCommand] = []
    for group_start in range(0, blocks, kernel.unroll):
        group = range(group_start, min(group_start + kernel.unroll, blocks))
        for access in kernel.pattern:
            for block in group:
                first_element = block * chunk + access.offset_elements
                base = bases[access.array] + first_element * stride
                commands.append(
                    VectorCommand(
                        vector=Vector(base=base, stride=stride, length=chunk),
                        access=access.access,
                        tag=f"{kernel.name}.{access.array}"
                        f".{access.access.value}[{block}]",
                    )
                )
    return commands
