"""The benchmark kernels of Table 2.

Each kernel is a loop over strided array elements; as a memory-system
workload it is the *pattern of vector commands per cache-line block* that
matters — which arrays are read and written, in what order, and with what
element offset.  ``copy2`` and ``scale2`` are the unrolled variants of
section 6.2/6.3, grouping two consecutive commands per vector so the PVA
sees back-to-back requests to the same array.

Reference loops (L = elements, S = stride):

=========  ===========================================================
copy       ``for i: y[i] = x[i]``
saxpy      ``for i: y[i] += a * x[i]``
scale      ``for i: x[i] = a * x[i]``
swap       ``for i: reg = x[i]; x[i] = y[i]; y[i] = reg``
tridiag    ``for i: x[i] = z[i] * (y[i] - x[i-1])``   (Livermore 5)
vaxpy      ``for i: y[i] += a[i] * x[i]``
=========  ===========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.types import AccessType

__all__ = ["ArrayAccess", "Kernel", "KERNELS", "kernel_by_name"]


@dataclass(frozen=True)
class ArrayAccess:
    """One vector command the kernel issues per block: which array, which
    direction, and an element offset (``-1`` for tridiag's ``x[i-1]``)."""

    array: str
    access: AccessType
    offset_elements: int = 0


@dataclass(frozen=True)
class Kernel:
    """A vector kernel as a per-block command pattern."""

    name: str
    arrays: Tuple[str, ...]
    pattern: Tuple[ArrayAccess, ...]
    #: Commands to the same array grouped over this many consecutive
    #: blocks (1 = no unrolling).
    unroll: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if self.unroll < 1:
            raise ConfigurationError(
                f"unroll must be >= 1, got {self.unroll}"
            )
        for access in self.pattern:
            if access.array not in self.arrays:
                raise ConfigurationError(
                    f"kernel {self.name}: pattern uses unknown array "
                    f"{access.array!r}"
                )


def _k(name, arrays, pattern, unroll=1, description=""):
    return Kernel(
        name=name,
        arrays=arrays,
        pattern=pattern,
        unroll=unroll,
        description=description,
    )


KERNELS: Dict[str, Kernel] = {
    kernel.name: kernel
    for kernel in (
        _k(
            "copy",
            ("x", "y"),
            (
                ArrayAccess("x", AccessType.READ),
                ArrayAccess("y", AccessType.WRITE),
            ),
            description="y[i] = x[i]  (BLAS copy)",
        ),
        _k(
            "copy2",
            ("x", "y"),
            (
                ArrayAccess("x", AccessType.READ),
                ArrayAccess("y", AccessType.WRITE),
            ),
            unroll=2,
            description="copy unrolled: two consecutive commands per vector",
        ),
        _k(
            "saxpy",
            ("x", "y"),
            (
                ArrayAccess("x", AccessType.READ),
                ArrayAccess("y", AccessType.READ),
                ArrayAccess("y", AccessType.WRITE),
            ),
            description="y[i] += a * x[i]  (BLAS axpy)",
        ),
        _k(
            "scale",
            ("x",),
            (
                ArrayAccess("x", AccessType.READ),
                ArrayAccess("x", AccessType.WRITE),
            ),
            description="x[i] = a * x[i]  (BLAS scal)",
        ),
        _k(
            "scale2",
            ("x",),
            (
                ArrayAccess("x", AccessType.READ),
                ArrayAccess("x", AccessType.WRITE),
            ),
            unroll=2,
            description="scale unrolled: two consecutive commands per vector",
        ),
        _k(
            "swap",
            ("x", "y"),
            (
                ArrayAccess("x", AccessType.READ),
                ArrayAccess("y", AccessType.READ),
                ArrayAccess("x", AccessType.WRITE),
                ArrayAccess("y", AccessType.WRITE),
            ),
            description="x[i] <-> y[i]  (BLAS swap)",
        ),
        _k(
            "tridiag",
            ("x", "y", "z"),
            (
                ArrayAccess("z", AccessType.READ),
                ArrayAccess("y", AccessType.READ),
                ArrayAccess("x", AccessType.READ, offset_elements=-1),
                ArrayAccess("x", AccessType.WRITE),
            ),
            description="x[i] = z[i] * (y[i] - x[i-1])  (Livermore loop 5)",
        ),
        _k(
            "vaxpy",
            ("a", "x", "y"),
            (
                ArrayAccess("a", AccessType.READ),
                ArrayAccess("x", AccessType.READ),
                ArrayAccess("y", AccessType.READ),
                ArrayAccess("y", AccessType.WRITE),
            ),
            description="y[i] += a[i] * x[i]  (vector axpy)",
        ),
    )
}


def kernel_by_name(name: str) -> Kernel:
    """Look up a kernel; raise with the available names on a typo."""
    try:
        return KERNELS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel {name!r}; available: {sorted(KERNELS)}"
        ) from None
