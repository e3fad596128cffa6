"""Impulse-style shadow address spaces (section 3.2).

The PVA unit was designed in the context of the Impulse memory
controller, which lets software create a *shadow* region whose dense
addresses remap to a strided view of real memory: "When the processor
accesses data in the shadow space, the memory controller does
scatter/gather accesses from the real memory region that backs the shadow
address region and compacts the strided data into dense cache lines."

:class:`ShadowRegion` implements that remapping layer on top of the PVA
unit: a dense shadow word ``base + i`` corresponds to the physical word
``target_base + i * stride``, so an ordinary cache-line fill of the
shadow region becomes exactly one base-stride vector command — the
mechanism by which the processor side never needs new instructions to
exploit the PVA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import AddressError, ConfigurationError
from repro.params import SystemParams
from repro.types import AccessType, Vector, VectorCommand

__all__ = ["ShadowRegion", "ShadowSpace"]


@dataclass(frozen=True)
class ShadowRegion:
    """One configured shadow mapping: dense shadow words onto a strided
    view of physical memory."""

    shadow_base: int
    target_base: int
    stride: int
    length: int

    def __post_init__(self) -> None:
        if self.shadow_base < 0 or self.target_base < 0:
            raise ConfigurationError("shadow and target bases must be >= 0")
        if self.stride <= 0:
            raise ConfigurationError(
                f"shadow stride must be positive, got {self.stride}"
            )
        if self.length <= 0:
            raise ConfigurationError(
                f"shadow length must be positive, got {self.length}"
            )

    @property
    def shadow_end(self) -> int:
        return self.shadow_base + self.length

    def contains(self, shadow_address: int) -> bool:
        return self.shadow_base <= shadow_address < self.shadow_end

    def translate(self, shadow_address: int) -> int:
        """Physical word backing one shadow word."""
        if not self.contains(shadow_address):
            raise AddressError(
                f"shadow address {shadow_address} outside region "
                f"[{self.shadow_base}, {self.shadow_end})"
            )
        return self.target_base + (shadow_address - self.shadow_base) * self.stride

    def line_fill_command(
        self,
        shadow_line_address: int,
        params: SystemParams,
        access: AccessType = AccessType.READ,
        data=None,
    ) -> VectorCommand:
        """The vector command a cache-line fill of the shadow space turns
        into at the memory controller.

        ``shadow_line_address`` must be line-aligned inside the region;
        the fill's final elements are clamped to the region length (a
        partial last line gathers only mapped words).
        """
        line = params.cache_line_words
        if shadow_line_address % line:
            raise AddressError(
                f"shadow line address {shadow_line_address} is not aligned "
                f"to {line} words"
            )
        if not self.contains(shadow_line_address):
            raise AddressError(
                f"shadow line {shadow_line_address} outside region"
            )
        count = min(line, self.shadow_end - shadow_line_address)
        return VectorCommand(
            vector=Vector(
                base=self.translate(shadow_line_address),
                stride=self.stride,
                length=count,
            ),
            access=access,
            tag=f"shadow[{shadow_line_address}]",
            data=data,
        )


class ShadowSpace:
    """The memory controller's table of configured shadow regions.

    Regions are configured "either directly by the programmer or by a
    smart compiler"; the controller consults the table on every shadow
    access.  Regions may not overlap in shadow space (they may freely
    alias in physical space — two views of the same data are the point).
    """

    def __init__(self) -> None:
        self._regions: List[ShadowRegion] = []

    def configure(self, region: ShadowRegion) -> None:
        for existing in self._regions:
            lo = max(existing.shadow_base, region.shadow_base)
            hi = min(existing.shadow_end, region.shadow_end)
            if lo < hi:
                raise ConfigurationError(
                    f"shadow region at {region.shadow_base} overlaps the "
                    f"region at {existing.shadow_base}"
                )
        self._regions.append(region)

    def region_of(self, shadow_address: int) -> ShadowRegion:
        for region in self._regions:
            if region.contains(shadow_address):
                return region
        raise AddressError(
            f"shadow address {shadow_address} is not mapped by any region"
        )

    def fill_commands(
        self,
        shadow_base: int,
        length: int,
        params: SystemParams,
        access: AccessType = AccessType.READ,
    ) -> List[VectorCommand]:
        """Commands for a dense shadow read/write of ``length`` words
        starting at a line-aligned shadow address."""
        line = params.cache_line_words
        commands = []
        address = shadow_base
        end = shadow_base + length
        while address < end:
            region = self.region_of(address)
            commands.append(
                region.line_fill_command(address, params, access=access)
            )
            address += line
        return commands
