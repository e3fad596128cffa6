"""Baseline 3: the Parallel Vector Access SRAM system (section 6.1).

The same PVA controller and bus protocol, but driving idealized
uniform-access SRAM banks: no RAS, CAS or precharge latencies.  The paper
uses the gap between PVA-SDRAM and PVA-SRAM (at most ~15 %) as the measure
of how well the scheduling heuristics hide DRAM overheads; the experiment
harness reports the min and max over relative alignments, matching the
"min/max parallel vector access SRAM" bars.

Because the factory returns a real :class:`~repro.pva.system.PVAMemorySystem`
(just with SRAM bank memory, ``memory="sram"``, timed by
``params.sram``), the variant runs on the shared simulation kernel like
PVA-SDRAM: it has the same two backends and per-component
cycle-attribution breakdown, and it honours ``reset()``/``capture_data``
under the common :class:`~repro.sim.runner.MemorySystem` contract.
"""

from __future__ import annotations

from typing import Optional

from repro.params import SystemParams
from repro.pva.system import PVAMemorySystem

__all__ = ["make_pva_sram"]


def make_pva_sram(
    params: Optional[SystemParams] = None,
    name: str = "pva-sram",
) -> PVAMemorySystem:
    """Build a PVA memory system whose banks are idealized SRAM, timed
    by ``params.sram``."""
    return PVAMemorySystem(params=params, memory="sram", name=name)
