"""The abstract's headline numbers.

"the PVA is able to load elements up to 32.8 times faster than a
conventional memory system and 3.3 times faster than a pipelined vector
unit, without hurting normal cache line fill performance."

``headline_ratios`` measures the reproduction's equivalents over a grid:

* max speedup of PVA-SDRAM over the cache-line serial system;
* max speedup over the gathering (pipelined vector unit) system;
* the unit-stride band (cache-line serial normalized to PVA, which the
  paper reports as 100-109 %);
* the worst PVA-SDRAM vs PVA-SRAM gap (paper: at most ~15 %).

Note on the 32.8x factor: our conventional baseline counts one 20-cycle
fill per *distinct* line a command touches.  At stride 19 two consecutive
elements share a 128-byte line 13 times out of 32, so the honest fill
count is 19 per command and the measured ceiling lands near 20x; the
paper's 32.8x corresponds to a fill per element (32 x 20 cycles per
command), i.e. no intra-line reuse in its serial model.  Construct the
baseline with per-element accounting to reproduce the paper's factor —
``headline_table`` reports both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.baselines.cacheline_serial import CacheLineSerialSDRAM
from repro.engine import ExperimentEngine
from repro.experiments.grid import GridResults, run_grid
from repro.experiments.report import format_table
from repro.kernels import build_trace, kernel_by_name
from repro.params import SystemParams
from repro.pva import PVAMemorySystem

__all__ = [
    "HeadlineRatios",
    "headline_ratios",
    "headline_table",
    "measure_headline",
]


@dataclass(frozen=True)
class HeadlineRatios:
    """Measured counterparts of the abstract's claims."""

    max_speedup_vs_cacheline: float
    max_speedup_vs_cacheline_at: Tuple[str, int]
    max_speedup_vs_gathering: float
    max_speedup_vs_gathering_at: Tuple[str, int]
    unit_stride_band: Tuple[float, float]
    worst_sram_gap: float

    def summary(self) -> Dict[str, object]:
        return {
            "max_speedup_vs_cacheline": round(self.max_speedup_vs_cacheline, 1),
            "at": self.max_speedup_vs_cacheline_at,
            "max_speedup_vs_gathering": round(self.max_speedup_vs_gathering, 2),
            "gathering_at": self.max_speedup_vs_gathering_at,
            "unit_stride_band_pct": (
                round(self.unit_stride_band[0] * 100),
                round(self.unit_stride_band[1] * 100),
            ),
            "worst_sram_gap_pct": round(self.worst_sram_gap * 100, 1),
        }


def measure_headline(
    kernels: Sequence[str] = ("copy", "scale", "swap"),
    elements: int = 1024,
    engine: Optional[ExperimentEngine] = None,
) -> HeadlineRatios:
    """Run the grid the headline numbers need and extract the ratios.

    Submits through ``engine`` (parallel execution and result caching);
    the default is a private inline engine.
    """
    grid = run_grid(kernels=kernels, elements=elements, engine=engine)
    return headline_ratios(grid)


def headline_ratios(grid: GridResults) -> HeadlineRatios:
    """Extract the headline ratios from an executed grid.

    The grid must include stride 1 (for the unit-stride band) and should
    include the large/prime strides for the maxima to be meaningful.
    """
    best_cache = 0.0
    best_cache_at: Tuple[str, int] = ("", 0)
    best_gather = 0.0
    best_gather_at: Tuple[str, int] = ("", 0)
    unit_lo: Optional[float] = None
    unit_hi: Optional[float] = None
    worst_gap = 0.0
    for kernel in grid.kernels:
        for stride in grid.strides:
            pva = grid.min_cycles(kernel, stride, "pva-sdram")
            cache = grid.min_cycles(kernel, stride, "cacheline-serial")
            gather = grid.min_cycles(kernel, stride, "gathering-serial")
            if cache / pva > best_cache:
                best_cache = cache / pva
                best_cache_at = (kernel, stride)
            if gather / pva > best_gather:
                best_gather = gather / pva
                best_gather_at = (kernel, stride)
            if stride == 1:
                ratio = cache / pva
                unit_lo = ratio if unit_lo is None else min(unit_lo, ratio)
                unit_hi = ratio if unit_hi is None else max(unit_hi, ratio)
            for alignment in grid.alignments:
                point = grid.point(kernel, stride, alignment)
                if "pva-sram" in point:
                    gap = point["pva-sdram"] / point["pva-sram"] - 1
                    worst_gap = max(worst_gap, gap)
    return HeadlineRatios(
        max_speedup_vs_cacheline=best_cache,
        max_speedup_vs_cacheline_at=best_cache_at,
        max_speedup_vs_gathering=best_gather,
        max_speedup_vs_gathering_at=best_gather_at,
        unit_stride_band=(unit_lo or 0.0, unit_hi or 0.0),
        worst_sram_gap=worst_gap,
    )


def headline_table(
    elements: int = 1024, engine: Optional[ExperimentEngine] = None
) -> Tuple[HeadlineRatios, float, str]:
    """The ``results/headline.txt`` table: each abstract claim beside
    the measured ratio, and the conventional-system speedup again under
    the paper's per-element fill accounting (scale at stride 19).

    Returns ``(ratios, per-element-fill speedup, text)``.
    """
    ratios = measure_headline(elements=elements, engine=engine)
    params = SystemParams()
    trace = build_trace(
        kernel_by_name("scale"), stride=19, params=params, elements=elements
    )
    pva = PVAMemorySystem(params).run(trace).cycles
    per_element = (
        CacheLineSerialSDRAM(params, fill_per_element=True).run(trace).cycles
        / pva
    )
    summary = ratios.summary()
    text = format_table(
        ("quantity", "paper", "measured (honest)", "measured (per-element fills)"),
        [
            (
                "max speedup vs conventional",
                "32.8x",
                f"{summary['max_speedup_vs_cacheline']}x at {summary['at']}",
                f"{per_element:.1f}x (scale, stride 19)",
            ),
            (
                "max speedup vs pipelined vector unit",
                "3.3x",
                f"{summary['max_speedup_vs_gathering']}x at "
                f"{summary['gathering_at']}",
                "-",
            ),
            (
                "unit-stride cache-line fill cost",
                "100-109%",
                f"{summary['unit_stride_band_pct'][0]}-"
                f"{summary['unit_stride_band_pct'][1]}%",
                "-",
            ),
            (
                "worst SDRAM-vs-SRAM gap",
                "<= ~15%",
                f"{summary['worst_sram_gap_pct']}%",
                "-",
            ),
        ],
    )
    return ratios, per_element, text
