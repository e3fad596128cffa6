"""The evaluation grid of section 6.2.

240 data points per memory system: eight access patterns (six kernels plus
the unrolled copy2/scale2), six strides {1, 2, 4, 8, 16, 19}, and five
relative vector alignments.  ``run_grid`` executes any sub-grid and returns
a :class:`GridResults` that the figure generators slice, and
``stride_sweep`` fills in the curve between the six sample strides.

Execution goes through the parallel experiment engine
(:class:`repro.engine.ExperimentEngine`): pass
``engine=ExperimentEngine(jobs=N, cache_dir=...)`` to fan the points
over a worker pool and replay repeated runs from the content-addressed
result cache.  The default (a private inline engine, no cache) is
byte-identical to the historical serial loop.

The serial baselines are alignment-independent (their cost model sees only
addresses-per-command), so they are evaluated once per (kernel, stride)
and shared across alignments — expressed by submitting those points with
the grid's first alignment and letting the engine coalesce duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api import available_systems, system_entry
from repro.core.decode import decompose_stride
from repro.engine import ExperimentEngine, ExperimentPoint, KernelTraceSpec
from repro.errors import ConfigurationError
from repro.experiments.report import format_table
from repro.kernels import ALIGNMENTS, Alignment
from repro.params import SystemParams

__all__ = [
    "EVAL_STRIDES",
    "EVAL_KERNELS",
    "FIGURE7_KERNELS",
    "FIGURE8_KERNELS",
    "GridResults",
    "run_point",
    "run_grid",
    "stride_sweep",
]

#: The six strides of the evaluation.
EVAL_STRIDES: Tuple[int, ...] = (1, 2, 4, 8, 16, 19)

#: The eight access patterns.
EVAL_KERNELS: Tuple[str, ...] = (
    "copy",
    "copy2",
    "saxpy",
    "scale",
    "scale2",
    "swap",
    "tridiag",
    "vaxpy",
)

#: Figure 7 covers the first four patterns, figure 8 the rest.
FIGURE7_KERNELS: Tuple[str, ...] = ("copy", "copy2", "saxpy", "scale")
FIGURE8_KERNELS: Tuple[str, ...] = ("scale2", "swap", "tridiag", "vaxpy")


@dataclass
class GridResults:
    """Cycle counts for every executed (kernel, stride, alignment, system).

    ``cycles[(kernel, stride, alignment_name)][system] = cycles``.
    """

    params: SystemParams
    elements: int
    kernels: Tuple[str, ...]
    strides: Tuple[int, ...]
    alignments: Tuple[str, ...]
    systems: Tuple[str, ...]
    cycles: Dict[Tuple[str, int, str], Dict[str, int]] = field(
        default_factory=dict
    )

    def point(self, kernel: str, stride: int, alignment: str) -> Dict[str, int]:
        return self.cycles[(kernel, stride, alignment)]

    def over_alignments(
        self, kernel: str, stride: int, system: str
    ) -> List[int]:
        """Cycle counts of one system across all alignments, in the
        alignment order of the grid."""
        return [
            self.cycles[(kernel, stride, name)][system]
            for name in self.alignments
        ]

    def min_cycles(self, kernel: str, stride: int, system: str) -> int:
        return min(self.over_alignments(kernel, stride, system))

    def max_cycles(self, kernel: str, stride: int, system: str) -> int:
        return max(self.over_alignments(kernel, stride, system))

    def normalized(
        self, kernel: str, stride: int, system: str, statistic: str = "min"
    ) -> float:
        """Execution time normalized to the minimum PVA-SDRAM time for the
        same access pattern — the paper's bar annotations (1.0 = 100%)."""
        base = self.min_cycles(kernel, stride, "pva-sdram")
        value = (
            self.min_cycles(kernel, stride, system)
            if statistic == "min"
            else self.max_cycles(kernel, stride, system)
        )
        return value / base


def run_point(
    kernel: str,
    stride: int,
    alignment: Alignment,
    params: Optional[SystemParams] = None,
    elements: int = 1024,
    systems: Optional[Sequence[str]] = None,
    *,
    engine: Optional[ExperimentEngine] = None,
) -> Dict[str, int]:
    """Execute one grid point on the requested systems; return cycles."""
    params = params or SystemParams()
    systems = tuple(systems or available_systems())
    engine = engine if engine is not None else ExperimentEngine()
    points = [
        ExperimentPoint(
            system=name,
            trace=KernelTraceSpec(
                kernel=kernel,
                stride=stride,
                alignment=alignment.name,
                elements=elements,
            ),
            params=params,
        )
        for name in systems
    ]
    return dict(zip(systems, engine.run(points)))


def run_grid(
    kernels: Iterable[str] = EVAL_KERNELS,
    strides: Iterable[int] = EVAL_STRIDES,
    alignments: Optional[Iterable[Alignment]] = None,
    params: Optional[SystemParams] = None,
    elements: int = 1024,
    systems: Optional[Sequence[str]] = None,
    *,
    engine: Optional[ExperimentEngine] = None,
) -> GridResults:
    """Execute a (sub-)grid of the evaluation through the engine.

    Fresh memory-system instances are built per point, so points are
    independent and safely parallelizable; the alignment-free serial
    baselines are submitted under the grid's first alignment, so the
    engine computes them once per (kernel, stride) and shares the result.

    Points run on ``engine`` (share one, with its pool, cache and
    metrics, across several grids); the default is a private inline
    engine.
    """
    params = params or SystemParams()
    kernels = tuple(kernels)
    strides = tuple(strides)
    alignment_objs = tuple(alignments if alignments is not None else ALIGNMENTS)
    system_names = tuple(systems or available_systems())
    if not alignment_objs:
        raise ConfigurationError("run_grid needs at least one alignment")
    engine = engine if engine is not None else ExperimentEngine()
    alignment_free = {
        name for name in system_names if system_entry(name).alignment_free
    }
    canonical_alignment = alignment_objs[0].name

    points: List[ExperimentPoint] = []
    slots: List[Tuple[str, int, str, str]] = []
    for kernel in kernels:
        for stride in strides:
            for alignment in alignment_objs:
                for name in system_names:
                    submitted = (
                        canonical_alignment
                        if name in alignment_free
                        else alignment.name
                    )
                    points.append(
                        ExperimentPoint(
                            system=name,
                            trace=KernelTraceSpec(
                                kernel=kernel,
                                stride=stride,
                                alignment=submitted,
                                elements=elements,
                            ),
                            params=params,
                        )
                    )
                    slots.append((kernel, stride, alignment.name, name))

    cycles = engine.run(points)
    results = GridResults(
        params=params,
        elements=elements,
        kernels=kernels,
        strides=strides,
        alignments=tuple(a.name for a in alignment_objs),
        systems=system_names,
    )
    for (kernel, stride, alignment_name, name), count in zip(slots, cycles):
        results.cycles.setdefault((kernel, stride, alignment_name), {})[
            name
        ] = count
    return results


def stride_sweep(
    kernel: str = "scale", max_stride: int = 32, elements: int = 512
) -> Tuple[List[Tuple], str]:
    """PVA-SDRAM against cache-line serial at every stride from 1 to
    ``max_stride``, under the first alignment; returns ``(rows, text)``.

    The defaults are the sweep ``results/extended_stride_sweep.txt``
    records, which ``python -m repro sweep`` prints.
    """
    if max_stride < 1:
        raise ConfigurationError(
            f"max_stride must be positive, got {max_stride}"
        )
    grid = run_grid(
        kernels=(kernel,),
        strides=range(1, max_stride + 1),
        alignments=ALIGNMENTS[:1],
        elements=elements,
        systems=("pva-sdram", "cacheline-serial"),
    )
    rows: List[Tuple] = []
    for stride in grid.strides:
        cycles = grid.point(kernel, stride, ALIGNMENTS[0].name)
        pva, serial = cycles["pva-sdram"], cycles["cacheline-serial"]
        banks = decompose_stride(stride, grid.params.num_banks).banks_hit
        rows.append((stride, banks, pva, serial, f"{serial / pva:.1f}x"))
    headers = (
        "stride", "banks hit", "pva cycles", "cacheline cycles", "speedup"
    )
    return rows, format_table(headers, rows)
