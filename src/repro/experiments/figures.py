"""Figure generators for the paper's evaluation plots.

Each function slices a :class:`~repro.experiments.grid.GridResults` into
the series a figure plots and returns it as structured rows plus a
printable table.  Conventions follow the paper:

* **Figures 7/8** — per-kernel panels of cycles versus stride, four
  memory systems, min/max over the five alignments for the PVA systems.
* **Figures 9/10** — per-stride panels across all kernels, annotated with
  execution time normalized to the minimum PVA-SDRAM time per pattern.
* **Figure 11** — the vaxpy detail: (a) PVA-SDRAM cycles per
  stride x alignment normalized to the leftmost (stride 1, first
  alignment) bar; (b) PVA-SRAM normalized to the corresponding SDRAM bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.engine import ExperimentEngine
from repro.errors import ConfigurationError
from repro.experiments.grid import (
    FIGURE7_KERNELS,
    FIGURE8_KERNELS,
    GridResults,
    run_grid,
)
from repro.experiments.report import format_percent, format_table

__all__ = [
    "FigureSeries",
    "FIGURE_GRIDS",
    "run_figure",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
]


@dataclass
class FigureSeries:
    """One reproduced figure: labelled rows plus a rendered table."""

    name: str
    headers: Tuple[str, ...]
    rows: List[Tuple]
    text: str


def _stride_panel(
    grid: GridResults, kernels: Tuple[str, ...], name: str
) -> FigureSeries:
    headers = (
        "kernel",
        "stride",
        "pva-sdram(min)",
        "pva-sdram(max)",
        "pva-sram(min)",
        "pva-sram(max)",
        "cacheline-serial",
        "gathering-serial",
        "cacheline/pva",
        "gathering/pva",
    )
    rows: List[Tuple] = []
    for kernel in kernels:
        if kernel not in grid.kernels:
            continue
        for stride in grid.strides:
            pva_min = grid.min_cycles(kernel, stride, "pva-sdram")
            rows.append(
                (
                    kernel,
                    stride,
                    pva_min,
                    grid.max_cycles(kernel, stride, "pva-sdram"),
                    grid.min_cycles(kernel, stride, "pva-sram"),
                    grid.max_cycles(kernel, stride, "pva-sram"),
                    grid.min_cycles(kernel, stride, "cacheline-serial"),
                    grid.min_cycles(kernel, stride, "gathering-serial"),
                    format_percent(
                        grid.min_cycles(kernel, stride, "cacheline-serial")
                        / pva_min
                    ),
                    format_percent(
                        grid.min_cycles(kernel, stride, "gathering-serial")
                        / pva_min
                    ),
                )
            )
    return FigureSeries(
        name=name,
        headers=headers,
        rows=rows,
        text=format_table(headers, rows),
    )


def figure7(grid: GridResults) -> FigureSeries:
    """Comparative performance with varying stride — copy, copy2, saxpy,
    scale (figure 7)."""
    return _stride_panel(grid, FIGURE7_KERNELS, "figure 7")


def figure8(grid: GridResults) -> FigureSeries:
    """Comparative performance with varying stride — scale2, swap,
    tridiag, vaxpy (figure 8)."""
    return _stride_panel(grid, FIGURE8_KERNELS, "figure 8")


def _fixed_stride_panel(
    grid: GridResults, strides: Tuple[int, ...], name: str
) -> FigureSeries:
    headers = (
        "stride",
        "kernel",
        "pva-sdram(min)",
        "pva-sram(min)",
        "cacheline-serial",
        "gathering-serial",
        "cacheline norm",
        "gathering norm",
        "pva-sram norm",
    )
    rows: List[Tuple] = []
    for stride in strides:
        if stride not in grid.strides:
            continue
        for kernel in grid.kernels:
            base = grid.min_cycles(kernel, stride, "pva-sdram")
            rows.append(
                (
                    stride,
                    kernel,
                    base,
                    grid.min_cycles(kernel, stride, "pva-sram"),
                    grid.min_cycles(kernel, stride, "cacheline-serial"),
                    grid.min_cycles(kernel, stride, "gathering-serial"),
                    format_percent(
                        grid.min_cycles(kernel, stride, "cacheline-serial")
                        / base
                    ),
                    format_percent(
                        grid.min_cycles(kernel, stride, "gathering-serial")
                        / base
                    ),
                    format_percent(
                        grid.min_cycles(kernel, stride, "pva-sram") / base
                    ),
                )
            )
    return FigureSeries(
        name=name,
        headers=headers,
        rows=rows,
        text=format_table(headers, rows),
    )


def figure9(grid: GridResults) -> FigureSeries:
    """All kernels at fixed strides 1 and 4 (figure 9)."""
    return _fixed_stride_panel(grid, (1, 4), "figure 9")


def figure10(grid: GridResults) -> FigureSeries:
    """All kernels at fixed strides 8, 16 and 19 (figure 10)."""
    return _fixed_stride_panel(grid, (8, 16, 19), "figure 10")


def figure11(grid: GridResults, kernel: str = "vaxpy") -> FigureSeries:
    """The vaxpy stride x alignment detail (figure 11).

    Rows carry the PVA-SDRAM cycles normalized to the leftmost bar
    (first stride, first alignment) and PVA-SRAM normalized to the
    corresponding SDRAM bar — the paper's key "SDRAM within ~15 % of
    SRAM" evidence.
    """
    headers = (
        "stride",
        "alignment",
        "pva-sdram",
        "pva-sram",
        "sdram vs leftmost",
        "sram/sdram",
    )
    first = grid.point(kernel, grid.strides[0], grid.alignments[0])
    leftmost = first["pva-sdram"]
    rows: List[Tuple] = []
    for stride in grid.strides:
        for alignment in grid.alignments:
            point = grid.point(kernel, stride, alignment)
            sdram = point["pva-sdram"]
            sram = point["pva-sram"]
            rows.append(
                (
                    stride,
                    alignment,
                    sdram,
                    sram,
                    format_percent(sdram / leftmost),
                    format_percent(sram / sdram),
                )
            )
    return FigureSeries(
        name=f"figure 11 ({kernel})",
        headers=headers,
        rows=rows,
        text=format_table(headers, rows),
    )


#: The (sub-)grid each figure needs: ``{number: (generator, grid kwargs)}``.
FIGURE_GRIDS = {
    "7": (figure7, dict(kernels=FIGURE7_KERNELS)),
    "8": (figure8, dict(kernels=FIGURE8_KERNELS)),
    "9": (figure9, dict(strides=(1, 4))),
    "10": (figure10, dict(strides=(8, 16, 19))),
    "11": (
        figure11,
        dict(kernels=("vaxpy",), systems=("pva-sdram", "pva-sram")),
    ),
}


def run_figure(
    number: str,
    elements: int = 1024,
    engine: Optional[ExperimentEngine] = None,
) -> FigureSeries:
    """Run the grid one of the paper's figures needs and generate it.

    The grid is submitted through ``engine`` (parallel execution and
    result caching); a private inline engine is used by default.
    """
    try:
        generator, grid_kwargs = FIGURE_GRIDS[str(number)]
    except KeyError:
        raise ConfigurationError(
            f"unknown figure {number!r}; available: {sorted(FIGURE_GRIDS)}"
        ) from None
    grid = run_grid(elements=elements, engine=engine, **grid_kwargs)
    return generator(grid)
