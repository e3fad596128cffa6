"""Experiment harness: regenerates every table and figure of the paper's
evaluation (chapter 6) plus the ablations called out in DESIGN.md."""

from repro.experiments.grid import (
    EVAL_STRIDES,
    FIGURE7_KERNELS,
    FIGURE8_KERNELS,
    GridResults,
    run_grid,
    run_point,
    stride_sweep,
)
from repro.experiments.figures import (
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
)
from repro.experiments.alignment import alignment_spread, alignment_study
from repro.experiments.headline import headline_ratios
from repro.experiments.complexity import complexity_table
from repro.experiments.ablations import (
    ablate_row_policy,
    ablate_vector_contexts,
    ablate_bypass_paths,
    ablate_bank_scaling,
)

__all__ = [
    "EVAL_STRIDES",
    "FIGURE7_KERNELS",
    "FIGURE8_KERNELS",
    "GridResults",
    "run_grid",
    "run_point",
    "stride_sweep",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "alignment_spread",
    "alignment_study",
    "headline_ratios",
    "complexity_table",
    "ablate_row_policy",
    "ablate_vector_contexts",
    "ablate_bypass_paths",
    "ablate_bank_scaling",
]
