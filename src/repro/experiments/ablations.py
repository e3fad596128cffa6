"""Ablation studies for the design choices DESIGN.md calls out.

Each ablation runs a focused sweep and returns ``(rows, text)`` so the
benchmark harness can both check invariants and print the series:

* row-management policy (paper / close / open / 21174-history),
* number of vector contexts (depth of the reordering window),
* bypass paths on/off (single-request latency, section 5.2.3),
* bank scaling (performance and PLA cost versus M, section 4.3.1),
* subcommand-generation latency and the auto-refresh tax.

Each function's defaults are the sweep its ``results/ablation_*.txt``
artifact records: the benchmarks and ``python -m repro all`` both call
it without sweep arguments, so both write the same file.

All sweeps submit their points through the experiment engine, so
``engine=ExperimentEngine(jobs=N, cache_dir=...)`` parallelizes and
caches any of them; the default is a private inline engine.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.core.pla import pla_product_terms
from repro.engine import (
    CommandTraceSpec,
    ExperimentEngine,
    ExperimentPoint,
    KernelTraceSpec,
)
from repro.experiments.report import format_table
from repro.params import SystemParams
from repro.types import AccessType, Vector, VectorCommand

__all__ = [
    "ablate_row_policy",
    "ablate_vector_contexts",
    "ablate_bypass_paths",
    "ablate_bank_scaling",
    "ablate_subcommand_latency",
    "ablate_refresh",
]


def _engine(engine: Optional[ExperimentEngine]) -> ExperimentEngine:
    return engine if engine is not None else ExperimentEngine()


def _kernel_point(
    params: SystemParams, kernel: str, stride: int, elements: int
) -> ExperimentPoint:
    return ExperimentPoint(
        system="pva-sdram",
        trace=KernelTraceSpec(kernel=kernel, stride=stride, elements=elements),
        params=params,
    )


def _single_read_point(
    params: SystemParams, stride: int, label: str
) -> ExperimentPoint:
    """One isolated vector read into an idle PVA unit."""
    command = VectorCommand(
        vector=Vector(base=3, stride=stride, length=params.cache_line_words),
        access=AccessType.READ,
    )
    return ExperimentPoint(
        system="pva-sdram",
        trace=CommandTraceSpec(commands=(command,), label=label),
        params=params,
    )


def ablate_row_policy(
    kernels: Sequence[str] = ("copy", "scale", "vaxpy"),
    strides: Sequence[int] = (1, 8, 16, 19),
    elements: int = 1024,
    params: Optional[SystemParams] = None,
    engine: Optional[ExperimentEngine] = None,
) -> Tuple[List[Tuple], str]:
    """Compare the four row-management policies."""
    base = params or SystemParams()
    policies = ("paper", "close", "open", "history")
    cases = [(kernel, stride) for kernel in kernels for stride in strides]
    points = [
        _kernel_point(
            replace(base, row_policy=policy), kernel, stride, elements
        )
        for kernel, stride in cases
        for policy in policies
    ]
    cycles = iter(_engine(engine).run(points))
    rows: List[Tuple] = [
        (kernel, stride) + tuple(next(cycles) for _ in policies)
        for kernel, stride in cases
    ]
    headers = ("kernel", "stride") + policies
    return rows, format_table(headers, rows)


def ablate_vector_contexts(
    kernel: str = "vaxpy",
    strides: Sequence[int] = (1, 8, 16, 19),
    context_counts: Sequence[int] = (1, 2, 4, 8),
    elements: int = 1024,
    params: Optional[SystemParams] = None,
    engine: Optional[ExperimentEngine] = None,
) -> Tuple[List[Tuple], str]:
    """Sweep the vector-context window depth."""
    base = params or SystemParams()
    points = [
        _kernel_point(
            replace(base, num_vector_contexts=n), kernel, stride, elements
        )
        for stride in strides
        for n in context_counts
    ]
    cycles = iter(_engine(engine).run(points))
    rows: List[Tuple] = [
        (kernel, stride) + tuple(next(cycles) for _ in context_counts)
        for stride in strides
    ]
    headers = ("kernel", "stride") + tuple(
        f"{n} VC" for n in context_counts
    )
    return rows, format_table(headers, rows)


def ablate_bypass_paths(
    strides: Sequence[int] = (1, 2, 7, 8, 19),
    params: Optional[SystemParams] = None,
    engine: Optional[ExperimentEngine] = None,
) -> Tuple[List[Tuple], str]:
    """Latency of a single vector read into an idle PVA unit, with and
    without the section-5.2.3 bypass paths.

    This is where the bypasses matter: with pipelined traffic their
    latency is hidden, so the ablation uses one isolated command (power-
    of-two and non-power-of-two strides exercise the FHP and FHC paths).
    """
    base = params or SystemParams()
    points = [
        _single_read_point(
            replace(base, bypass_paths=enabled),
            stride,
            f"bypass-{'on' if enabled else 'off'}/s{stride}",
        )
        for stride in strides
        for enabled in (True, False)
    ]
    cycles = iter(_engine(engine).run(points))
    rows: List[Tuple] = []
    for stride in strides:
        with_bypass = next(cycles)
        without = next(cycles)
        rows.append((stride, with_bypass, without, without - with_bypass))
    headers = ("stride", "with bypass", "without bypass", "saved cycles")
    return rows, format_table(headers, rows)


def ablate_subcommand_latency(
    kernel: str = "copy",
    strides: Sequence[int] = (8, 19),
    latencies: Sequence[int] = (2, 5, 13),
    elements: int = 1024,
    params: Optional[SystemParams] = None,
    engine: Optional[ExperimentEngine] = None,
) -> Tuple[List[Tuple], str]:
    """Subcommand-generation latency: PVA vs CVMS-class hardware.

    Section 3.1: the Command Vector Memory System needs "15 memory cycles
    to generate the subcommands" for non-power-of-two strides where the
    PVA's multiply-add needs at most five (two for powers of two).  This
    sweep varies the FirstHit-Calculate latency to show how much of that
    advantage survives pipelining: with requests in flight the FHC hides
    entirely; it is bare single-request latency that pays.
    """
    base = params or SystemParams()
    points: List[ExperimentPoint] = []
    for stride in strides:
        for latency in latencies:
            p = replace(base, fhc_latency=latency)
            points.append(_kernel_point(p, kernel, stride, elements))
            points.append(
                _single_read_point(p, stride, f"fhc{latency}/s{stride}")
            )
    cycles = iter(_engine(engine).run(points))
    rows: List[Tuple] = []
    for stride in strides:
        pipelined = {}
        single = {}
        for latency in latencies:
            pipelined[latency] = next(cycles)
            single[latency] = next(cycles)
        rows.append(
            (stride, "pipelined")
            + tuple(pipelined[latency] for latency in latencies)
        )
        rows.append(
            (stride, "single request")
            + tuple(single[latency] for latency in latencies)
        )
    headers = ("stride", "load") + tuple(
        f"fhc={latency}" for latency in latencies
    )
    return rows, format_table(headers, rows)


def ablate_refresh(
    kernel: str = "scale",
    stride: int = 16,
    intervals: Sequence[int] = (0, 780, 200, 100, 50),
    elements: int = 1024,
    params: Optional[SystemParams] = None,
    engine: Optional[ExperimentEngine] = None,
) -> Tuple[List[Tuple], str]:
    """Auto-refresh tax versus refresh period (0 = disabled, the paper's
    implicit assumption; ~780 cycles is realistic for a 100 MHz part).

    The default point (scale at stride 16) is bank-bound: its single
    busy bank cannot hide the refresh windows."""
    base = params or SystemParams()
    points = [
        _kernel_point(
            replace(base, sdram=replace(base.sdram, refresh_interval=interval)),
            kernel,
            stride,
            elements,
        )
        for interval in intervals
    ]
    cycles = _engine(engine).run(points)
    baseline = cycles[0]
    rows: List[Tuple] = [
        (
            interval if interval else "off",
            count,
            f"{(count / baseline - 1) * 100:+.1f}%",
        )
        for interval, count in zip(intervals, cycles)
    ]
    headers = ("refresh interval", "cycles", "overhead")
    return rows, format_table(headers, rows)


def ablate_bank_scaling(
    kernel: str = "scale",
    stride: int = 8,
    banks: Sequence[int] = (4, 8, 16, 32),
    elements: int = 1024,
    params: Optional[SystemParams] = None,
    engine: Optional[ExperimentEngine] = None,
) -> Tuple[List[Tuple], str]:
    """Performance and PLA cost versus the number of banks.

    The default point (stride 8) is chosen to expose the parallelism
    cliff: with 4 or 8 banks a stride-8 vector lands entirely in one bank
    (``stride mod M == 0`` or ``s == m``), with 16 banks two banks share
    the work, with 32 banks four do.  Strides with full parallelism are
    bus-bound at every M and would show a flat line.
    """
    base = params or SystemParams()
    points = [
        _kernel_point(replace(base, num_banks=m), kernel, stride, elements)
        for m in banks
    ]
    cycles = _engine(engine).run(points)
    rows: List[Tuple] = [
        (
            m,
            count,
            pla_product_terms(m, "k1"),
            pla_product_terms(m, "full_ki"),
        )
        for m, count in zip(banks, cycles)
    ]
    headers = ("banks", "cycles", "K1 PLA terms", "full-Ki PLA terms")
    return rows, format_table(headers, rows)
