"""Differential suite, logged runs and the serial baselines:
``sim_mode="fast"`` against ``sim_mode="reference"``.

Every PVA run here has command logs attached, so the fast backend's
structure-of-arrays automaton records every PRECHARGE, ACTIVATE and
column its walk issues; the logs must equal the command streams the
reference's device models record.  The fast run jumps idle gaps via
each component's next-event lower bound.  An underestimated bound can
only cost speed; an *overestimated* one would show up here as a
divergence in the :class:`~repro.sim.stats.RunResult`, the memory image
or the logged command streams.  The serial baselines are closed forms
that ``sim_mode`` does not touch: their cases assert that both modes
give the same run.  The harness lives in :mod:`tests.sim.differential`.
"""

from __future__ import annotations

import random

import pytest

from repro.kernels import ALIGNMENTS
from repro.params import SDRAMTiming, SystemParams

from .differential import (
    ALL_SYSTEMS,
    PAPER_STRIDES,
    PVA_SYSTEMS,
    SCATTER_GATHER,
    assert_equivalent,
    kernel_trace,
    spy_on_bank_paths,
)


@pytest.fixture(autouse=True)
def paths(monkeypatch):
    return spy_on_bank_paths(monkeypatch)


def assert_loops_agree(paths, system, params, *traces, capture_data=False):
    """Both backends with the PVA systems' command streams logged (the
    serial baselines keep no log)."""
    return assert_equivalent(
        paths,
        system,
        params,
        *traces,
        capture_data=capture_data,
        logs=system in PVA_SYSTEMS,
    )


class TestPaperConfiguration:
    """The prototype configuration over the evaluation strides."""

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    @pytest.mark.parametrize("stride", PAPER_STRIDES)
    def test_copy_all_strides(self, paths, system, stride, prototype_params):
        trace = kernel_trace(prototype_params, stride=stride)
        assert_loops_agree(paths, system, prototype_params, trace)

    @pytest.mark.parametrize("system", PVA_SYSTEMS)
    @pytest.mark.parametrize(
        "alignment", ALIGNMENTS, ids=[a.name for a in ALIGNMENTS]
    )
    def test_saxpy_stride19_all_alignments(
        self, paths, system, alignment, prototype_params
    ):
        trace = kernel_trace(
            prototype_params, "saxpy", elements=128, alignment=alignment
        )
        assert_loops_agree(paths, system, prototype_params, trace)

    @pytest.mark.parametrize("system", PVA_SYSTEMS)
    def test_data_payloads_match(self, paths, system, prototype_params):
        """capture_data=True: the gathered lines and per-command
        latencies must be identical, not just the cycle totals."""
        trace = kernel_trace(prototype_params, "swap", elements=128)
        (result,) = assert_loops_agree(
            paths, system, prototype_params, trace, capture_data=True
        )
        assert result.read_lines  # the comparison actually saw payloads

    def test_refresh_enabled(self, paths):
        """Auto-refresh interacts with every skip bound; a realistic
        refresh period must not break equivalence."""
        params = SystemParams(sdram=SDRAMTiming(refresh_interval=777))
        trace = kernel_trace(params)
        assert_loops_agree(paths, "pva-sdram", params, trace, capture_data=True)

    def test_issue_interval_throttled_front_end(self, paths):
        """A finite-rate processor leaves idle gaps the fast run jumps."""
        for interval in (7, 256):
            params = SystemParams(issue_interval=interval)
            trace = kernel_trace(params, "scale", stride=4, elements=128)
            assert_loops_agree(paths, "pva-sdram", params, trace)

    def test_explicit_commands_with_refresh(self, paths):
        """Explicit scatters and gathers after a strided kernel, with
        refresh deadlines inside the run."""
        params = SystemParams(sdram=SDRAMTiming(refresh_interval=300))
        trace = kernel_trace(params, "saxpy", elements=128)
        assert_loops_agree(paths, "pva-sdram", params, trace, SCATTER_GATHER)


class TestFuzzedGeometries:
    """Seeded random machine geometries x kernels x strides, all four
    systems, payload comparison included."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_geometry(self, paths, seed):
        rng = random.Random(0xC0FFEE + seed)
        params = SystemParams(
            num_banks=rng.choice((4, 8, 16, 32)),
            cache_line_words=rng.choice((8, 16, 32)),
            num_vector_contexts=rng.choice((1, 2, 4)),
            bypass_paths=rng.random() < 0.5,
            issue_interval=rng.choice((0, 0, 3)),
            bus_turnaround=rng.choice((0, 1, 2)),
            sdram=SDRAMTiming(
                t_rcd=rng.randint(1, 3),
                cas_latency=rng.randint(1, 3),
                t_rp=rng.randint(1, 3),
                t_wr=rng.randint(0, 2),
                internal_banks=rng.choice((2, 4)),
                row_words=rng.choice((64, 128, 256)),
                refresh_interval=rng.choice((0, 777)),
            ),
        )
        trace = kernel_trace(
            params,
            rng.choice(
                ("copy", "copy2", "saxpy", "scale", "swap", "tridiag", "vaxpy")
            ),
            rng.choice(PAPER_STRIDES),
            elements=96,
            alignment=rng.choice(ALIGNMENTS),
        )
        for system in ALL_SYSTEMS:
            assert_loops_agree(paths, system, params, trace, capture_data=True)
