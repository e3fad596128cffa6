"""Multi-channel topologies across every backend and baseline.

The topology generalization (line transfers split evenly across
channels, the only effect a channel has) must behave identically in both
``sim_mode`` backends, on plain, ``capture_data`` and logged runs alike —
they share one bus-occupancy model — and the analytic formulas must keep
predicting the serial baselines exactly.
"""

from dataclasses import replace

import pytest

from repro.analysis.model import (
    cacheline_serial_cycles,
    gathering_serial_cycles,
    pva_lower_bound,
)
from repro.api import simulate
from repro.kernels import ALIGNMENTS, build_trace, kernel_by_name
from repro.params import SIM_MODES, SystemParams

from .differential import assert_equivalent, spy_on_bank_paths

MULTI_CHANNEL_PARAMS = (
    SystemParams(num_channels=2),
    SystemParams(num_channels=4),
    SystemParams(num_banks=4, num_channels=4),
    SystemParams(num_banks=8, num_channels=2, cache_line_words=16),
)


def _trace(params, kernel="saxpy", stride=19, elements=128):
    return build_trace(
        kernel_by_name(kernel),
        stride=stride,
        params=params,
        elements=elements,
    )


class TestBackendAgreement:
    @pytest.mark.parametrize("base", MULTI_CHANNEL_PARAMS)
    @pytest.mark.parametrize("system", ("pva-sdram", "pva-sram"))
    def test_all_four_modes_bit_identical(self, base, system, monkeypatch):
        """The reference object graph and fast's SoA automaton agree on
        a plain run, a ``capture_data`` run and a run with command logs
        attached."""
        paths = spy_on_bank_paths(monkeypatch)
        trace = _trace(base)
        (reference,) = assert_equivalent(paths, system, base, trace)
        assert reference.cycles > 0
        assert_equivalent(paths, system, base, trace, capture_data=True)
        assert_equivalent(paths, system, base, trace, logs=True)

    @pytest.mark.parametrize("stride", (1, 4, 19))
    @pytest.mark.parametrize("alignment", ALIGNMENTS)
    def test_two_channel_stride_alignment_sweep(self, stride, alignment):
        base = SystemParams(num_channels=2)
        trace = build_trace(
            kernel_by_name("copy"),
            stride=stride,
            alignment=alignment,
            elements=128,
            params=base,
        )
        results = [
            simulate(trace, replace(base, sim_mode=mode), system="pva-sdram")
            for mode in SIM_MODES
        ]
        assert all(r == results[0] for r in results[1:])


class TestChannelScaling:
    def test_more_channels_never_slow_the_pva_down(self):
        """Splitting the line transfer across channels relieves the bus
        bottleneck on dense accesses."""
        trace_params = SystemParams()
        trace = _trace(trace_params, kernel="copy", stride=1)
        one = simulate(trace, trace_params, system="pva-sdram").cycles
        two = simulate(
            trace, SystemParams(num_channels=2), system="pva-sdram"
        ).cycles
        four = simulate(
            trace, SystemParams(num_channels=4), system="pva-sdram"
        ).cycles
        assert one > two > four

    @pytest.mark.parametrize("base", MULTI_CHANNEL_PARAMS)
    def test_simulated_cycles_respect_the_lower_bound(self, base):
        trace = _trace(base)
        cycles = simulate(trace, base, system="pva-sdram").cycles
        assert cycles >= pva_lower_bound(trace, base)


class TestSerialBaselinesMatchAnalysis:
    @pytest.mark.parametrize("channels", (1, 2, 4))
    def test_cacheline_serial_formula_exact(self, channels):
        params = SystemParams(num_channels=channels)
        trace = _trace(params, kernel="vaxpy", stride=2)
        assert simulate(
            trace, params, system="cacheline-serial"
        ).cycles == cacheline_serial_cycles(trace, params)

    @pytest.mark.parametrize("channels", (1, 2, 4))
    def test_gathering_serial_formula_exact(self, channels):
        params = SystemParams(num_channels=channels)
        trace = _trace(params, kernel="vaxpy", stride=2)
        assert simulate(
            trace, params, system="gathering-serial"
        ).cycles == gathering_serial_cycles(trace, params)
