"""The shared MemorySystem contract, checked over every registered
system.

All four systems now run on the shared simulation kernel
(:class:`repro.sim.kernel.SimKernel`), so the same behavioural contract
must hold everywhere: the watchdog budget is honoured, ``run`` returns a
well-formed :class:`~repro.sim.stats.RunResult` with a complete
attribution ledger, ``reset()`` restores a just-built system, and
``capture_data`` controls payload capture without affecting timing.
"""

from __future__ import annotations

import pytest

from repro.api import available_systems, build_system
from repro.errors import SimulationTimeout
from repro.kernels import build_trace, kernel_by_name
from repro.params import ENV_SIM_MODE, SystemParams
from repro.sim import simulation_limits

ALL_SYSTEMS = available_systems()


@pytest.fixture(autouse=True)
def _no_env_override(monkeypatch):
    monkeypatch.delenv(ENV_SIM_MODE, raising=False)


def _trace(params, kernel="copy", stride=4, elements=64):
    return build_trace(
        kernel_by_name(kernel), stride=stride, params=params, elements=elements
    )


@pytest.mark.parametrize("system", ALL_SYSTEMS)
class TestSystemContract:
    def test_satisfies_protocol(self, system):
        instance = build_system(system, SystemParams())
        assert instance.name
        assert callable(instance.run)
        assert callable(instance.reset)

    def test_run_result_well_formed(self, system, prototype_params):
        trace = _trace(prototype_params)
        result = build_system(system, prototype_params).run(trace)
        assert result.system
        assert result.cycles > 0
        assert result.commands == len(trace)
        assert result.read_commands + result.write_commands == len(trace)
        assert result.elements_read >= 0
        assert result.elements_written >= 0
        summary = result.summary()
        assert summary["cycles"] == result.cycles

    def test_attribution_complete(self, system, prototype_params):
        """Every run carries a kernel ledger whose per-component buckets
        sum to the run's total cycle count."""
        result = build_system(system, prototype_params).run(
            _trace(prototype_params)
        )
        assert result.attribution
        assert result.attribution_consistent()
        for buckets in result.attribution.values():
            assert buckets.total == result.cycles
        summary = result.attribution_summary()
        assert set(summary) == set(result.attribution)

    # Each backend drives one run loop; the ids name the loop.
    @pytest.mark.parametrize(
        "sim_mode",
        [pytest.param("reference", id="tick"), pytest.param("fast", id="skip")],
    )
    def test_honors_watchdog(self, system, prototype_params, sim_mode):
        """An impossibly small cycle budget must surface as a contained
        SimulationTimeout in both run-loop modes — never a hang."""
        from dataclasses import replace

        params = replace(prototype_params, sim_mode=sim_mode)
        trace = _trace(params)
        with simulation_limits(max_cycles_per_command=1):
            with pytest.raises(SimulationTimeout):
                build_system(system, params).run(trace)

    def test_reset_is_idempotent(self, system, prototype_params):
        """reset() restores a just-built system, and resetting twice is
        the same as resetting once."""
        trace = _trace(prototype_params)
        fresh = build_system(system, prototype_params).run(
            trace, capture_data=True
        )
        instance = build_system(system, prototype_params)
        first = instance.run(trace, capture_data=True)
        instance.reset()
        instance.reset()
        again = instance.run(trace, capture_data=True)
        assert first == fresh
        assert again == fresh

    def test_capture_data_controls_payloads(self, system, prototype_params):
        """capture_data=True gathers read payloads; False leaves them
        unset; timing is identical either way."""
        trace = _trace(prototype_params)
        plain = build_system(system, prototype_params).run(trace)
        captured = build_system(system, prototype_params).run(
            trace, capture_data=True
        )
        assert plain.read_lines is None
        assert captured.read_lines is not None
        assert len(captured.read_lines) == captured.read_commands
        assert captured.cycles == plain.cycles
        assert captured.attribution == plain.attribution
