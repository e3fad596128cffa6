"""The shared MemorySystem contract, checked over every registered
system.

The PVA systems run on the shared simulation kernel
(:class:`repro.sim.kernel.SimKernel`) and the serial baselines cost
their commands in closed form (:mod:`repro.baselines.serial_core`), but
the same behavioural contract must hold everywhere: the watchdog budget
is honoured, ``run`` returns a well-formed
:class:`~repro.sim.stats.RunResult` with a complete attribution ledger,
``reset()`` restores a just-built system, and ``capture_data`` controls
payload capture without affecting timing.
"""

from __future__ import annotations

import pytest

from repro.api import available_systems, build_system
from repro.errors import ConfigurationError, SimulationTimeout
from repro.kernels import build_trace, kernel_by_name
from repro.params import SystemParams
from repro.sim import simulation_limits

ALL_SYSTEMS = available_systems()


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

    # The ids name how the PVA kernel advances under each backend:
    # visiting every cycle (reference) or jumping idle gaps (fast).
    @pytest.mark.parametrize(
        "sim_mode",
        [pytest.param("reference", id="tick"), pytest.param("fast", id="skip")],
    )
    def test_honors_watchdog(self, system, prototype_params, sim_mode):
        """An impossibly small cycle budget must surface as a contained
        SimulationTimeout under both backends — never a hang.  A serial
        baseline checks the budget at each command's start cycle."""
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


@pytest.mark.parametrize("sim_mode", ["reference", "fast"])
@pytest.mark.parametrize("system", ["pva-sdram", "pva-sram"])
def test_run_after_timeout_needs_reset(system, prototype_params, sim_mode):
    """A timed-out run leaves the banks holding half-applied work, so
    the next run on the same system raises until reset(); after it the
    run equals a fresh system's.  (The serial baselines keep no state
    between runs.)"""
    from dataclasses import replace

    params = replace(prototype_params, sim_mode=sim_mode)
    trace = _trace(params)
    instance = build_system(system, params)
    with simulation_limits(max_cycles_per_command=1):
        with pytest.raises(SimulationTimeout):
            instance.run(trace)
    with pytest.raises(ConfigurationError, match=r"reset\(\)"):
        instance.run(trace)
    instance.reset()
    assert instance.run(trace) == build_system(system, params).run(trace)


@pytest.mark.parametrize("sim_mode", ["reference", "fast"])
@pytest.mark.parametrize("system", ["cacheline-serial", "gathering-serial"])
def test_serial_timeout_rule(system, sim_mode):
    """A serial run raises SimulationTimeout exactly when its last
    command would start past ``len(trace) * max_cycles_per_command``:
    each command starts the cycle its predecessor ends, and the budget
    caps start cycles, so a run may end past it."""
    params = SystemParams(sim_mode=sim_mode)
    trace = _trace(params, "saxpy", stride=19)
    total = build_system(system, params).run(trace).cycles
    last_start = total - build_system(system, params).run(trace[-1:]).cycles
    edge = -(-last_start // len(trace))  # the smallest budget that passes
    assert total > len(trace) * edge  # that run ends past its budget
    for budget in range(max(1, edge - 3), edge + 4):
        limit = len(trace) * budget
        with simulation_limits(max_cycles_per_command=budget):
            instance = build_system(system, params)
            if last_start > limit:
                with pytest.raises(
                    SimulationTimeout, match=f"exceeded {limit} cycles"
                ):
                    instance.run(trace)
            else:
                assert instance.run(trace).cycles == total
