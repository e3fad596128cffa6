"""The simulation watchdog: a cycle budget worked out from the run."""

import json

import pytest

import repro.sim.runner
from repro.errors import ReproError, SimulationTimeout
from repro.params import SystemParams
from repro.sim.runner import Watchdog


@pytest.fixture
def budget(monkeypatch):
    """Set the per-command cycle budget for the rest of one test."""
    return lambda cycles: monkeypatch.setattr(
        repro.sim.runner, "CYCLES_PER_COMMAND", cycles
    )


class TestWatchdog:
    def test_within_budget_is_silent(self, budget):
        budget(10)
        dog = Watchdog(2, SystemParams(), system="test")
        for cycle in range(20):
            dog.check(cycle)

    def test_cycle_budget_trips(self, budget):
        budget(10)
        dog = Watchdog(2, SystemParams(), system="test")
        with pytest.raises(SimulationTimeout):
            dog.check(21)

    def test_timeout_is_a_repro_error(self, budget):
        budget(1)
        dog = Watchdog(1, SystemParams(), system="test")
        with pytest.raises(ReproError):
            dog.check(2)

    def test_empty_trace_still_has_a_budget(self, budget):
        budget(8)
        dog = Watchdog(0, SystemParams(), system="test")
        dog.check(8)
        with pytest.raises(SimulationTimeout):
            dog.check(9)

    def test_issue_interval_widens_the_budget(self):
        """A throttled front end idles up to ``issue_interval`` cycles
        per command, so each command's budget grows by that much."""
        dog = Watchdog(3, SystemParams(issue_interval=5000), system="test")
        assert dog.cycle_limit == 3 * (4096 + 5000)
        dog.check(dog.cycle_limit)
        with pytest.raises(SimulationTimeout):
            dog.check(dog.cycle_limit + 1)


def _copy_trace(params, stride=1, elements=256):
    from repro.kernels import build_trace, kernel_by_name

    return build_trace(
        kernel_by_name("copy"), stride=stride, params=params, elements=elements
    )


class TestSystemsAreContained:
    """Every paper system runs its trace under a watchdog: shrink the
    budget and a healthy run becomes a contained SimulationTimeout."""

    @pytest.mark.parametrize(
        "system",
        ["pva-sdram", "pva-sram", "cacheline-serial", "gathering-serial"],
    )
    def test_tiny_budget_trips_each_system(self, system, budget):
        from repro.api import simulate

        params = SystemParams()
        budget(1)
        with pytest.raises(SimulationTimeout):
            simulate(_copy_trace(params), params, system=system)

    @pytest.mark.parametrize(
        "system",
        ["pva-sdram", "pva-sram", "cacheline-serial", "gathering-serial"],
    )
    def test_default_budget_is_generous(self, system):
        from repro.api import simulate

        params = SystemParams()
        trace = _copy_trace(params, stride=19, elements=128)
        assert simulate(trace, params, system=system).cycles > 0

    @pytest.mark.parametrize("sim_mode", ["reference", "fast"])
    def test_throttled_front_end_finishes(self, sim_mode):
        """Regression: a flat 4,096 cycles per command declared this
        healthy run runaway at 32,768 cycles, although ``issue_interval``
        alone spaces its eight commands 5,000 cycles apart."""
        from repro.api import simulate

        params = SystemParams(issue_interval=5000, sim_mode=sim_mode)
        trace = _copy_trace(params, elements=128)
        assert simulate(trace, params).cycles == 35_024


def test_explore_sweeps_issue_interval(tmp_path):
    """Regression: an explore spec over a throttled front end simulates
    every design instead of raising SimulationTimeout."""
    from repro.cli import main

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"axes": {"issue_interval": [0, 5000]}}))
    out = tmp_path / "report.json"
    assert main(["explore", "--spec", str(spec), "--out", str(out)]) == 0
    points = json.loads(out.read_text())["points"]
    assert [point["status"] for point in points] == ["simulated"] * 2
