"""Unit tests for the PVA run loop over clocked components.

Tests parametrized over ``metronome`` run each case twice: with the
kernel free to jump idle cycles, and with a
:class:`~tests.sim.differential.Metronome` among its components, which
makes it visit every cycle.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.api import build_system
from repro.errors import SimulationTimeout
from repro.kernels import build_trace, kernel_by_name
from repro.params import SystemParams
from repro.sim.events import HORIZON
from repro.sim.kernel import SimKernel
from repro.sim.runner import Watchdog
from repro.sim.stats import ComponentCycles, SpanLedger

from .differential import Metronome


class Pulse:
    """A toy component that acts at the scheduled cycles, stalls while
    work remains, and idles after."""

    def __init__(self, name, schedule):
        self.name = name
        self.schedule = sorted(schedule)
        self.fired = []
        self.tick_calls = 0
        self.ledger = SpanLedger()
        self.ledger.mark(0, bool(self.schedule))

    def tick(self, cycle):
        self.tick_calls += 1
        if self.schedule and self.schedule[0] == cycle:
            self.fired.append(self.schedule.pop(0))
            self.ledger.act(cycle, bool(self.schedule))
            return True
        return False

    def next_event_cycle(self, cycle):
        return self.schedule[0] if self.schedule else HORIZON

    def account(self, total_cycles):
        return {self.name: self.ledger.close(total_cycles)}

    def done(self):
        return not self.schedule


def _watchdog(budget=4096):
    dog = Watchdog(1, SystemParams(), system="test")
    dog.cycle_limit = budget
    return dog


def _kernel(components, metronome, budget=4096, watchdog=None):
    if metronome:
        components = [Metronome(), *components]
    return SimKernel(components, watchdog=watchdog or _watchdog(budget))


def _account(kernel, total_cycles):
    """Merge every component's ledger entries in component order, as
    :meth:`repro.pva.system.PVAMemorySystem.run` does after its loop."""
    ledger = {}
    for component in kernel._components:
        ledger.update(component.account(total_cycles))
    return ledger


def _run(schedules, metronome):
    pulses = [
        Pulse(f"pulse-{i}", schedule) for i, schedule in enumerate(schedules)
    ]
    kernel = _kernel(pulses, metronome)
    exit_cycle = kernel.run(lambda: all(p.done() for p in pulses))
    return kernel, pulses, exit_cycle


class TestLoopEquivalence:
    SCHEDULES = [[3, 7, 40], [5, 41], []]

    def test_visiting_every_cycle_changes_nothing(self):
        """The same pulses fire, at the same exit cycle, with the same
        ledger, whether the kernel jumps or visits every cycle."""
        tick_kernel, tick_pulses, tick_exit = _run(self.SCHEDULES, True)
        skip_kernel, skip_pulses, skip_exit = _run(self.SCHEDULES, False)
        assert tick_kernel._components[0].visits == tick_exit
        assert skip_exit == tick_exit
        assert [p.fired for p in skip_pulses] == [
            p.fired for p in tick_pulses
        ]
        assert _account(skip_kernel, skip_exit) == _account(
            tick_kernel, tick_exit
        )

    def test_gating_spares_tick_calls_in_both_modes(self):
        """Quiet components are not re-polled while their cached bound
        holds: with every cycle visited, dispatch gating still ticks a
        pulse only on the interesting cycles (far below the exit cycle,
        42 here), and jumping never costs extra calls over visiting."""
        _, tick_pulses, tick_exit = _run(self.SCHEDULES, True)
        _, skip_pulses, _ = _run(self.SCHEDULES, False)
        assert skip_pulses[0].tick_calls <= tick_pulses[0].tick_calls
        assert tick_pulses[0].tick_calls < tick_exit // 2

    def test_ledger_buckets_sum_to_exit_cycle(self):
        for metronome in (False, True):
            kernel, _, exit_cycle = _run(self.SCHEDULES, metronome)
            for entry in _account(kernel, exit_cycle).values():
                assert entry.total == exit_cycle

    def test_passive_component_never_wakes_the_kernel(self):
        class Passive:
            name = "passive"

            def tick(self, cycle):
                return False

            def next_event_cycle(self, cycle):
                return HORIZON

            def account(self, total_cycles):
                return {}

        pulse = Pulse("pulse", [9])
        kernel = SimKernel([pulse, Passive()], watchdog=_watchdog())
        exit_cycle = kernel.run(pulse.done)
        assert exit_cycle == 10
        # The pulse visited far fewer than 10 cycles: the passive
        # component's HORIZON bound let the jump straight to cycle 9.
        assert pulse.tick_calls <= 3


class TestWatchdog:
    @pytest.mark.parametrize("metronome", [False, True])
    def test_deadlock_times_out(self, metronome):
        """A done() that never holds must raise SimulationTimeout even
        when every bound is HORIZON — the jump target is capped at the
        watchdog's cycle limit."""
        kernel = _kernel([Pulse("stuck", [])], metronome, budget=64)
        with pytest.raises(SimulationTimeout):
            kernel.run(lambda: False)

    def test_budget_boundary_is_exact(self):
        """Regression for the limit-vs-skip off-by-one: check() admits
        the limit cycle itself and rejects the one after, and clamp_skip
        — the one place skip targets meet the budget — caps at exactly
        the first rejected cycle."""
        dog = _watchdog(budget=64)
        limit = dog.cycle_limit
        dog.check(limit)  # the boundary cycle is still inside the budget
        with pytest.raises(SimulationTimeout):
            dog.check(limit + 1)
        assert dog.clamp_skip(HORIZON) == limit + 1
        assert dog.clamp_skip(limit + 2) == limit + 1
        # Targets at or inside the budget pass through untouched —
        # clamping them would stall legitimate jumps.
        assert dog.clamp_skip(limit + 1) == limit + 1
        assert dog.clamp_skip(limit) == limit

    @pytest.mark.parametrize("metronome", [False, True])
    def test_deadlock_raises_at_first_cycle_past_limit(self, metronome):
        """Jumping or visiting every cycle, the loop must reach the
        budget boundary exactly: the raise happens at cycle limit + 1,
        not earlier (budget shortened) nor later (overshoot)."""

        class Recording(Watchdog):
            last_checked = -1

            def check(self, cycle):
                self.last_checked = cycle
                super().check(cycle)

        dog = Recording(1, SystemParams(), system="test")
        dog.cycle_limit = 64
        kernel = _kernel([Pulse("stuck", [])], metronome, watchdog=dog)
        with pytest.raises(SimulationTimeout):
            kernel.run(lambda: False)
        assert dog.last_checked == dog.cycle_limit + 1


class TestFinalize:
    """Finalizing a run closes every ledger at the run's total."""

    def test_tail_padding_completes_the_ledger(self):
        """Each component closes its own ledger at the run's total,
        which may lie past the loop's exit."""
        kernel, _, exit_cycle = _run([[3]], False)
        ledger = _account(kernel, exit_cycle + 10)
        entry = ledger["pulse-0"]
        assert entry.total == exit_cycle + 10
        assert entry.idle >= 10  # the padded tail is post-work idle

    def test_ledger_values_are_component_cycles(self):
        kernel, _, exit_cycle = _run([[3]], True)
        ledger = _account(kernel, exit_cycle)
        assert all(
            isinstance(entry, ComponentCycles) for entry in ledger.values()
        )


class Duo:
    """A toy component speaking for two logical parts (the shape of the
    bank automaton, which reports every ``bank-*`` entry)."""

    name = "duo"

    def __init__(self, schedule):
        self.inner = Pulse("inner", schedule)

    def tick(self, cycle):
        return self.inner.tick(cycle)

    def next_event_cycle(self, cycle):
        return self.inner.next_event_cycle(cycle)

    def done(self):
        return self.inner.done()

    def account(self, total_cycles):
        return {
            "part-a": ComponentCycles(busy=total_cycles),
            "part-b": ComponentCycles(idle=total_cycles),
        }


class TestSelfAccounting:
    def test_finalize_merges_component_ledger(self):
        """Entries merge in component order, each as its component
        reported it; a component's own name need not be an entry."""
        for metronome in (False, True):
            first, duo = Pulse("first", [2]), Duo([1, 5])
            kernel = _kernel([first, duo, Pulse("last", [3])], metronome)
            exit_cycle = kernel.run(duo.done)
            ledger = _account(kernel, exit_cycle + 3)
            assert list(ledger) == ["first", "part-a", "part-b", "last"]
            assert ledger["first"] == first.ledger.close(exit_cycle + 3)
            assert ledger["part-a"] == ComponentCycles(busy=exit_cycle + 3)
            assert ledger["part-b"] == ComponentCycles(idle=exit_cycle + 3)


class TestSpanLedger:
    def test_spans_keep_the_last_state(self):
        ledger = SpanLedger()
        ledger.mark(2, True)  # cycles 0-1 idle, work arrives at 2
        ledger.act(4, True)  # 2-3 stalled, 4 busy
        ledger.act(5, False)  # 5 busy
        ledger.mark(5, True)  # later in cycle 5: work again
        ledger.mark(8, False)  # 6-7 stalled
        assert ledger.close(10) == ComponentCycles(busy=2, stalled=4, idle=4)


class TestTracerContract:
    """What perfbench's per-layer tracer (``perfbench/trace.py``) relies
    on: it wraps ``SimKernel.run`` on the class, swaps the instance's
    ``_components`` for stand-ins that wrap each component's ``tick``,
    ``next_event_cycle`` and ``account`` between construction and the
    loop, and maps its layers by the components' names."""

    @pytest.mark.parametrize("sim_mode", ["reference", "fast"])
    @pytest.mark.parametrize("system", ["pva-sdram", "pva-sram"])
    def test_swapped_components_are_ticked(
        self, monkeypatch, system, sim_mode
    ):
        params = SystemParams(sim_mode=sim_mode)
        trace = build_trace(
            kernel_by_name("saxpy"), stride=19, params=params, elements=256
        )
        untraced = build_system(system, params).run(trace)
        names = []
        calls = Counter()
        run = SimKernel.run

        def spy(component):
            def wrap(role):
                method = getattr(component, role)

                def call(*args):
                    calls[component.name, role] += 1
                    return method(*args)

                return call

            names.append(component.name)
            return SimpleNamespace(
                name=component.name,
                tick=wrap("tick"),
                next_event_cycle=wrap("next_event_cycle"),
                account=wrap("account"),
            )

        def traced_run(kernel, done):
            components = kernel._components
            kernel._components = [spy(c) for c in components]
            try:
                return run(kernel, done)
            finally:
                kernel._components = components

        monkeypatch.setattr(SimKernel, "run", traced_run)
        assert build_system(system, params).run(trace) == untraced
        assert names == ["front-end", "banks", "completion"]
        for name in names:
            assert calls[name, "tick"] > 0
            assert calls[name, "next_event_cycle"] > 0
