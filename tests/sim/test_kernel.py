"""Unit tests for the shared clocked-component simulation kernel.

Tests parametrized over ``metronome`` run each case twice: with the
kernel free to jump idle cycles, and with a
:class:`~tests.sim.differential.Metronome` registered, which makes it
visit every cycle.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationTimeout
from repro.sim.events import HORIZON
from repro.sim.kernel import SimKernel
from repro.sim.runner import SimulationLimits, Watchdog
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
    return Watchdog(
        1,
        system="test",
        limits=SimulationLimits(max_cycles_per_command=budget),
    )


def _kernel(metronome, budget=4096, watchdog=None):
    kernel = SimKernel(watchdog=watchdog or _watchdog(budget))
    if metronome:
        kernel.register(Metronome())
    return kernel


def _run(schedules, metronome):
    kernel = _kernel(metronome)
    pulses = [
        kernel.register(Pulse(f"pulse-{i}", schedule))
        for i, schedule in enumerate(schedules)
    ]
    exit_cycle = kernel.run(lambda: all(p.done() for p in pulses))
    return kernel, pulses, exit_cycle


class TestRegistry:
    def test_nameless_component_rejected(self):
        kernel = SimKernel(watchdog=_watchdog())

        class Nameless:
            name = ""

        with pytest.raises(ConfigurationError):
            kernel.register(Nameless())

    def test_duplicate_name_rejected(self):
        kernel = SimKernel(watchdog=_watchdog())
        kernel.register(Pulse("dup", [1]))
        with pytest.raises(ConfigurationError):
            kernel.register(Pulse("dup", [2]))

    def test_run_without_components_rejected(self):
        with pytest.raises(ConfigurationError):
            SimKernel(watchdog=_watchdog()).run(lambda: True)


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
        assert skip_kernel.finalize(skip_exit) == tick_kernel.finalize(
            tick_exit
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
            for entry in kernel.finalize(exit_cycle).values():
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

        kernel = SimKernel(watchdog=_watchdog())
        pulse = kernel.register(Pulse("pulse", [9]))
        kernel.register(Passive())
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
        kernel = _kernel(metronome, budget=64)
        kernel.register(Pulse("stuck", []))
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

        dog = Recording(
            1,
            system="test",
            limits=SimulationLimits(max_cycles_per_command=64),
        )
        kernel = _kernel(metronome, watchdog=dog)
        kernel.register(Pulse("stuck", []))
        with pytest.raises(SimulationTimeout):
            kernel.run(lambda: False)
        assert dog.last_checked == dog.cycle_limit + 1


class TestFinalize:
    def test_tail_padding_completes_the_ledger(self):
        """Each component closes its own ledger at the run's total,
        which may lie past the loop's exit."""
        kernel, _, exit_cycle = _run([[3]], False)
        ledger = kernel.finalize(exit_cycle + 10)
        entry = ledger["pulse-0"]
        assert entry.total == exit_cycle + 10
        assert entry.idle >= 10  # the padded tail is post-work idle

    def test_idempotent_for_fixed_total(self):
        kernel, _, exit_cycle = _run([[3]], False)
        first = kernel.finalize(exit_cycle + 5)
        second = kernel.finalize(exit_cycle + 5)
        assert first == second

    def test_conflicting_totals_rejected(self):
        kernel, _, exit_cycle = _run([[3]], False)
        kernel.finalize(exit_cycle + 5)
        with pytest.raises(ConfigurationError):
            kernel.finalize(exit_cycle + 6)

    def test_total_below_exit_cycle_rejected(self):
        kernel, _, exit_cycle = _run([[3]], False)
        with pytest.raises(ConfigurationError):
            kernel.finalize(exit_cycle - 1)

    def test_ledger_values_are_component_cycles(self):
        kernel, _, exit_cycle = _run([[3]], True)
        ledger = kernel.finalize(exit_cycle)
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
        """Entries merge in registration order, each as its component
        reported it; a component's own name need not be an entry."""
        for metronome in (False, True):
            kernel = _kernel(metronome)
            first = kernel.register(Pulse("first", [2]))
            duo = kernel.register(Duo([1, 5]))
            kernel.register(Pulse("last", [3]))
            exit_cycle = kernel.run(duo.done)
            ledger = kernel.finalize(exit_cycle + 3)
            assert list(ledger) == ["first", "part-a", "part-b", "last"]
            assert ledger["first"] == first.ledger.close(exit_cycle + 3)
            assert ledger["part-a"] == ComponentCycles(busy=exit_cycle + 3)
            assert ledger["part-b"] == ComponentCycles(idle=exit_cycle + 3)

    def test_duplicate_entry_rejected_at_finalize(self):
        kernel = SimKernel(watchdog=_watchdog())
        duo = kernel.register(Duo([1]))
        kernel.register(Pulse("part-a", [2]))
        exit_cycle = kernel.run(duo.done)
        with pytest.raises(ConfigurationError):
            kernel.finalize(exit_cycle)


class TestSpanLedger:
    def test_spans_keep_the_last_state(self):
        ledger = SpanLedger()
        ledger.mark(2, True)  # cycles 0-1 idle, work arrives at 2
        ledger.act(4, True)  # 2-3 stalled, 4 busy
        ledger.act(5, False)  # 5 busy
        ledger.mark(5, True)  # later in cycle 5: work again
        ledger.mark(8, False)  # 6-7 stalled
        assert ledger.close(10) == ComponentCycles(busy=2, stalled=4, idle=4)
