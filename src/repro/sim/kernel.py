"""The shared clocked-component simulation kernel.

A PVA memory system decomposes itself into :class:`ClockedComponent`\\ s
(the front end, the vector bus, the banks and a completion unit) and
hands them to a :class:`SimKernel`, which owns the one run loop:

1. ``watchdog.check(cycle)`` once per iteration;
2. tick every component in registration order; each returns an *acted*
   flag — did it change observable state this cycle?
3. attribute the cycle to each component's busy/stalled/idle ledger;
4. advance time: one cycle after an acted iteration, otherwise jump to
   the minimum of every component's ``next_event_cycle`` lower bound,
   capped at the watchdog's cycle limit so a deadlocked run still
   raises :class:`~repro.errors.SimulationTimeout`.

The serial baselines need no kernel: each is a closed form over its
commands (:mod:`repro.baselines.serial_core`).

The lower-bound safety argument is therefore stated once, here: the
kernel only jumps after an iteration in which **no** component acted,
and each bound promises its component takes no action strictly before
it (assuming nobody else acts — which the acted-flag aggregation
guarantees).  A bound at or below the current cycle degrades the jump
to a plain tick; the reference backend's bank components always return
the current cycle, so under ``sim_mode="reference"`` the loop visits
every cycle.  An underestimated bound can never change simulated
behaviour.

**Cycle attribution.**  The kernel keeps a per-component ledger of
where cycles went: *busy* (the component acted), *stalled* (it had
pending work but could not act), *idle* (nothing to do).  Visited cycles
are classified directly; jumped spans are classified through each
component's :meth:`ClockedComponent.account` — legal because no state
changes inside a jumped span, so one query describes every cycle in
it.  The classification depends only on component state, never on which
cycles the loop happened to visit, so the ledger is invariant under
jumps and each component's buckets sum to the run's total cycle count
(:meth:`SimKernel.finalize` pads the tail when a data transfer outlives
the loop).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Tuple, runtime_checkable

from repro.errors import ConfigurationError
from repro.sim.events import HORIZON
from repro.sim.runner import Watchdog
from repro.sim.stats import ComponentCycles

__all__ = ["ClockedComponent", "PassiveComponent", "SimKernel"]

#: (busy, stalled, idle) cycle counts for one quiet span.
SpanSplit = Tuple[int, int, int]


@runtime_checkable
class ClockedComponent(Protocol):
    """One clocked piece of a memory system, driven by the kernel.

    ``name``
        Stable label used in the attribution ledger (and therefore in
        :class:`~repro.sim.stats.RunResult`, ``EngineMetrics`` and the
        bench report).
    ``tick(cycle)``
        One cycle of work.  Returns True iff the component changed
        observable state — the kernel may only jump ahead after an
        iteration in which every component returned False.
    ``next_event_cycle(cycle)``
        Lower bound on the next cycle at which :meth:`tick` could act,
        under the contract of :mod:`repro.sim.events`.  Return
        :data:`~repro.sim.events.HORIZON` when only another component's
        action can re-enable this one.
    ``account(start, end)``
        Classify the quiet span ``[start, end)`` — cycles in which this
        component provably did not act — into (busy, stalled, idle)
        counts summing to ``end - start``.  Must depend only on current
        component state so the split is identical whether the loop
        visited those cycles one by one or jumped over them.  (A
        passive component such as the bus may report *busy* here: it
        carries data without taking scheduling actions.)
    """

    name: str

    def tick(self, cycle: int) -> bool:
        ...

    def next_event_cycle(self, cycle: int) -> int:
        ...

    def account(self, start: int, end: int) -> SpanSplit:
        ...


class PassiveComponent:
    """Convenience base for components that never take actions of their
    own (state machines driven entirely by other components, like the
    vector bus).  Subclasses override :meth:`account` to classify their
    quiet cycles; ``tick`` never acts and ``next_event_cycle`` never
    wakes the kernel."""

    name = "passive"

    def tick(self, cycle: int) -> bool:
        return False

    def next_event_cycle(self, cycle: int) -> int:
        return HORIZON

    def account(self, start: int, end: int) -> SpanSplit:
        return (0, 0, end - start)


class SimKernel:
    """The canonical run loop over a registry of clocked components.

    Parameters
    ----------
    watchdog:
        The run's :class:`~repro.sim.runner.Watchdog`; checked once per
        loop iteration, and its cycle limit caps every jump.
    """

    def __init__(self, *, watchdog: Watchdog):
        self.watchdog = watchdog
        self._components: List[ClockedComponent] = []
        self._ledger: Dict[str, ComponentCycles] = {}
        self._names: set = set()
        self._self_accounting: List[ClockedComponent] = []
        self.cycle = 0
        self._finalized_to: Optional[int] = None

    # ------------------------------------------------------------- #
    # Registry
    # ------------------------------------------------------------- #

    def register(self, component: ClockedComponent) -> ClockedComponent:
        """Add a component; tick order is registration order.

        A **self-accounting** component — one that exposes a
        ``ledger_names`` tuple and a ``finalize_ledger(total_cycles)``
        method — keeps its own per-name cycle ledger instead of being
        attributed by the kernel.  It represents several logical
        components stepped as one (the structure-of-arrays bank
        automaton speaks for all sixteen ``bank-*`` entries): the kernel
        reserves its names in ledger order here and takes its buckets
        at :meth:`finalize`; the per-cycle ``account`` splits it returns
        to the run loop are discarded.
        """
        name = getattr(component, "name", None)
        if not name:
            raise ConfigurationError(
                f"component {component!r} has no usable name"
            )
        if name in self._names:
            raise ConfigurationError(
                f"component name {name!r} registered twice"
            )
        self._names.add(name)
        ledger_names = getattr(component, "ledger_names", None)
        if ledger_names is None:
            self._ledger[name] = ComponentCycles()
        else:
            for entry_name in ledger_names:
                if entry_name in self._names:
                    raise ConfigurationError(
                        f"component name {entry_name!r} registered twice"
                    )
                self._names.add(entry_name)
                self._ledger[entry_name] = ComponentCycles()
            self._self_accounting.append(component)
        self._components.append(component)
        return component

    @property
    def components(self) -> Tuple[ClockedComponent, ...]:
        return tuple(self._components)

    # ------------------------------------------------------------- #
    # The loop
    # ------------------------------------------------------------- #

    def run(self, done: Callable[[], bool]) -> int:
        """Drive all registered components until ``done()``; return the
        final cycle (the first cycle value at which ``done`` held)."""
        if not self._components:
            raise ConfigurationError(
                "SimKernel.run called with no registered components"
            )
        components = self._components
        ledger = self._ledger
        watchdog = self.watchdog
        cycle = self.cycle
        # Hot-loop locals: bound methods and ledger entries resolved once,
        # indexed by registration position.
        n = len(components)
        positions = range(n)
        ticks = [component.tick for component in components]
        bounds = [component.next_event_cycle for component in components]
        accounts = [component.account for component in components]
        # Self-accounting components write their own ledgers; the run
        # loop's per-cycle attribution for them lands in a throwaway
        # entry (their account() is a constant-cost placeholder).
        entries = [
            ledger[component.name]
            if component.name in ledger
            else ComponentCycles()
            for component in components
        ]
        acted_flags = [False] * n
        # Dispatch gating: after a no-act iteration every component's
        # lower bound is cached; on later cycles a component whose cached
        # bound is still ahead is not re-polled at all.  A cached bound
        # is only trusted while *nothing* has acted since it was computed
        # (the events.py contract: "assuming no other component acts") —
        # any action, even by an earlier component in the same cycle,
        # voids the cache, so gated components are exactly those an
        # always-tick loop would have ticked to no effect.  The same
        # cache feeds the jump target.
        cached = [0] * n
        cache_valid = False
        while not done():
            watchdog.check(cycle)
            acted_any = False
            for i in positions:
                if cache_valid and not acted_any and cached[i] > cycle:
                    acted_flags[i] = False
                    continue
                acted = ticks[i](cycle)
                acted_flags[i] = acted
                if acted:
                    acted_any = True
            # -- attribute this (visited) cycle ----------------------
            # Skipped-dispatch components take the non-acted branch: the
            # account() split is what an always-tick loop would record
            # for them, so the ledger is invariant under gating.
            for i in positions:
                if acted_flags[i]:
                    entries[i].busy += 1
                else:
                    busy, stalled, idle = accounts[i](cycle, cycle + 1)
                    entry = entries[i]
                    entry.busy += busy
                    entry.stalled += stalled
                    entry.idle += idle
            # -- advance time ----------------------------------------
            # After an acted iteration, one cycle.  Otherwise jump to
            # the earliest cycle at which anything *could* happen — the
            # min over every component's lower bound, clamped to the
            # watchdog's deadline so a deadlocked run still times out.
            # A bound at or below the current cycle (the reference
            # backend's banks) degrades to a plain tick.
            if acted_any:
                cache_valid = False
                cycle += 1
                continue
            target = HORIZON
            for i in positions:
                if not cache_valid or cached[i] <= cycle:
                    cached[i] = bounds[i](cycle)
                bound = cached[i]
                if bound < target:
                    target = bound
            cache_valid = True
            target = watchdog.clamp_skip(target)
            if target > cycle + 1:
                for i in positions:
                    busy, stalled, idle = accounts[i](cycle + 1, target)
                    entry = entries[i]
                    entry.busy += busy
                    entry.stalled += stalled
                    entry.idle += idle
                cycle = target
                continue
            cycle += 1
        self.cycle = cycle
        return cycle

    # ------------------------------------------------------------- #
    # Attribution ledger
    # ------------------------------------------------------------- #

    def finalize(self, total_cycles: int) -> Dict[str, ComponentCycles]:
        """Close the ledger at ``total_cycles`` and return it.

        The loop exits as soon as the last transaction is accounted for,
        which can be *before* its final data transfer leaves the bus; the
        tail span ``[exit_cycle, total_cycles)`` is attributed here so
        every component's buckets sum to the run's reported cycle count.
        Idempotent for a fixed ``total_cycles``.
        """
        if self._finalized_to is None:
            if total_cycles < self.cycle:
                raise ConfigurationError(
                    f"finalize({total_cycles}) below the kernel's final "
                    f"cycle {self.cycle}"
                )
            if total_cycles > self.cycle:
                for component in self._components:
                    if component.name not in self._ledger:
                        continue  # self-accounting: closes its own tail
                    busy, stalled, idle = component.account(
                        self.cycle, total_cycles
                    )
                    entry = self._ledger[component.name]
                    entry.busy += busy
                    entry.stalled += stalled
                    entry.idle += idle
            for component in self._self_accounting:
                buckets = component.finalize_ledger(total_cycles)
                for entry_name in component.ledger_names:
                    if entry_name not in buckets:
                        raise ConfigurationError(
                            f"{component.name}: finalize_ledger returned "
                            f"no entry for {entry_name!r}"
                        )
                    self._ledger[entry_name] = buckets[entry_name]
            self._finalized_to = total_cycles
        elif total_cycles != self._finalized_to:
            raise ConfigurationError(
                f"kernel already finalized at {self._finalized_to} cycles; "
                f"cannot re-finalize at {total_cycles}"
            )
        return dict(self._ledger)

    @property
    def ledger(self) -> Dict[str, ComponentCycles]:
        """Live view of the attribution ledger (component name ->
        :class:`~repro.sim.stats.ComponentCycles`)."""
        return dict(self._ledger)
