"""The shared clocked-component simulation kernel.

A PVA memory system decomposes itself into :class:`ClockedComponent`\\ s
(the front end, the banks and a completion unit) and hands them to a
:class:`SimKernel`, which owns the one run loop:

1. ``watchdog.check(cycle)`` once per iteration;
2. tick every component in registration order; each returns an *acted*
   flag — did it change observable state this cycle?
3. advance time: one cycle after an acted iteration, otherwise jump to
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

**Cycle attribution.**  Each component settles its own ledger of where
its cycles went — *busy* (it acted), *stalled* (it had pending work but
could not act), *idle* (nothing to do) — at the cycles where that
classification changes (:class:`~repro.sim.stats.SpanLedger`).  No
state changes inside a jumped span, so a ledger is invariant under
jumps.  :meth:`SimKernel.finalize` closes every ledger at the run's
total cycle count, which can lie past the loop's exit when a data
transfer outlives it, and merges them in registration order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, runtime_checkable

from repro.errors import ConfigurationError
from repro.sim.events import HORIZON
from repro.sim.runner import Watchdog
from repro.sim.stats import ComponentCycles

__all__ = ["ClockedComponent", "SimKernel"]


@runtime_checkable
class ClockedComponent(Protocol):
    """One clocked piece of a memory system, driven by the kernel.

    ``name``
        Unique label of the component in the kernel's registry.
    ``tick(cycle)``
        One cycle of work.  Returns True iff the component changed
        observable state — the kernel may only jump ahead after an
        iteration in which every component returned False.
    ``next_event_cycle(cycle)``
        Lower bound on the next cycle at which :meth:`tick` could act,
        under the contract of :mod:`repro.sim.events`.  Return
        :data:`~repro.sim.events.HORIZON` when only another component's
        action can re-enable this one.
    ``account(total_cycles)``
        Close the component's ledger at the run's ``total_cycles`` and
        return its attribution entries (entry name ->
        :class:`~repro.sim.stats.ComponentCycles`, each summing to
        ``total_cycles``) — usually one entry under ``name``, but a
        component may speak for several parts (the bank automaton
        reports all sixteen ``bank-*`` entries) or none.
    """

    name: str

    def tick(self, cycle: int) -> bool:
        ...

    def next_event_cycle(self, cycle: int) -> int:
        ...

    def account(self, total_cycles: int) -> Dict[str, ComponentCycles]:
        ...


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
        self._names: set = set()
        self.cycle = 0
        self._ledger: Optional[Dict[str, ComponentCycles]] = None
        self._finalized_to: Optional[int] = None

    def register(self, component: ClockedComponent) -> ClockedComponent:
        """Add a component; tick order is registration order."""
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
        self._components.append(component)
        return component

    def run(self, done: Callable[[], bool]) -> int:
        """Drive all registered components until ``done()``; return the
        final cycle (the first cycle value at which ``done`` held)."""
        if not self._components:
            raise ConfigurationError(
                "SimKernel.run called with no registered components"
            )
        components = self._components
        watchdog = self.watchdog
        cycle = self.cycle
        # Hot-loop locals: bound methods resolved once, indexed by
        # registration position.
        positions = range(len(components))
        ticks = [component.tick for component in components]
        bounds = [component.next_event_cycle for component in components]
        # Dispatch gating: after a no-act iteration every component's
        # lower bound is cached; on later cycles a component whose cached
        # bound is still ahead is not re-polled at all.  A cached bound
        # is only trusted while *nothing* has acted since it was computed
        # (the events.py contract: "assuming no other component acts") —
        # any action, even by an earlier component in the same cycle,
        # voids the cache, so gated components are exactly those an
        # always-tick loop would have ticked to no effect.  The same
        # cache feeds the jump target.
        cached = [0] * len(components)
        cache_valid = False
        while not done():
            watchdog.check(cycle)
            acted_any = False
            for i in positions:
                if cache_valid and not acted_any and cached[i] > cycle:
                    continue
                if ticks[i](cycle):
                    acted_any = True
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
                if cached[i] < target:
                    target = cached[i]
            cache_valid = True
            target = watchdog.clamp_skip(target)
            cycle = target if target > cycle else cycle + 1
        self.cycle = cycle
        return cycle

    def finalize(self, total_cycles: int) -> Dict[str, ComponentCycles]:
        """Close every component's ledger at ``total_cycles`` and return
        their entries merged in registration order.  Idempotent for a
        fixed ``total_cycles``."""
        if self._finalized_to is None:
            if total_cycles < self.cycle:
                raise ConfigurationError(
                    f"finalize({total_cycles}) below the kernel's final "
                    f"cycle {self.cycle}"
                )
            ledger: Dict[str, ComponentCycles] = {}
            for component in self._components:
                for name, entry in component.account(total_cycles).items():
                    if name in ledger:
                        raise ConfigurationError(
                            f"{component.name}: ledger entry {name!r} "
                            f"reported twice"
                        )
                    ledger[name] = entry
            self._ledger = ledger
            self._finalized_to = total_cycles
        elif total_cycles != self._finalized_to:
            raise ConfigurationError(
                f"kernel already finalized at {self._finalized_to} cycles; "
                f"cannot re-finalize at {total_cycles}"
            )
        return dict(self._ledger)
