"""The PVA run loop over clocked components.

A PVA memory system hands a :class:`SimKernel` its three phases as
:class:`ClockedComponent`\\ s — the front end's issue, the bank side and
the front end's completion — and the kernel runs the one loop:

1. ``watchdog.check(cycle)`` once per iteration;
2. tick every component in list order; each returns an *acted* flag —
   did it change observable state this cycle?
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
jumps.  The kernel keeps no ledger: after the loop the system closes
each component's at the run's total cycle count (which can lie past the
loop's exit when a data transfer outlives it) with ``account`` and
merges the entries in component order.

:meth:`SimKernel.run` reads :attr:`SimKernel._components` when it is
called, so a tracer may swap the list for stand-ins between
construction and the run (perfbench's per-layer tracer does).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Protocol, runtime_checkable

from repro.sim.events import HORIZON
from repro.sim.runner import Watchdog
from repro.sim.stats import ComponentCycles

__all__ = ["ClockedComponent", "SimKernel"]


@runtime_checkable
class ClockedComponent(Protocol):
    """One clocked piece of a memory system, driven by the kernel.

    ``name``
        Label of the component (a tracer maps its layers by it).
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
    """The run loop over a fixed list of clocked components.

    Parameters
    ----------
    components:
        The components, in tick order.
    watchdog:
        The run's :class:`~repro.sim.runner.Watchdog`; checked once per
        loop iteration, and its cycle limit caps every jump.
    """

    def __init__(
        self, components: Iterable[ClockedComponent], *, watchdog: Watchdog
    ):
        self.watchdog = watchdog
        self._components = list(components)

    def run(self, done: Callable[[], bool]) -> int:
        """Drive the components from cycle 0 until ``done()``; return the
        final cycle (the first cycle value at which ``done`` held)."""
        components = self._components
        watchdog = self.watchdog
        cycle = 0
        # Hot-loop locals: bound methods resolved once, indexed by
        # list position.
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
        return cycle
