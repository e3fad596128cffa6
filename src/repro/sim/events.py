"""Next-event time skipping: the vocabulary of the kernel's jumps.

Cycle-accurate simulation traditionally advances the clock one cycle per
loop iteration, even though a stalled component often knows the exact
cycle at which its state can next change — the vector bus its
busy-until cycle, the front end its next issue slot, the bank automaton
each bank's next candidate cycle (restimer releases, request ready
cycles, refresh deadlines).  The run loop of
:class:`~repro.sim.kernel.SimKernel` exploits that: each component
exposes a ``next_event_cycle(cycle)`` lower bound, the loop takes the
``min()`` over all of them, and when nothing happened this cycle the
clock jumps straight to that bound instead of ticking through the idle
gap.

The contract every bound must honour:

* it is a **lower bound** — the component provably takes no action and
  changes no observable state at any cycle strictly between ``cycle``
  and the returned value, *assuming no other component acts either*
  (the run loop only skips when the whole machine was idle, so any
  cross-component interaction resets the search);
* it may be **conservative** — returning ``cycle`` itself (or any
  earlier-than-necessary cycle) merely degrades the skip to a plain
  tick, never changes simulated behaviour;
* :data:`HORIZON` means "no self-timed event pending": the component
  can only be re-enabled by another component's action.

Bounds come from the PVA front end's issue and completion phases and the
bank automaton of ``sim_mode="fast"`` (:mod:`repro.pva.soa`).  The
bank-controller object graph keeps none: its bank component bounds the
loop at the current cycle, so under ``sim_mode="reference"`` the loop
visits every cycle.  The differential suites
``tests/sim/test_*_equivalence.py`` hold the two modes to byte-identical
:class:`~repro.sim.stats.RunResult`\\ s.
"""

from __future__ import annotations

__all__ = ["HORIZON"]

#: Sentinel "infinitely far" cycle: no self-timed event pending.  An int
#: (not ``float('inf')``) so arithmetic on simulated cycles stays exact.
HORIZON = 1 << 62
