"""Unit tests for the next-event time-skip lower bounds.

The fast backend's bounds come from the front end, the completion unit
and the bank automaton; the object graph keeps none, so under the
reference backend the kernel visits every cycle, and the serial
baselines need no bounds at all.  These tests pin the vector bus's
bound: clamped to ``>= cycle`` and equal to the bus's own busy-until
cycle.  :data:`~repro.sim.events.HORIZON` marks states that only
another component's action can unblock.
"""

from __future__ import annotations

from repro.bus.vector_bus import VectorBus
from repro.params import SystemParams
from repro.sim.events import HORIZON


class TestVectorBusBound:
    def test_tracks_busy_until(self):
        bus = VectorBus(SystemParams())
        freed = bus.broadcast_request(10)
        assert bus.next_event_cycle(10) == freed
        assert bus.next_event_cycle(freed + 3) == freed + 3


class TestHorizonSentinel:
    def test_is_a_plain_int(self):
        assert isinstance(HORIZON, int)
        assert HORIZON > 10**15  # far beyond any simulated cycle count
