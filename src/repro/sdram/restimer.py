"""Restimers: the small counters that enforce SDRAM timing (section 5.2.5).

"To maintain these timing restrictions we use a set of small counters
called *restimers* each of which enforces one timing parameter by
asserting a 'resource available' line when the corresponding operation may
be performed."

A :class:`Restimer` holds the cycle at which its resource becomes
available; the scheduler's scoreboard checks ``available(cycle)`` before
issuing and calls ``hold_until`` when an operation reserves the resource.
"""

from __future__ import annotations

from repro.errors import TimingViolation

__all__ = ["Restimer"]


class Restimer:
    """One timing parameter's availability counter."""

    __slots__ = ("name", "_ready_at")

    def __init__(self, name: str):
        self.name = name
        self._ready_at = 0

    @property
    def ready_at(self) -> int:
        """First cycle at which the guarded operation may be issued."""
        return self._ready_at

    def available(self, cycle: int) -> bool:
        """Resource-available line: may the operation issue this cycle?"""
        return cycle >= self._ready_at

    def hold_until(self, cycle: int) -> None:
        """Reserve the resource through ``cycle - 1``.

        Holds never shrink: overlapping reservations keep the latest
        release point, matching a counter that reloads only with larger
        values.
        """
        if cycle > self._ready_at:
            self._ready_at = cycle

    def check(self, cycle: int) -> None:
        """Scoreboard assertion: raise if the resource is busy."""
        if not self.available(cycle):
            raise TimingViolation(
                f"restimer {self.name!r} busy until cycle "
                f"{self._ready_at}, operation attempted at {cycle}"
            )

    def reset(self) -> None:
        self._ready_at = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Restimer({self.name!r}, ready_at={self._ready_at})"
