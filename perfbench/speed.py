"""Host-speed sampling, so host times can be normalised to one speed.

The benchmark's host is a guest of a shared machine.  Its CPU speed
moves by up to 2x over seconds and minutes as neighbours come and go,
and a whole 15-second repeat can sit in a slow period, so raw wall
times of the same code spread far beyond any useful regression bound.
The guest sees no steal time for this and has no hardware counters:
process CPU time slows down exactly as wall time does.

So every process that does measured work also times a fixed pure-Python
reference loop, :func:`reference_loop`, every :data:`INTERVAL_S` of its
own CPU time (``SIGPROF`` from ``ITIMER_PROF``).  The loop's duration
``d`` gives the host's momentary speed ``REFERENCE_S / d``.  A
*normalised* time is a measured interval, less the reference loops that
ran inside it, times the mean speed sampled over it: the time the work
would take on a host where the loop takes :data:`REFERENCE_S`.  The
loop's samples are written to one file per process, so forked pool
workers report theirs too.

:data:`REFERENCE_S` only sets the scale.  Changing it, the loop, or the
interval makes results incomparable with earlier ones.
"""

from __future__ import annotations

import bisect
import glob
import os
import signal
import struct
import time
from array import array
from typing import List, Optional, Tuple

__all__ = [
    "REFERENCE_S",
    "INTERVAL_S",
    "reference_loop",
    "Sampler",
    "sample_forked_children",
    "SpeedTrace",
]

#: Duration of :func:`reference_loop` at the reference speed (a quiet
#: period of the 2-vCPU Xeon KVM guest the baselines ran on, CPython 3.11).
REFERENCE_S = 6.0e-4
#: CPU seconds of the sampled process between two samples.
INTERVAL_S = 0.02

_RECORD = struct.Struct("<dd")  # (start, duration) on the monotonic clock
_PATTERN = "speed-*.bin"

_clock = time.monotonic


class _Bank:
    """A toy row-buffer bank: the object-and-method half of the loop."""

    __slots__ = ("row", "busy_until", "hits")

    def access(self, now: int, row: int) -> int:
        if self.busy_until > now:
            return self.busy_until
        if self.row == row:
            self.hits += 1
            self.busy_until = now + 2
        else:
            self.row = row
            self.busy_until = now + 7
        return self.busy_until


#: Preallocated, so the loop creates no object the garbage collector
#: tracks and can never set off a collection of the program's heap.
_TABLE: dict = {}
_BANKS = [_Bank() for _ in range(16)]
_ROWS = array("q", [0] * 16)
_BUSY = array("q", [0] * 16)


def reference_loop() -> int:
    """The fixed unit of work whose duration measures host speed.

    Three thirds of about equal time: arithmetic on a small dict; a toy
    bank model stepped through method calls and attribute access (the
    object backends' style); and the same model on flat integer arrays
    (the array backends' style).  Slow periods slow these kinds of code
    by different amounts, and each workload mixes them differently; on
    this benchmark's workloads the mix tracks the slow-down better than
    any one kind alone.
    """
    total = 0
    table = _TABLE
    for i in range(2000):
        total += i * 7 % 13
        table[i & 255] = total

    banks = _BANKS
    for bank in banks:
        bank.row = -1
        bank.busy_until = bank.hits = 0
    now = 0
    for i in range(800):
        done = banks[i & 15].access(now, (i * 40503 >> 5) & 63)
        now = min(done, now + 3) if done > now else now + 1

    rows, busy = _ROWS, _BUSY
    for b in range(16):
        rows[b] = -1
        busy[b] = 0
    cycle = 0
    for i in range(600):
        b = i & 15
        row = (i * 40503 >> 5) & 63
        if busy[b] <= cycle:
            if rows[b] == row:
                busy[b] = cycle + 2
            else:
                rows[b] = row
                busy[b] = cycle + 7
        cycle += 1
    return total + now + cycle


class Sampler:
    """Times :func:`reference_loop` every :data:`INTERVAL_S` CPU seconds
    of this process and appends each sample to a file in ``directory``."""

    def __init__(self, directory: str):
        self.directory = directory
        self._fd: Optional[int] = None

    def start(self) -> "Sampler":
        path = os.path.join(self.directory, f"speed-{os.getpid()}.bin")
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def _sample(self, _signum, _frame) -> None:
        start = _clock()
        reference_loop()
        duration = _clock() - start
        if self._fd is not None:
            os.write(self._fd, _RECORD.pack(start, duration))


#: Directory the children forked while sampling is enabled write to.
_fork_directory: Optional[str] = None
_fork_hook_registered = False


def _start_in_child() -> None:
    if _fork_directory is not None:
        Sampler(_fork_directory).start()


def sample_forked_children(directory: Optional[str]) -> None:
    """Start a :class:`Sampler` in every process forked from now on (a
    pool worker), writing to ``directory``; ``None`` stops that.  Timers
    are not inherited across ``fork``, so each child starts its own."""
    global _fork_directory, _fork_hook_registered
    _fork_directory = directory
    if not _fork_hook_registered:
        os.register_at_fork(after_in_child=_start_in_child)
        _fork_hook_registered = True


class SpeedTrace:
    """The samples of one run, from every process that took them."""

    def __init__(self, samples: List[Tuple[float, float]]):
        samples = sorted(samples)
        self.starts = [start for start, _ in samples]
        self.durations = [duration for _, duration in samples]

    @classmethod
    def load(cls, directory: str) -> "SpeedTrace":
        samples = []
        for path in glob.glob(os.path.join(directory, _PATTERN)):
            with open(path, "rb") as handle:
                blob = handle.read()
            usable = len(blob) - len(blob) % _RECORD.size
            samples.extend(_RECORD.iter_unpack(blob[:usable]))
        return cls(samples)

    def __len__(self) -> int:
        return len(self.starts)

    def _window(self, t0: float, t1: float) -> range:
        return range(
            bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)
        )

    def overhead(self, t0: float, t1: float) -> float:
        """Seconds of reference loops started within ``[t0, t1]``."""
        return sum(self.durations[i] for i in self._window(t0, t1))

    def speed(self, t0: float, t1: float) -> float:
        """Mean sampled speed over ``[t0, t1]``; over the whole trace if
        no sample falls inside, and 1 if there are no samples at all."""
        window = self._window(t0, t1) or range(len(self))
        if not window:
            return 1.0
        return sum(REFERENCE_S / self.durations[i] for i in window) / len(window)

    def normalise(
        self,
        t0: float,
        t1: float,
        seconds: Optional[float] = None,
        lanes: int = 1,
        margin: float = 0.0,
    ) -> float:
        """``seconds`` measured over ``[t0, t1]`` (default: all of it)
        at the reference speed.  ``lanes`` processes sampled in parallel
        share the interval, so 1/``lanes`` of their loops' time is
        removed; ``margin`` widens the speed window on both sides, for
        intervals shorter than a few sampling periods."""
        if seconds is None:
            seconds = t1 - t0
        work = max(0.0, seconds - self.overhead(t0, t1) / lanes)
        return work * self.speed(t0 - margin, t1 + margin)
