"""Exception hierarchy for the PVA reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration mistakes from protocol-level
simulation faults.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "VectorSpecError",
    "AddressError",
    "ProtocolError",
    "SchedulingError",
    "TimingViolation",
    "TLBMissError",
    "CapacityError",
    "SimulationTimeout",
    "EngineError",
    "PointFailedError",
    "IncompleteBatchError",
    "CacheIntegrityError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A memory-system or experiment configuration is inconsistent.

    Raised eagerly at construction time (e.g. a bank count that is not a
    power of two, or a cache line smaller than one word) so that simulations
    never start from an invalid geometry.
    """


class VectorSpecError(ReproError):
    """A base-stride vector tuple ``<B, S, L>`` is malformed.

    Examples: non-positive length, negative base address, or a stride the
    word-interleaved hardware cannot express.
    """


class AddressError(ReproError):
    """An address fell outside the simulated physical address space."""


class ProtocolError(ReproError):
    """The vector-bus protocol was violated.

    Raised when, for instance, a ``STAGE_READ`` is issued for a transaction
    that is not complete, or a transaction id is reused while outstanding.
    """


class SchedulingError(ReproError):
    """Internal invariant of the access scheduler was broken.

    These indicate bugs in the simulator rather than user error; they should
    never surface during a correctly-configured run.
    """


class TimingViolation(SchedulingError):
    """An SDRAM command was issued while a restimer held the resource busy."""


class TLBMissError(ReproError):
    """A virtual address was not mapped by the memory-controller TLB."""


class CapacityError(ReproError):
    """A fixed-capacity hardware structure (FIFO, register file, staging
    buffer) was pushed beyond its configured size."""


class SimulationTimeout(ReproError):
    """A simulation watchdog tripped: the run exceeded its cycle budget
    or wall-clock deadline.

    Raised by :class:`repro.sim.runner.Watchdog` from inside the run
    loop of every memory system, so an infinite-loop scheduler bug (or a
    deliberately injected cycle burner) becomes a contained, catchable
    error instead of a hang.
    """


class EngineError(ReproError):
    """Base class for failures of the experiment engine itself (as
    opposed to errors raised by the simulated systems it runs)."""


class PointFailedError(EngineError):
    """An experiment point exhausted its retry budget.

    Raised by :meth:`repro.engine.ExperimentEngine.run` in
    ``on_error="raise"`` mode when a point's terminal failure has no
    original exception object to re-raise — a per-point timeout or a
    worker process that died mid-task.
    """


class IncompleteBatchError(EngineError):
    """``ExperimentEngine.run`` finished its stream but one or more
    points have neither a cycle count nor a recorded failure.

    This indicates an engine bug (a dropped task id), never user error;
    it replaces a bare ``assert`` so the check survives ``python -O``.
    """


class CacheIntegrityError(ReproError):
    """A document offered to :meth:`repro.engine.ResultCache.put` is not
    a valid result record (missing or malformed ``cycles``)."""
