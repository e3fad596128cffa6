"""Failure capture, retry policy, and batch results for the engine.

A 240-point figure grid is a long multiprocess batch; before this layer
existed, one raising point aborted the whole run and a hung worker
blocked it forever.  The types here make failure a *value*:

* :class:`RetryPolicy` — how many times to re-attempt a failed point and
  how long to back off between attempts (exponential, deterministic);
* :class:`PointFailure` — the record of one point's terminal failure
  (exception type, message, traceback text, attempt count, kind);
* :class:`BatchResult` — what :meth:`ExperimentEngine.run` returns in
  ``on_error="collect"`` mode: a list-like of per-point cycle counts
  with ``None`` holes where points failed, plus the ordered failure
  records, so grid renderers can mark failed cells and keep going.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.errors import ConfigurationError, PointFailedError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.spec import ExperimentPoint

__all__ = ["RetryPolicy", "PointFailure", "BatchResult"]

#: Failure kinds recorded in :attr:`PointFailure.kind`.  A worker killed
#: mid-task leaves its async result forever unfinished, so lost workers
#: surface as ``timeout`` failures once the per-point deadline expires.
KIND_EXCEPTION = "exception"  #: the point raised inside the simulator
KIND_TIMEOUT = "timeout"  #: the per-point wall-clock deadline expired


@dataclass(frozen=True)
class RetryPolicy:
    """Re-attempt failed points with exponential backoff.

    ``retries`` is the number of *extra* attempts after the first one
    (``retries=0`` disables retrying).  Attempt ``k`` (1-based retry
    count) sleeps ``backoff_seconds * backoff_factor**(k-1)`` first,
    capped at ``max_backoff_seconds``; the default ``backoff_seconds=0``
    retries immediately.  Timeouts are retried like exceptions when
    ``retry_timeouts`` is set.
    """

    retries: int = 0
    backoff_seconds: float = 0.0
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 30.0
    retry_timeouts: bool = True

    def __post_init__(self):
        if self.retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise ConfigurationError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def delay(self, retry_number: int) -> float:
        """Backoff before the ``retry_number``-th retry (1-based)."""
        if self.backoff_seconds == 0:
            return 0.0
        raw = self.backoff_seconds * self.backoff_factor ** (
            retry_number - 1
        )
        return min(raw, self.max_backoff_seconds)

    def should_retry(self, attempts: int, *, timeout: bool = False) -> bool:
        """May a point that has already made ``attempts`` attempts try
        again?"""
        if timeout and not self.retry_timeouts:
            return False
        return attempts <= self.retries


@dataclass(frozen=True)
class PointFailure:
    """The terminal failure of one submitted point.

    One record is emitted per affected batch index — coalesced
    duplicates of a failing point each get their own record, all
    describing the same underlying execution.
    """

    index: int  #: position in the submitted batch
    point: "ExperimentPoint"
    error_type: str  #: exception class name (``"TimeoutError"`` for kind="timeout")
    message: str
    traceback: str  #: formatted traceback text ("" when unavailable)
    attempts: int  #: executions consumed, including retries
    kind: str = KIND_EXCEPTION  #: ``"exception"`` or ``"timeout"``

    def describe(self) -> str:
        return (
            f"{self.point.describe()}: {self.error_type}: {self.message} "
            f"({self.kind}, {self.attempts} attempt"
            f"{'s' if self.attempts != 1 else ''})"
        )


class BatchResult(Sequence):
    """Cycle counts plus failures for one engine batch.

    Sequence access iterates the per-point cycle counts in submission
    order, with ``None`` at failed indices, so healthy callers can treat
    a fully-successful ``BatchResult`` exactly like the ``List[int]``
    the engine returns in ``on_error="raise"`` mode.
    """

    def __init__(
        self,
        cycles: Sequence[Optional[int]],
        failures: Sequence[PointFailure] = (),
    ):
        self.cycles: List[Optional[int]] = list(cycles)
        self.failures: Tuple[PointFailure, ...] = tuple(
            sorted(failures, key=lambda f: f.index)
        )

    @property
    def ok(self) -> bool:
        """True when every point produced a cycle count."""
        return not self.failures

    @property
    def failed_indices(self) -> Tuple[int, ...]:
        return tuple(f.index for f in self.failures)

    def raise_if_failed(self) -> None:
        """Raise :class:`PointFailedError` summarizing any failures."""
        if self.failures:
            lines = ", ".join(f.describe() for f in self.failures[:4])
            more = (
                f" (+{len(self.failures) - 4} more)"
                if len(self.failures) > 4
                else ""
            )
            raise PointFailedError(
                f"{len(self.failures)} of {len(self.cycles)} points "
                f"failed: {lines}{more}"
            )

    def __getitem__(self, index):
        return self.cycles[index]

    def __len__(self) -> int:
        return len(self.cycles)

    def __iter__(self) -> Iterator[Optional[int]]:
        return iter(self.cycles)

    def __eq__(self, other) -> bool:
        if isinstance(other, BatchResult):
            return (
                self.cycles == other.cycles
                and self.failures == other.failures
            )
        if isinstance(other, (list, tuple)):
            return list(self.cycles) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"BatchResult({len(self.cycles)} points, "
            f"{len(self.failures)} failed)"
        )
