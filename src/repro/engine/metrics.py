"""Progress and throughput accounting for the experiment engine.

The engine surfaces its state through a callback interface: pass an
:class:`EngineHooks` subclass (or any object with the same methods) and
it receives one :class:`PointOutcome` per requested point — carrying the
per-point cycle count and whether it came from the cache — plus the
running :class:`EngineMetrics` snapshot (points/sec, cache hit rate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.resilience import PointFailure
    from repro.engine.spec import ExperimentPoint

__all__ = ["PointOutcome", "EngineMetrics", "EngineHooks", "PrintProgress"]


@dataclass(frozen=True)
class PointOutcome:
    """The result of one requested point."""

    index: int  #: position in the submitted batch
    point: "ExperimentPoint"
    cycles: int
    cached: bool  #: served from the on-disk cache
    coalesced: bool = False  #: shared another identical point's execution
    #: Host wall-clock seconds the executing worker spent simulating this
    #: point (shared by coalesced twins; stored value for cache hits;
    #: None for entries written before the field existed).
    sim_seconds: Optional[float] = None
    #: Per-component cycle attribution of the run (component name ->
    #: {"busy", "stalled", "idle"}), as recorded by the simulation
    #: kernel; None for cache entries written before the field existed.
    attribution: Optional[Dict[str, Dict[str, int]]] = None


@dataclass
class EngineMetrics:
    """Running totals across every batch an engine instance has run."""

    points_total: int = 0
    points_done: int = 0
    cache_hits: int = 0
    simulated: int = 0  #: unique simulations actually executed
    coalesced: int = 0  #: points served by an identical in-batch point
    elapsed_seconds: float = 0.0
    jobs: int = 1
    failures: int = 0  #: points that terminally failed (collect mode)
    retries: int = 0  #: re-attempts consumed by the retry policy
    timeouts: int = 0  #: per-point deadline expiries (incl. retried ones)
    degraded: int = 0  #: points run inline after the pool was abandoned
    simulated_cycles: int = 0  #: simulated cycles across unique executions
    sim_seconds: float = 0.0  #: worker wall clock across unique executions
    cache_quarantined: int = 0  #: corrupt cache entries moved aside
    #: Aggregated per-component cycle attribution across unique
    #: executions (component name -> busy/stalled/idle cycle totals).
    component_cycles: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def record_attribution(
        self, attribution: Optional[Dict[str, Dict[str, int]]]
    ) -> None:
        """Fold one execution's attribution ledger into the totals."""
        if not attribution:
            return
        for name, buckets in attribution.items():
            entry = self.component_cycles.setdefault(
                name, {"busy": 0, "stalled": 0, "idle": 0}
            )
            for bucket in ("busy", "stalled", "idle"):
                entry[bucket] += int(buckets.get(bucket, 0))

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of completed points served from the on-disk cache."""
        if self.points_done == 0:
            return 0.0
        return self.cache_hits / self.points_done

    @property
    def points_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.points_done / self.elapsed_seconds

    @property
    def sim_cycles_per_second(self) -> float:
        """Simulated-cycles-per-host-second throughput over the unique
        executions (cache hits and coalesced twins cost no sim time, so
        they are excluded from both numerator and denominator)."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.simulated_cycles / self.sim_seconds

    def summary(self) -> dict:
        return {
            "points": self.points_done,
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "cache_hit_rate": round(self.cache_hit_rate, 3),
            "points_per_second": round(self.points_per_second, 1),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "jobs": self.jobs,
            "failures": self.failures,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "degraded": self.degraded,
            "simulated_cycles": self.simulated_cycles,
            "sim_seconds": round(self.sim_seconds, 3),
            "sim_cycles_per_second": round(self.sim_cycles_per_second, 1),
            "cache_quarantined": self.cache_quarantined,
            "component_cycles": {
                name: dict(buckets)
                for name, buckets in sorted(self.component_cycles.items())
            },
        }


class EngineHooks:
    """Callback interface; the default implementation is a no-op.

    Subclass and override what you need — both methods receive the live
    :class:`EngineMetrics`, so a hook can render progress bars, log
    throughput, or assert invariants mid-run.
    """

    def point_done(
        self, outcome: PointOutcome, metrics: EngineMetrics
    ) -> None:
        """Called once per requested point, as its result lands."""

    def point_failed(
        self, failure: "PointFailure", metrics: EngineMetrics
    ) -> None:
        """Called once per point whose execution terminally failed
        (``on_error="collect"`` mode only — in ``"raise"`` mode the
        first failure propagates as an exception instead)."""

    def batch_complete(self, metrics: EngineMetrics) -> None:
        """Called after every :meth:`ExperimentEngine.run` batch."""


class PrintProgress(EngineHooks):
    """A minimal progress hook: one line per batch (and optionally per
    point) through a ``print``-like callable."""

    def __init__(self, emit=print, per_point: bool = False):
        self.emit = emit
        self.per_point = per_point

    def point_done(self, outcome, metrics):
        if self.per_point:
            source = "cache" if outcome.cached else "sim"
            self.emit(
                f"[engine] {outcome.point.describe()}: "
                f"{outcome.cycles} cycles ({source})"
            )

    def point_failed(self, failure, metrics):
        self.emit(f"[engine] FAILED {failure.describe()}")

    def batch_complete(self, metrics):
        failed = (
            f", {metrics.failures} failed" if metrics.failures else ""
        )
        self.emit(
            f"[engine] {metrics.points_done}/{metrics.points_total} points, "
            f"{metrics.simulated} simulated, "
            f"cache hit rate {metrics.cache_hit_rate:.0%}, "
            f"{metrics.points_per_second:.1f} points/s "
            f"({metrics.jobs} job{'s' if metrics.jobs != 1 else ''})"
            f"{failed}"
        )
