"""The parallel experiment engine (worker pool + result cache + metrics).

The evaluation is a grid of independent, deterministic points — four
memory systems x eight kernels x six strides x five alignments (section
6.2).  This package executes any such batch through one engine:

* :class:`~repro.engine.engine.ExperimentEngine` — cache lookup, then
  in-batch coalescing, then inline execution (``jobs=1``) or a worker
  pool fed in submission order (``jobs=N``), with identical results at
  any job count;
* :class:`~repro.engine.cache.ResultCache` — a content-addressed on-disk
  cache keyed by a stable hash of the point spec, its
  :class:`~repro.params.SystemParams` and a code-version salt, so
  repeated figure/ablation runs replay from disk; corrupt entries are
  quarantined and recomputed;
* :class:`~repro.engine.metrics.EngineHooks` — progress callbacks
  carrying per-point cycle counts and running points/sec + cache
  hit-rate metrics.

Failures are loud: the first failing point raises its own exception, a
dead worker raises :class:`~repro.errors.PointFailedError`, and the
simulation watchdog stops a runaway run with
:class:`~repro.errors.SimulationTimeout`.

Quick start::

    from repro.engine import ExperimentEngine, ExperimentPoint, KernelTraceSpec

    engine = ExperimentEngine(jobs=4, cache_dir=".engine-cache")
    points = [
        ExperimentPoint(
            system="pva-sdram",
            trace=KernelTraceSpec("copy", stride=s, alignment="aligned"),
        )
        for s in (1, 2, 4, 8, 16, 19)
    ]
    cycles = engine.run(points)          # submission order, cached + parallel
    print(engine.metrics.summary())
"""

from repro.engine.cache import ResultCache
from repro.engine.engine import (
    ExperimentEngine,
    execute_point,
    execute_point_timed,
)
from repro.engine.metrics import EngineHooks, EngineMetrics, PointOutcome
from repro.engine.spec import (
    CACHE_SCHEMA_VERSION,
    CommandTraceSpec,
    ExperimentPoint,
    KernelTraceSpec,
    TraceSpec,
    build_point_trace,
    canonical,
    default_salt,
    point_key,
)

__all__ = [
    "ExperimentEngine",
    "ResultCache",
    "EngineHooks",
    "EngineMetrics",
    "PointOutcome",
    "ExperimentPoint",
    "KernelTraceSpec",
    "CommandTraceSpec",
    "TraceSpec",
    "CACHE_SCHEMA_VERSION",
    "canonical",
    "default_salt",
    "point_key",
    "build_point_trace",
    "execute_point",
    "execute_point_timed",
]
