"""The parallel experiment engine.

``ExperimentEngine.run`` takes a batch of :class:`ExperimentPoint` specs
and returns their cycle counts **in submission order**, regardless of
how many worker processes execute them, so ``jobs=1`` and ``jobs=N``
produce identical output.  A batch takes four steps:

1. **Result cache** — with a ``cache_dir``, each point's content address
   (:func:`repro.engine.spec.point_key`) is looked up first; warm runs of
   a figure or ablation replay from disk instead of re-simulating.
   Corrupt entries are quarantined and recomputed
   (:class:`~repro.engine.cache.ResultCache`).
2. **Coalescing** — identical points inside one batch (the grid runner
   submits alignment-free baselines once per alignment) share a single
   execution.
3. **Merging by trace class** — each remaining point's trace is built,
   keyed by its system's ``class_key``
   (:meth:`repro.pva.system.PVAMemorySystem.class_key`: traces that
   differ only in which rows they use share a key) and dropped.  Points
   whose system, params and key agree form one class; a point whose
   system keys no traces is a class of its own, under its point key.
   The engine remembers each class's result for its lifetime, so only
   the first point of a class never seen before is simulated; every
   other member takes that result (``merged``) and still gets its own
   cache entry.
4. **Execution** — the representatives run inline (``jobs=1``) or on a
   ``concurrent.futures.ProcessPoolExecutor`` fed as one chunked ``map``
   in submission order.  Workers rebuild trace and system from the
   spec, so no simulator state crosses the process boundary; the fork
   start method is preferred (cheap, inherits ``sys.path``) with spawn
   as the portable fallback.

Failures are loud.  The first failing point in submission order raises
its original exception at any job count.  A worker that dies (killed or
crashed) raises :class:`~repro.errors.PointFailedError` at once, chained
from the pool's ``BrokenProcessPool``.  A runaway simulation is stopped
inside its worker by the simulation watchdog
(:class:`repro.sim.runner.Watchdog`), which raises
:class:`~repro.errors.SimulationTimeout`.  On every exit from a pool
batch, ``KeyboardInterrupt`` included, the engine terminates its workers
before the exception propagates, and every result already delivered is
in the cache.

Progress and throughput are surfaced through the
:class:`~repro.engine.metrics.EngineHooks` callback interface.
"""

from __future__ import annotations

import signal
import time
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.api import build_system
from repro.engine.cache import ResultCache
from repro.engine.metrics import EngineHooks, EngineMetrics, PointOutcome
from repro.engine.spec import (
    ExperimentPoint,
    build_point_trace,
    default_salt,
    point_key,
)
from repro.errors import (
    ConfigurationError,
    IncompleteBatchError,
    PointFailedError,
    ReproError,
)

__all__ = ["ExperimentEngine", "execute_point", "execute_point_timed"]

#: Chunks per worker in a pool batch.  Workers take chunks in submission
#: order as they free up, so a batch ends at most about one chunk (1/32
#: of a worker's share) after an even split.  Grid points differ in cost
#: by kernel, and a few large chunks leave one worker idle at the tail.
_CHUNKS_PER_WORKER = 32


def execute_point(point: ExperimentPoint) -> int:
    """Simulate one point and return its cycle count.

    Module-level so it pickles by reference into pool workers; also the
    single-process execution path, keeping both modes byte-identical.
    """
    return execute_point_timed(point)[0]


def execute_point_timed(
    point: ExperimentPoint,
) -> Tuple[int, float, Optional[Dict[str, Dict[str, int]]]]:
    """Simulate one point; return ``(cycles, host_seconds, attribution)``.

    The wall clock covers trace construction plus the simulation proper —
    what a worker actually spends on the point — so the engine can report
    simulated-cycles-per-second throughput.  ``attribution`` is the
    kernel's per-component busy/stalled/idle ledger as plain dicts
    (JSON- and pickle-safe), or None for a system that predates it."""
    started = time.perf_counter()
    trace = build_point_trace(point)
    system = build_system(point.system, point.params)
    result = system.run(trace)
    return (
        result.cycles,
        time.perf_counter() - started,
        result.attribution_summary(),
    )


def _pool_context():
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _init_worker():
    """Pool workers ignore SIGINT: the parent owns interrupt handling
    (terminate + clean re-raise), so ^C prints one traceback instead of
    one per worker.

    SIGTERM is reset to the default disposition: a forked worker
    inherits any handler the parent installed, and a worker that
    shrugs off SIGTERM survives the engine's terminate and deadlocks
    the pool's shutdown (the parent joins a worker that never exits)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


#: One executed point: its cache key and spec, then the executing
#: worker's ``(cycles, sim_seconds, attribution)``.
_Outcome = Tuple[
    str,
    ExperimentPoint,
    int,
    float,
    Optional[Dict[str, Dict[str, int]]],
]


class ExperimentEngine:
    """Executes experiment-point batches with caching and a worker pool.

    Parameters
    ----------
    jobs:
        Worker processes; 1 (the default) runs inline in this process.
    cache_dir:
        Directory for the content-addressed result cache; None disables
        caching.
    hooks:
        An :class:`EngineHooks` implementation receiving per-point
        outcomes and batch summaries.

    Cache keys are salted with :func:`~repro.engine.spec.default_salt`
    (the library version plus the engine schema version), so upgrading
    either invalidates stale entries.

    Each instance remembers the result of every class it simulated
    (see the module docstring), so a later batch on the same engine
    re-simulates none of them; a fresh engine starts empty.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache_dir=None,
        hooks: Optional[EngineHooks] = None,
    ):
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.hooks = hooks if hooks is not None else EngineHooks()
        self.salt = default_salt()
        self.metrics = EngineMetrics(jobs=self.jobs)
        #: Trace class (:meth:`_trace_class`) -> its representative's
        #: ``(cycles, attribution)``, for the engine's lifetime.
        self._classes: Dict[
            Hashable, Tuple[int, Optional[Dict[str, Dict[str, int]]]]
        ] = {}

    # ------------------------------------------------------------- #
    # Execution
    # ------------------------------------------------------------- #

    def run(self, points: Sequence[ExperimentPoint]) -> List[int]:
        """Execute a batch; return cycle counts in submission order.

        The first failing point in submission order raises its original
        exception; a dead pool worker raises
        :class:`~repro.errors.PointFailedError`.
        """
        points = list(points)
        metrics = self.metrics
        metrics.points_total += len(points)
        started = time.perf_counter()

        results: List[Optional[int]] = [None] * len(points)
        keys = [point_key(point, self.salt) for point in points]

        # Cache lookups + in-batch coalescing, in submission order.
        #: key -> indices awaiting that key's execution
        waiting: Dict[str, List[int]] = {}
        pending: List[Tuple[str, ExperimentPoint]] = []
        for index, (key, point) in enumerate(zip(keys, points)):
            if key in waiting:
                waiting[key].append(index)
                metrics.coalesced += 1
                continue
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                cycles = int(cached["cycles"])
                results[index] = cycles
                metrics.cache_hits += 1
                metrics.points_done += 1
                stored_seconds = cached.get("sim_seconds")
                stored_attribution = cached.get("attribution")
                self.hooks.point_done(
                    PointOutcome(
                        index,
                        point,
                        cycles,
                        cached=True,
                        sim_seconds=stored_seconds
                        if isinstance(stored_seconds, (int, float))
                        else None,
                        attribution=stored_attribution
                        if isinstance(stored_attribution, dict)
                        else None,
                    ),
                    metrics,
                )
                continue
            waiting[key] = [index]
            pending.append((key, point))

        def deliver(key, cycles, seconds, attribution, merged=False):
            """Cache one key's result and hand it to every index waiting
            on it: the first is simulated or merged, the rest are its
            coalesced twins.  A merged key records no seconds."""
            indices = waiting.pop(key)
            if self.cache is not None:
                point = points[indices[0]]
                self.cache.put(
                    key,
                    {
                        "cycles": cycles,
                        "sim_seconds": seconds,
                        "attribution": attribution,
                        "sim_mode": point.params.sim_mode,
                        "config": point.params.to_dict(),
                        "config_key": point.params.config_key(),
                        "point": point.describe(),
                    },
                )
            metrics.merged += merged
            for position, index in enumerate(indices):
                results[index] = cycles
                metrics.points_done += 1
                self.hooks.point_done(
                    PointOutcome(
                        index,
                        points[index],
                        cycles,
                        cached=False,
                        coalesced=position > 0,
                        merged=merged and position == 0,
                        sim_seconds=seconds,
                        attribution=attribution,
                    ),
                    metrics,
                )

        # One representative per trace class, in submission order.  The
        # other members wait on it, or take a class an earlier batch
        # simulated at once.
        #: class -> the keys merged into its representative
        followers: Dict[Hashable, List[str]] = {}
        #: representative key -> its class
        class_of: Dict[str, Hashable] = {}
        representatives: List[Tuple[str, ExperimentPoint]] = []
        try:
            for key, point in pending:
                trace_class = self._trace_class(key, point)
                known = self._classes.get(trace_class)
                if known is not None:
                    deliver(key, known[0], None, known[1], merged=True)
                elif trace_class in followers:
                    followers[trace_class].append(key)
                else:
                    followers[trace_class] = []
                    class_of[key] = trace_class
                    representatives.append((key, point))

            # Execute the representatives; each result reaches the
            # cache, and its class's members, before the next one is
            # taken.
            for key, _, cycles, seconds, attribution in self._execute(
                representatives
            ):
                metrics.simulated += 1
                metrics.simulated_cycles += cycles
                metrics.sim_seconds += seconds
                metrics.record_attribution(attribution)
                deliver(key, cycles, seconds, attribution)
                trace_class = class_of[key]
                self._classes[trace_class] = (cycles, attribution)
                for member in followers[trace_class]:
                    deliver(member, cycles, None, attribution, merged=True)
        finally:
            metrics.elapsed_seconds += time.perf_counter() - started
            if self.cache is not None:
                metrics.cache_quarantined = self.cache.quarantined

        missing = [
            index for index, cycles in enumerate(results) if cycles is None
        ]
        if missing:
            raise IncompleteBatchError(
                f"batch finished with {len(missing)} unaccounted "
                f"point(s) (first indices: {missing[:5]}) — engine bug"
            )
        self.hooks.batch_complete(metrics)
        return results  # type: ignore[return-value]

    def _trace_class(self, key: str, point: ExperimentPoint) -> Hashable:
        """The class ``point`` merges by: ``(system, params, class key)``
        when its system keys traces, else its own point ``key``.  The
        trace is built, keyed and dropped here.  A point whose system or
        trace cannot be built is a class of its own too: its execution
        raises the error, in submission order."""
        try:
            class_key = getattr(
                build_system(point.system, point.params), "class_key", None
            )
            digest = (
                class_key(build_point_trace(point))
                if class_key is not None
                else None
            )
        except ReproError:
            digest = None
        if digest is None:
            return key
        return (point.system, point.params, digest)

    def _execute(
        self, pending: List[Tuple[str, ExperimentPoint]]
    ) -> Iterator[_Outcome]:
        """Yield one outcome per representative, in submission order."""
        workers = min(self.jobs, len(pending))
        if workers <= 1:
            for key, point in pending:
                yield (key, point) + execute_point_timed(point)
            return
        # Imported here, not at module level: it is a fifth of the
        # engine's import time, and inline batches never need it.
        from concurrent.futures.process import (
            BrokenProcessPool,
            ProcessPoolExecutor,
        )

        chunksize = -(-len(pending) // (workers * _CHUNKS_PER_WORKER))
        executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_pool_context(),
            initializer=_init_worker,
        )
        delivered = 0
        try:
            outcomes = executor.map(
                execute_point_timed,
                [point for _, point in pending],
                chunksize=chunksize,
            )
            for (key, point), outcome in zip(pending, outcomes):
                yield (key, point) + outcome
                delivered += 1
        except BrokenProcessPool as error:
            raise PointFailedError(
                f"a pool worker died (killed or crashed) with "
                f"{len(pending) - delivered} of {len(pending)} points "
                f"unfinished, from {pending[delivered][1].describe()} on"
            ) from error
        finally:
            if delivered < len(pending):
                # shutdown() waits for running tasks, so stop the
                # workers first on every early exit.
                for process in list(executor._processes.values()):
                    process.terminate()
            executor.shutdown(cancel_futures=True)
