"""The parallel experiment engine.

``ExperimentEngine.run`` takes a batch of :class:`ExperimentPoint` specs
and returns their cycle counts **in submission order**, regardless of
how many worker processes execute them — results are keyed by index, so
``jobs=1`` and ``jobs=N`` produce identical output.  Three layers sit
between a submitted point and a simulation:

1. **Result cache** — with a ``cache_dir``, each point's content address
   (:func:`repro.engine.spec.point_key`) is looked up first; warm runs of
   a figure or ablation replay from disk instead of re-simulating.
2. **Coalescing** — identical points inside one batch (the grid runner
   submits alignment-free baselines once per alignment) share a single
   execution.
3. **Worker pool** — remaining unique points fan out over a
   ``multiprocessing`` pool.  Workers rebuild trace and system from the
   spec, so no simulator state crosses the process boundary; the fork
   start method is preferred (cheap, inherits ``sys.path``) with spawn
   as the portable fallback.

On top of these sits the **resilience layer**
(:mod:`repro.engine.resilience`): every unique point is tracked as a
task with its own id, submitted via ``apply_async`` so one stuck point
cannot stall the stream.  A failing point is retried under the engine's
:class:`RetryPolicy` (immediately unless the policy sets a backoff); a
point that outlives the per-point ``timeout`` — a hung simulation or a
killed worker — is recovered the same way.  Terminal failures either
abort the batch (``on_error="raise"``, the default) or are captured as
:class:`PointFailure` records in the returned :class:`BatchResult`
(``on_error="collect"``), with healthy points unaffected.  If the pool
misbehaves repeatedly the engine abandons it and degrades to inline
execution for the remaining points.

Progress and throughput are surfaced through the
:class:`~repro.engine.metrics.EngineHooks` callback interface.
"""

from __future__ import annotations

import dataclasses
import signal
import time
import traceback
from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.api import build_system
from repro.engine.cache import ResultCache
from repro.engine.metrics import EngineHooks, EngineMetrics, PointOutcome
from repro.engine.resilience import (
    KIND_EXCEPTION,
    KIND_TIMEOUT,
    BatchResult,
    PointFailure,
    RetryPolicy,
)
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
)

__all__ = ["ExperimentEngine", "execute_point", "execute_point_timed"]

#: Idle-poll interval of the pool result loop, seconds.
_POLL_SECONDS = 0.005


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
    (terminate + flush + clean re-raise), so ^C prints one traceback
    instead of one per worker.

    SIGTERM is reset to the default disposition: a forked worker
    inherits any handler the parent installed, and a worker that
    shrugs off SIGTERM turns ``pool.terminate()`` into a deadlock (the
    parent joins a worker that never exits)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


class _Task:
    """Parent-side state of one unique point's execution."""

    __slots__ = (
        "task_id",
        "key",
        "point",
        "attempts",
        "async_result",
        "deadline",
        "not_before",
    )

    def __init__(self, task_id: int, key: str, point: ExperimentPoint):
        self.task_id = task_id
        self.key = key
        self.point = point
        self.attempts = 0  #: executions started so far
        self.async_result = None  #: in-flight AsyncResult, or None
        self.deadline: Optional[float] = None
        self.not_before: float = 0.0  #: backoff gate for the next attempt


#: One streamed execution outcome: exactly one of ``cycles`` / ``failure``
#: is set; ``sim_seconds`` is the executing worker's wall clock for the
#: point and ``attribution`` its per-component cycle ledger (both None on
#: failure); ``error`` carries the original exception object when there
#: is one to re-raise in ``on_error="raise"`` mode.
_Outcome = Tuple[
    str,
    ExperimentPoint,
    Optional[int],
    Optional[float],
    Optional[Dict[str, Dict[str, int]]],
    Optional[PointFailure],
    Optional[BaseException],
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
        outcomes, failures, and batch summaries.
    salt:
        Cache-key salt; defaults to the library version plus the engine
        schema version, so upgrading either invalidates stale entries.
    on_error:
        ``"raise"`` (default) propagates the first terminal point
        failure; ``"collect"`` records failures and returns a
        :class:`BatchResult` with ``None`` cycles at failed indices.
    retry:
        A :class:`RetryPolicy`, or an int shorthand for
        ``RetryPolicy(retries=n)``; None disables retrying.
    timeout:
        Per-point wall-clock budget in seconds for pool execution,
        measured from task submission.  Recovers hung simulations and
        killed workers (whose results never arrive).  None (default)
        waits forever; inline execution ignores it — the simulation
        watchdog (:class:`repro.sim.runner.Watchdog`) is the inline
        containment layer.
    degrade_after:
        Abandon the worker pool and finish the batch inline after this
        many pool incidents (timeouts / lost tasks / submission
        failures) in one batch.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache_dir=None,
        hooks: Optional[EngineHooks] = None,
        salt: Optional[str] = None,
        on_error: str = "raise",
        retry: Union[RetryPolicy, int, None] = None,
        timeout: Optional[float] = None,
        degrade_after: int = 3,
    ):
        self.jobs = max(1, int(jobs))
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.hooks = hooks if hooks is not None else EngineHooks()
        self.salt = salt if salt is not None else default_salt()
        if on_error not in ("raise", "collect"):
            raise ConfigurationError(
                f'on_error must be "raise" or "collect", got {on_error!r}'
            )
        self.on_error = on_error
        if retry is None:
            retry = RetryPolicy()
        elif isinstance(retry, int):
            retry = RetryPolicy(retries=retry)
        self.retry = retry
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(
                f"timeout must be positive or None, got {timeout}"
            )
        self.timeout = timeout
        self.degrade_after = max(1, int(degrade_after))
        self.metrics = EngineMetrics(jobs=self.jobs)

    # ------------------------------------------------------------- #
    # Execution
    # ------------------------------------------------------------- #

    def run(
        self, points: Sequence[ExperimentPoint]
    ) -> Union[List[int], BatchResult]:
        """Execute a batch; return cycle counts in submission order.

        With ``on_error="raise"`` the return value is a plain
        ``List[int]``; with ``"collect"`` it is a :class:`BatchResult`
        whose sequence view has ``None`` at failed indices and whose
        ``failures`` lists one :class:`PointFailure` per failed point.
        """
        points = list(points)
        metrics = self.metrics
        metrics.points_total += len(points)
        started = time.perf_counter()

        results: List[Optional[int]] = [None] * len(points)
        failures: List[PointFailure] = []
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

        # Execute the unique misses, streaming outcomes as they land
        # (results are index-keyed, so completion order is irrelevant).
        try:
            for (
                key,
                point,
                cycles,
                seconds,
                attribution,
                failure,
                error,
            ) in self._execute(pending):
                if failure is None:
                    if self.cache is not None:
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
                    indices = waiting.pop(key)
                    metrics.simulated += 1
                    metrics.simulated_cycles += cycles
                    if seconds is not None:
                        metrics.sim_seconds += seconds
                    metrics.record_attribution(attribution)
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
                                sim_seconds=seconds,
                                attribution=attribution,
                            ),
                            metrics,
                        )
                    continue
                if self.on_error == "raise":
                    if error is not None:
                        raise error
                    raise PointFailedError(failure.describe())
                for index in waiting.pop(key):
                    record = dataclasses.replace(
                        failure, index=index, point=points[index]
                    )
                    failures.append(record)
                    metrics.failures += 1
                    self.hooks.point_failed(record, metrics)
        finally:
            metrics.elapsed_seconds += time.perf_counter() - started
            if self.cache is not None:
                metrics.cache_quarantined = self.cache.quarantined

        failed = {failure.index for failure in failures}
        missing = [
            index
            for index, cycles in enumerate(results)
            if cycles is None and index not in failed
        ]
        if missing:
            raise IncompleteBatchError(
                f"batch finished with {len(missing)} unaccounted "
                f"point(s) (first indices: {missing[:5]}) — engine bug"
            )
        self.hooks.batch_complete(metrics)
        if self.on_error == "collect":
            return BatchResult(results, failures)
        return results  # type: ignore[return-value]

    def _execute(
        self, pending: List[Tuple[str, ExperimentPoint]]
    ) -> Iterator[_Outcome]:
        """Stream one outcome per unique point, in completion order."""
        if not pending:
            return
        if self.jobs == 1 or len(pending) == 1:
            for key, point in pending:
                yield self._run_inline(key, point)
            return
        yield from self._execute_pool(pending)

    # ------------------------------------------------------------- #
    # Inline execution (jobs=1 and the degraded fallback)
    # ------------------------------------------------------------- #

    def _run_inline(
        self, key: str, point: ExperimentPoint, attempts: int = 0
    ) -> _Outcome:
        """Execute one point in this process, honouring the retry
        policy.  ``attempts`` carries over executions already consumed
        in the pool when the engine degrades mid-batch."""
        while True:
            attempts += 1
            try:
                cycles, seconds, attribution = execute_point_timed(point)
                return key, point, cycles, seconds, attribution, None, None
            except Exception as error:
                if self.retry.should_retry(attempts):
                    self.metrics.retries += 1
                    delay = self.retry.delay(attempts)
                    if delay:
                        time.sleep(delay)
                    continue
                failure = self._failure_from(point, error, attempts)
                return key, point, None, None, None, failure, error

    # ------------------------------------------------------------- #
    # Pool execution
    # ------------------------------------------------------------- #

    def _execute_pool(
        self, pending: List[Tuple[str, ExperimentPoint]]
    ) -> Iterator[_Outcome]:
        context = _pool_context()
        workers = min(self.jobs, len(pending))
        pool = context.Pool(processes=workers, initializer=_init_worker)
        queue = deque(
            _Task(task_id, key, point)
            for task_id, (key, point) in enumerate(pending)
        )
        live: Dict[int, _Task] = {}  #: task_id -> in-flight or backing off
        incidents = 0  #: pool-level faults seen this batch
        try:
            while queue or live:
                if incidents >= self.degrade_after:
                    # The pool keeps misbehaving (stuck or dying
                    # workers); finish the batch inline where at least
                    # the simulation watchdog contains faults.
                    pool.terminate()
                    remaining = list(live.values()) + list(queue)
                    live.clear()
                    queue.clear()
                    for task in remaining:
                        self.metrics.degraded += 1
                        yield self._run_inline(
                            task.key, task.point, attempts=task.attempts
                        )
                    return

                progressed = self._fill_pool(pool, queue, live, workers)
                now = time.monotonic()
                for task_id in list(live):
                    task = live[task_id]
                    if task.async_result is None:
                        # Backing off before a retry.
                        if now >= task.not_before:
                            if not self._submit(pool, task):
                                incidents = self.degrade_after
                                break
                            progressed = True
                        continue
                    if task.async_result.ready():
                        progressed = True
                        del live[task_id]
                        try:
                            cycles, seconds, attribution = (
                                task.async_result.get()
                            )
                        except Exception as error:
                            if self.retry.should_retry(task.attempts):
                                self.metrics.retries += 1
                                task.async_result = None
                                task.not_before = now + self.retry.delay(
                                    task.attempts
                                )
                                live[task_id] = task
                                continue
                            yield (
                                task.key,
                                task.point,
                                None,
                                None,
                                None,
                                self._failure_from(
                                    task.point, error, task.attempts
                                ),
                                error,
                            )
                            continue
                        yield (
                            task.key,
                            task.point,
                            cycles,
                            seconds,
                            attribution,
                            None,
                            None,
                        )
                    elif task.deadline is not None and now > task.deadline:
                        # Hung simulation or killed worker: its result
                        # will never arrive (a late one is discarded).
                        progressed = True
                        self.metrics.timeouts += 1
                        incidents += 1
                        del live[task_id]
                        if self.retry.should_retry(
                            task.attempts, timeout=True
                        ):
                            self.metrics.retries += 1
                            task.async_result = None
                            task.not_before = now + self.retry.delay(
                                task.attempts
                            )
                            live[task_id] = task
                            continue
                        yield (
                            task.key,
                            task.point,
                            None,
                            None,
                            None,
                            self._timeout_failure(task),
                            None,
                        )
                if not progressed:
                    time.sleep(_POLL_SECONDS)
        except KeyboardInterrupt:
            # Stop the workers, then flush every already-finished
            # result so the cache keeps the completed work, and
            # re-raise a single clean interrupt.
            pool.terminate()
            yield from self._harvest_finished(live)
            raise
        finally:
            pool.terminate()
            pool.join()
            # Worker teardown: drop the process-wide simulation memos
            # (PLA tables, hit schedules, SoA broadcast tables) the
            # batch grew in this parent process — sweeps touch many
            # geometries and vectors, and nothing between batches needs
            # the warm entries.
            from repro.api import clear_caches

            clear_caches()

    @staticmethod
    def _harvest_finished(live: Dict[int, "_Task"]) -> Iterator[_Outcome]:
        """Yield every live task whose result already landed, so an
        interrupted batch keeps its completed work."""
        for task in live.values():
            ready = task.async_result
            if ready is None or not ready.ready():
                continue
            try:
                cycles, seconds, attribution = ready.get(0)
            except Exception:
                continue
            yield (
                task.key,
                task.point,
                cycles,
                seconds,
                attribution,
                None,
                None,
            )

    def _fill_pool(
        self,
        pool,
        queue: deque,
        live: Dict[int, "_Task"],
        workers: int,
    ) -> bool:
        """Keep at most ``2 * workers`` tasks outstanding.

        Lazy submission keeps the per-point ``timeout`` honest: a
        deadline starts at submission, so queueing every point up front
        would charge tail points for the whole batch's runtime.
        """
        progressed = False
        in_flight = sum(
            1 for task in live.values() if task.async_result is not None
        )
        while queue and in_flight < 2 * workers:
            task = queue.popleft()
            if not self._submit(pool, task):
                queue.appendleft(task)
                return progressed
            live[task.task_id] = task
            in_flight += 1
            progressed = True
        return progressed

    def _submit(self, pool, task: "_Task") -> bool:
        """Start one attempt of ``task``; False if the pool is broken."""
        try:
            async_result = pool.apply_async(
                execute_point_timed, (task.point,)
            )
        except Exception:
            return False
        task.attempts += 1
        task.async_result = async_result
        task.deadline = (
            time.monotonic() + self.timeout
            if self.timeout is not None
            else None
        )
        return True

    # ------------------------------------------------------------- #
    # Failure records
    # ------------------------------------------------------------- #

    @staticmethod
    def _failure_from(
        point: ExperimentPoint, error: BaseException, attempts: int
    ) -> PointFailure:
        return PointFailure(
            index=-1,
            point=point,
            error_type=type(error).__name__,
            message=str(error),
            traceback="".join(
                traceback.format_exception(
                    type(error), error, error.__traceback__
                )
            ),
            attempts=attempts,
            kind=KIND_EXCEPTION,
        )

    def _timeout_failure(self, task: "_Task") -> PointFailure:
        return PointFailure(
            index=-1,
            point=task.point,
            error_type="TimeoutError",
            message=(
                f"point exceeded its {self.timeout}s deadline — "
                "hung simulation or killed worker"
            ),
            traceback="",
            attempts=task.attempts,
            kind=KIND_TIMEOUT,
        )

    # ------------------------------------------------------------- #
    # Convenience
    # ------------------------------------------------------------- #

    def run_one(self, point: ExperimentPoint) -> Optional[int]:
        """Execute a single point (through cache and hooks).

        In ``on_error="collect"`` mode a failed point yields None; check
        the batch via :meth:`run` for the failure record.
        """
        return self.run([point])[0]

    def key_of(self, point: ExperimentPoint) -> str:
        """The content address this engine uses for ``point``."""
        return point_key(point, self.salt)
