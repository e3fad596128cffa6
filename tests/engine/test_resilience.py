"""The engine's resilience layer under injected faults.

The containment tests drive real multiprocess batches through the
deterministic injectors in ``injectors.py`` and assert that healthy
points come back correct (and identical to an inline run), that exactly
the injected failures are reported, and that every batch finishes
inside an explicit wall-clock bound — no deadlocks.
"""

import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.engine import (
    BatchResult,
    ExperimentEngine,
    ExperimentPoint,
    KernelTraceSpec,
    PointFailure,
    RetryPolicy,
)
from repro.errors import (
    ConfigurationError,
    IncompleteBatchError,
    PointFailedError,
    ReproError,
)

from .injectors import InjectedFault, fault_systems  # noqa: F401 (fixture)

#: Generous outer bound for any containment batch in this file.  The
#: batches themselves use a 3 s per-point timeout; a run that needs
#: anywhere near this long has deadlocked.
WALL_CLOCK_BOUND = 90.0

POINT_TIMEOUT = 3.0


def _point(system, stride=1, kernel="copy", elements=64):
    return ExperimentPoint(
        system=system,
        trace=KernelTraceSpec(kernel=kernel, stride=stride, elements=elements),
    )


def _healthy_points():
    return [
        _point("pva-sdram", stride=1),
        _point("pva-sdram", stride=19, kernel="scale"),
        _point("cacheline-serial", stride=4),
        _point("gathering-serial", stride=1, kernel="scale"),
    ]


class TestContainment:
    """One raising point, one watchdog-tripping point and one killed
    worker, in one pool batch."""

    def test_faulty_batch_is_contained(self, fault_systems):
        healthy = _healthy_points()
        faulty = [
            _point(fault_systems["raising"]),
            _point(fault_systems["burner"]),
            _point(fault_systems["killer-once"]),
        ]
        # Interleave so faults land mid-stream, not at the tail.
        points = [
            healthy[0],
            faulty[0],
            healthy[1],
            faulty[1],
            healthy[2],
            faulty[2],
            healthy[3],
        ]
        faulty_indices = (1, 3, 5)

        reference = ExperimentEngine(jobs=1).run(healthy)

        started = time.monotonic()
        engine = ExperimentEngine(
            jobs=4,
            on_error="collect",
            timeout=POINT_TIMEOUT,
            degrade_after=99,  # never rerun the killer inline
        )
        batch = engine.run(points)
        elapsed = time.monotonic() - started
        assert elapsed < WALL_CLOCK_BOUND, "containment batch deadlocked"

        # Healthy points: correct cycles, identical to the inline run.
        assert isinstance(batch, BatchResult)
        assert not batch.ok
        healthy_cycles = [
            cycles
            for index, cycles in enumerate(batch)
            if index not in faulty_indices
        ]
        assert healthy_cycles == reference

        # Exactly the injected failures, nothing else.
        assert batch.failed_indices == faulty_indices
        by_index = {failure.index: failure for failure in batch.failures}
        assert by_index[1].kind == "exception"
        assert by_index[1].error_type == "InjectedFault"
        assert by_index[3].kind == "exception"
        assert by_index[3].error_type == "SimulationTimeout"
        assert by_index[5].kind == "timeout"  # killed worker never reports
        assert engine.metrics.failures == 3
        assert engine.metrics.timeouts >= 1

        with pytest.raises(PointFailedError):
            batch.raise_if_failed()

    def test_collect_mode_parity_across_job_counts(self, fault_systems):
        """jobs=1 and jobs=4 produce the same cycles and the same
        failure indices/kinds for a batch with raise/burn faults (the
        killer is pool-only: inline it would take down the test run)."""
        points = [
            _point("pva-sdram", stride=1),
            _point(fault_systems["raising"]),
            _point("cacheline-serial", stride=4),
            _point(fault_systems["burner"]),
            _point("pva-sdram", stride=19),
        ]

        def run(jobs):
            engine = ExperimentEngine(
                jobs=jobs,
                on_error="collect",
                timeout=POINT_TIMEOUT,
                degrade_after=99,
            )
            return engine.run(points)

        started = time.monotonic()
        inline, pooled = run(1), run(4)
        assert time.monotonic() - started < WALL_CLOCK_BOUND

        assert list(pooled) == list(inline)
        assert pooled.failed_indices == inline.failed_indices == (1, 3)
        kinds = lambda batch: [
            (f.kind, f.error_type) for f in batch.failures
        ]
        assert kinds(pooled) == kinds(inline)


class TestRetry:
    def test_transient_fault_absorbed_by_one_retry(self, fault_systems):
        """A fail-once fault retried once is invisible to the caller."""
        points = [_point(fault_systems["transient"]), _point("pva-sdram")]
        engine = ExperimentEngine(
            jobs=2,
            on_error="collect",
            retry=RetryPolicy(retries=1, backoff_seconds=0.01),
            timeout=POINT_TIMEOUT,
            degrade_after=99,
        )
        started = time.monotonic()
        batch = engine.run(points)
        assert time.monotonic() - started < WALL_CLOCK_BOUND
        assert batch.ok
        # the healed attempt delegates to pva-sdram, so both points agree
        assert batch[0] == batch[1]
        assert engine.metrics.retries == 1
        assert engine.metrics.failures == 0

    def test_transient_fault_absorbed_inline(self, fault_systems):
        engine = ExperimentEngine(jobs=1, retry=1, on_error="collect")
        batch = engine.run([_point(fault_systems["transient"])])
        assert batch.ok
        assert engine.metrics.retries == 1

    def test_retries_exhausted_still_fails(self, fault_systems):
        engine = ExperimentEngine(jobs=1, retry=2, on_error="collect")
        batch = engine.run([_point(fault_systems["raising"])])
        assert not batch.ok
        assert batch.failures[0].attempts == 3
        assert engine.metrics.retries == 2


class TestDegradation:
    def test_pool_degrades_to_inline_and_recovers(self, fault_systems):
        """A worker killed mid-batch with degrade_after=1 abandons the
        pool; the killer-once marker is already claimed, so the inline
        rerun heals and the whole batch succeeds."""
        points = [_point(fault_systems["killer-once"]), _point("pva-sdram")]
        engine = ExperimentEngine(
            jobs=2,
            on_error="collect",
            retry=RetryPolicy(retries=1, retry_timeouts=True),
            timeout=POINT_TIMEOUT,
            degrade_after=1,
        )
        started = time.monotonic()
        batch = engine.run(points)
        assert time.monotonic() - started < WALL_CLOCK_BOUND
        assert batch.ok
        assert engine.metrics.timeouts == 1
        assert engine.metrics.degraded >= 1


class TestRaiseMode:
    def test_inline_raise_propagates_original_exception(self, fault_systems):
        engine = ExperimentEngine(jobs=1)
        with pytest.raises(InjectedFault):
            engine.run([_point(fault_systems["raising"])])

    def test_pool_raise_propagates_original_exception(self, fault_systems):
        engine = ExperimentEngine(jobs=2, timeout=POINT_TIMEOUT)
        points = [_point("pva-sdram"), _point(fault_systems["raising"])]
        with pytest.raises(InjectedFault):
            engine.run(points)

    def test_timeout_raises_point_failed_error(self, fault_systems):
        """A killed worker has no exception object to re-raise, so raise
        mode surfaces the timeout as PointFailedError."""
        engine = ExperimentEngine(
            jobs=2, timeout=POINT_TIMEOUT, degrade_after=99
        )
        points = [_point("pva-sdram"), _point(fault_systems["killer-once"])]
        started = time.monotonic()
        with pytest.raises(PointFailedError):
            engine.run(points)
        assert time.monotonic() - started < WALL_CLOCK_BOUND


class TestRetryPolicy:
    def test_delay_is_exponential_and_capped(self):
        policy = RetryPolicy(
            retries=5,
            backoff_seconds=1.0,
            backoff_factor=2.0,
            max_backoff_seconds=3.0,
        )
        assert policy.delay(1) == 1.0
        assert policy.delay(2) == 2.0
        assert policy.delay(3) == 3.0  # capped
        assert policy.delay(4) == 3.0

    def test_zero_backoff_is_free(self):
        assert RetryPolicy(retries=2).delay(1) == 0.0

    def test_should_retry_counts_attempts(self):
        policy = RetryPolicy(retries=1)
        assert policy.should_retry(1)
        assert not policy.should_retry(2)

    def test_timeouts_can_be_excluded(self):
        policy = RetryPolicy(retries=3, retry_timeouts=False)
        assert policy.should_retry(1)
        assert not policy.should_retry(1, timeout=True)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(retries=-1),
            dict(backoff_seconds=-0.1),
            dict(max_backoff_seconds=-1),
            dict(backoff_factor=0.5),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


class TestEngineConfiguration:
    def test_bad_on_error_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentEngine(on_error="explode")

    def test_bad_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentEngine(timeout=0)

    def test_int_retry_shorthand(self):
        assert ExperimentEngine(retry=2).retry == RetryPolicy(retries=2)


class TestBatchResult:
    def _failure(self, index):
        return PointFailure(
            index=index,
            point=_point("pva-sdram"),
            error_type="InjectedFault",
            message="boom",
            traceback="",
            attempts=1,
        )

    def test_sequence_semantics(self):
        batch = BatchResult([10, None, 30], [self._failure(1)])
        assert len(batch) == 3
        assert batch[0] == 10 and batch[1] is None
        assert list(batch) == [10, None, 30]
        assert batch == [10, None, 30]  # comparable to a plain list
        assert not batch.ok
        assert batch.failed_indices == (1,)

    def test_ok_batch_raises_nothing(self):
        batch = BatchResult([1, 2, 3])
        assert batch.ok
        batch.raise_if_failed()

    def test_raise_if_failed_summarizes(self):
        batch = BatchResult([None, 2], [self._failure(0)])
        with pytest.raises(PointFailedError, match="1 of 2 points failed"):
            batch.raise_if_failed()

    def test_failures_sorted_by_index(self):
        batch = BatchResult(
            [None, None], [self._failure(1), self._failure(0)]
        )
        assert batch.failed_indices == (0, 1)

    def test_point_failed_error_is_a_repro_error(self):
        with pytest.raises(ReproError):
            BatchResult([None], [self._failure(0)]).raise_if_failed()


class TestIncompleteBatch:
    def test_lost_point_is_an_engine_bug_not_a_hang(self, monkeypatch):
        """If execution drops a point on the floor the engine reports a
        loud IncompleteBatchError instead of returning short results."""
        engine = ExperimentEngine(jobs=1)
        monkeypatch.setattr(
            engine, "_execute", lambda pending: iter(())
        )
        with pytest.raises(IncompleteBatchError):
            engine.run([_point("pva-sdram")])


INTERRUPT_SCRIPT = textwrap.dedent(
    """
    import sys, time
    from repro.api import build_system, register_system
    from repro.engine import ExperimentEngine, ExperimentPoint, KernelTraceSpec

    class SlowSystem:
        name = "slow"
        def __init__(self, params):
            self._params = params
        def run(self, commands):
            time.sleep(120)
            raise AssertionError("unreachable")

    register_system("slow-system", SlowSystem, overwrite=True)

    cache_dir = sys.argv[1]
    fast = ExperimentPoint(
        system="pva-sdram",
        trace=KernelTraceSpec(kernel="copy", stride=1, elements=64),
    )
    slow = [
        ExperimentPoint(
            system="slow-system",
            trace=KernelTraceSpec(kernel="copy", stride=s, elements=64),
        )
        for s in (2, 3, 4)
    ]
    engine = ExperimentEngine(jobs=2, cache_dir=cache_dir)
    print("READY", flush=True)
    try:
        engine.run([fast] + slow)
    except KeyboardInterrupt:
        print("INTERRUPTED-CLEANLY", flush=True)
        sys.exit(42)
    print("NOT-INTERRUPTED", flush=True)
    sys.exit(1)
    """
)


class TestKeyboardInterrupt:
    def test_interrupt_flushes_cache_and_reraises_cleanly(self, tmp_path):
        """^C mid-batch: completed results reach the cache, the batch
        re-raises one clean KeyboardInterrupt (no per-worker traceback
        spam), and the process exits promptly."""
        cache_dir = tmp_path / "cache"
        src = Path(__file__).resolve().parents[2] / "src"
        child = subprocess.Popen(
            [sys.executable, "-c", INTERRUPT_SCRIPT, str(cache_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        def committed_entries():
            # ``put`` writes ``.tmp-*.json`` beside the entry and renames
            # it into place; the temp file is not a landed result.
            return [
                path
                for path in cache_dir.glob("*/*.json")
                if not path.name.startswith(".")
            ]

        try:
            # Wait for the fast point's result to land in the cache,
            # proof the batch is mid-flight with completed work.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if committed_entries():
                    break
                time.sleep(0.05)
            else:
                pytest.fail("fast point never reached the cache")
            child.send_signal(signal.SIGINT)
            stdout, stderr = child.communicate(timeout=30.0)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()

        assert child.returncode == 42, (stdout, stderr)
        assert "INTERRUPTED-CLEANLY" in stdout
        assert "Traceback" not in stderr  # workers stayed silent
        assert committed_entries()  # completed work kept
