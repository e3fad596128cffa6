"""The engine's failure behaviour under injected faults.

These tests drive real batches, inline and on a worker pool, through
the deterministic injectors in ``injectors.py``.  A raising point raises
its own exception at any job count, the watchdog stops a runaway
simulation inside its worker, a killed worker fails the batch at once,
and every pool batch finishes inside an explicit wall-clock bound: none
of them configures a timeout, so a hang would run into it.
"""

import contextlib
import os
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.engine import ExperimentEngine, ExperimentPoint, KernelTraceSpec
from repro.errors import (
    IncompleteBatchError,
    PointFailedError,
    SimulationTimeout,
)

from .injectors import InjectedFault, fault_systems  # noqa: F401 (fixture)

#: Generous outer bound for any pool batch in this file; a batch that
#: needs anywhere near this long has hung.
WALL_CLOCK_BOUND = 90.0


def _point(system, stride=1, kernel="copy", elements=64):
    return ExperimentPoint(
        system=system,
        trace=KernelTraceSpec(kernel=kernel, stride=stride, elements=elements),
    )


@contextmanager
def _within_wall_clock_bound():
    """Fail, instead of hanging the suite, if the block outlives
    :data:`WALL_CLOCK_BOUND` (SIGALRM interrupts the engine's wait)."""

    def expire(signum, frame):
        raise AssertionError(
            f"batch still running after {WALL_CLOCK_BOUND:.0f}s: it hung"
        )

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(int(WALL_CLOCK_BOUND))
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestRaiseMode:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raise_propagates_original_exception(self, fault_systems, jobs):
        """The first failing point raises its own exception, the same
        one inline and on a pool."""
        engine = ExperimentEngine(jobs=jobs)
        points = [_point("pva-sdram"), _point(fault_systems["raising"])]
        with _within_wall_clock_bound(), pytest.raises(InjectedFault):
            engine.run(points)

    def test_dead_worker_raises_point_failed_error(self, fault_systems):
        """A worker killed mid-batch (``os._exit``, like the OOM killer)
        fails the batch at once with PointFailedError, chained from the
        pool's BrokenProcessPool."""
        engine = ExperimentEngine(jobs=2)
        points = [
            _point("pva-sdram"),
            _point(fault_systems["killer-once"]),
            _point("pva-sdram", stride=19, kernel="scale"),
        ]
        with _within_wall_clock_bound():
            with pytest.raises(PointFailedError) as caught:
                engine.run(points)
        assert isinstance(caught.value.__cause__, BrokenProcessPool)

    def test_runaway_point_stopped_by_watchdog(self, fault_systems):
        """The simulation watchdog is the containment for a run that
        never finishes: it raises SimulationTimeout inside the worker,
        and the batch re-raises it."""
        engine = ExperimentEngine(jobs=2)
        points = [_point("pva-sdram"), _point(fault_systems["burner"])]
        with _within_wall_clock_bound(), pytest.raises(SimulationTimeout):
            engine.run(points)


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
            start_new_session=True,
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
            # Kill the child's whole process group: pool workers it left
            # behind would hold its pipes open, and the last
            # communicate() would wait for them forever.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
            child.communicate()

        assert child.returncode == 42, (stdout, stderr)
        assert "INTERRUPTED-CLEANLY" in stdout
        assert "Traceback" not in stderr  # workers stayed silent
        assert committed_entries()  # completed work kept
