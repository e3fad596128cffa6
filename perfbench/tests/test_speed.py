"""Host-speed samples and the normalisation built on them."""

from __future__ import annotations

import os
import signal
import time

import pytest

from perfbench.speed import (
    REFERENCE_S,
    Sampler,
    SpeedTrace,
    reference_loop,
    sample_forked_children,
)


def _burn(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        reference_loop()


def test_normalise_scales_by_the_sampled_speed_and_drops_the_loops():
    half = 2 * REFERENCE_S  # the loop ran at half the reference speed
    trace = SpeedTrace([(2.0, half), (1.0, half), (9.0, REFERENCE_S)])
    assert trace.speed(0.5, 2.5) == pytest.approx(0.5)
    assert trace.overhead(0.5, 2.5) == pytest.approx(2 * half)
    assert trace.normalise(0.5, 2.5, 10.0) == pytest.approx((10.0 - 2 * half) * 0.5)
    assert trace.normalise(0.5, 2.5, 10.0, lanes=2) == pytest.approx(
        (10.0 - half) * 0.5
    )
    # The margin widens the speed window, not the interval.
    assert trace.normalise(3.0, 8.5, 1.0, margin=0.5) == pytest.approx(1.0)
    assert trace.normalise(3.0, 8.5, 1.0) == pytest.approx(2 / 3)


def test_speed_falls_back_to_the_whole_trace_then_to_one():
    trace = SpeedTrace([(1.0, 2 * REFERENCE_S), (2.0, 4 * REFERENCE_S)])
    assert trace.speed(5.0, 6.0) == pytest.approx((0.5 + 0.25) / 2)
    assert SpeedTrace([]).speed(0.0, 1.0) == 1.0
    assert SpeedTrace([]).normalise(0.0, 1.0) == 1.0


def test_sampler_samples_cpu_time_and_restores_the_signal(tmp_path):
    sampler = Sampler(str(tmp_path)).start()
    try:
        _burn(0.2)
    finally:
        sampler.stop()
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
    trace = SpeedTrace.load(str(tmp_path))
    assert len(trace) >= 3
    assert all(duration > 0 for duration in trace.durations)
    assert trace.starts == sorted(trace.starts)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_children_sample_into_their_own_file(tmp_path):
    sample_forked_children(str(tmp_path))
    try:
        pid = os.fork()
        if pid == 0:  # the child: work, then leave without cleanup
            try:
                _burn(0.2)
            finally:
                os._exit(0)
    finally:
        sample_forked_children(None)
    os.waitpid(pid, 0)
    assert os.listdir(tmp_path) == [f"speed-{pid}.bin"]
    assert len(SpeedTrace.load(str(tmp_path))) >= 3
