"""Engine execution semantics: ordering, parallel parity, caching,
coalescing, and the metrics/hooks surface."""

import pytest

from repro.engine import (
    EngineHooks,
    ExperimentEngine,
    ExperimentPoint,
    KernelTraceSpec,
    execute_point,
    point_key,
)
from repro.engine.engine import _CHUNKS_PER_WORKER
from repro.experiments.grid import EVAL_KERNELS, run_grid


def _points():
    return [
        ExperimentPoint(
            system=system,
            trace=KernelTraceSpec(
                kernel=kernel, stride=stride, elements=128
            ),
        )
        for kernel in ("copy", "scale")
        for stride in (1, 19)
        for system in ("pva-sdram", "cacheline-serial")
    ]


class Recorder(EngineHooks):
    def __init__(self):
        self.outcomes = []
        self.batches = []

    def point_done(self, outcome, metrics):
        self.outcomes.append(outcome)

    def batch_complete(self, metrics):
        self.batches.append(metrics.summary())


def test_results_in_submission_order():
    points = _points()
    engine = ExperimentEngine(jobs=1)
    results = engine.run(points)
    assert results == [execute_point(point) for point in points]


def test_parallel_matches_serial():
    points = _points()
    serial = ExperimentEngine(jobs=1).run(points)
    parallel = ExperimentEngine(jobs=3).run(points)
    assert parallel == serial


def test_chunked_pool_keeps_submission_order():
    """A batch big enough that every pool task carries three points
    still returns its results in submission order.  Neighbouring points
    differ in cycles, so any reordering shows."""
    count = 3 * 2 * _CHUNKS_PER_WORKER
    points = [
        ExperimentPoint(
            system=("cacheline-serial", "gathering-serial")[index % 2],
            trace=KernelTraceSpec(
                kernel=EVAL_KERNELS[index % len(EVAL_KERNELS)],
                stride=1 + index % 5,
                elements=32 * (1 + index // 16),
            ),
        )
        for index in range(count)
    ]
    serial = ExperimentEngine(jobs=1).run(points)
    assert all(a != b for a, b in zip(serial, serial[1:]))
    assert ExperimentEngine(jobs=2).run(points) == serial


def test_grid_results_identical_across_job_counts(tmp_path):
    kwargs = dict(
        kernels=("copy", "swap"),
        strides=(1, 4),
        elements=128,
    )
    serial = run_grid(engine=ExperimentEngine(jobs=1), **kwargs)
    parallel = run_grid(
        engine=ExperimentEngine(jobs=4, cache_dir=tmp_path), **kwargs
    )
    assert parallel == serial


def test_cache_warm_run_skips_simulation(tmp_path):
    points = _points()
    cold = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    cold_results = cold.run(points)
    assert cold.metrics.cache_hits == 0
    assert cold.metrics.simulated > 0

    warm = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    warm_results = warm.run(points)
    assert warm_results == cold_results
    assert warm.metrics.simulated == 0
    assert warm.metrics.cache_hit_rate == 1.0


def test_params_change_invalidates_cache(tmp_path):
    from repro.params import SDRAMTiming, SystemParams

    spec = KernelTraceSpec(kernel="copy", stride=1, elements=128)
    base = ExperimentPoint(system="pva-sdram", trace=spec)
    slower = ExperimentPoint(
        system="pva-sdram",
        trace=spec,
        params=SystemParams(sdram=SDRAMTiming(cas_latency=3)),
    )
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    engine.run([base])
    engine.run([slower])
    # Distinct content addresses: the second run must simulate, not hit.
    assert point_key(base, engine.salt) != point_key(slower, engine.salt)
    assert engine.metrics.cache_hits == 0
    assert engine.metrics.simulated == 2


def test_salt_change_invalidates_cache(tmp_path, monkeypatch):
    import repro

    point = _points()[0]
    a = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    a.run([point])
    # A new library version salts every key anew.
    monkeypatch.setattr(repro, "__version__", repro.__version__ + "+next")
    b = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    b.run([point])
    assert b.metrics.cache_hits == 0
    assert point_key(point, a.salt) != point_key(point, b.salt)


def test_in_batch_coalescing():
    point = _points()[0]
    recorder = Recorder()
    engine = ExperimentEngine(jobs=1, hooks=recorder)
    results = engine.run([point, point, point])
    assert len(set(results)) == 1
    assert engine.metrics.simulated == 1
    assert engine.metrics.coalesced == 2
    assert [o.coalesced for o in sorted(recorder.outcomes, key=lambda o: o.index)] == [
        False,
        True,
        True,
    ]


def test_hooks_receive_every_point_and_metrics(tmp_path):
    points = _points()
    recorder = Recorder()
    engine = ExperimentEngine(jobs=2, cache_dir=tmp_path, hooks=recorder)
    engine.run(points)
    assert sorted(o.index for o in recorder.outcomes) == list(
        range(len(points))
    )
    assert all(o.cycles > 0 for o in recorder.outcomes)
    assert len(recorder.batches) == 1
    summary = recorder.batches[0]
    assert summary["points"] == len(points)
    assert summary["jobs"] == 2
    assert summary["points_per_second"] > 0

    # Second batch on the same engine: metrics accumulate, hits now 100%.
    engine.run(points)
    assert recorder.batches[-1]["points"] == 2 * len(points)
    assert all(o.cached for o in recorder.outcomes[len(points) :])


def test_unknown_kernel_raises():
    from repro.errors import ConfigurationError

    bogus = ExperimentPoint(
        system="pva-sdram",
        trace=KernelTraceSpec(kernel="nope", stride=1, elements=64),
    )
    with pytest.raises(ConfigurationError):
        ExperimentEngine(jobs=1).run([bogus])


class TestSimThroughputMetrics:
    """Per-point simulated cycles + host seconds (cycles/sec) metrics."""

    def test_execute_point_timed_matches_untimed(self):
        from repro.engine import execute_point_timed

        point = _points()[0]
        cycles, seconds, attribution = execute_point_timed(point)
        assert cycles == execute_point(point)
        assert seconds > 0
        # The attribution ledger rides along and sums to the cycle count.
        assert attribution
        for buckets in attribution.values():
            assert (
                buckets["busy"] + buckets["stalled"] + buckets["idle"]
                == cycles
            )

    def test_metrics_aggregate_component_cycles(self):
        points = _points()
        recorder = Recorder()
        engine = ExperimentEngine(jobs=1, hooks=recorder)
        engine.run(points)
        component_cycles = engine.metrics.component_cycles
        # Both system families contribute their own components.
        assert "front-end" in component_cycles
        assert "serial-engine" in component_cycles
        # The totals are exactly the fold of the unique executions'
        # per-point ledgers.
        expected = {}
        for outcome in recorder.outcomes:
            if outcome.cached or outcome.coalesced or not outcome.attribution:
                continue
            for name, buckets in outcome.attribution.items():
                entry = expected.setdefault(
                    name, {"busy": 0, "stalled": 0, "idle": 0}
                )
                for bucket in entry:
                    entry[bucket] += buckets[bucket]
        assert component_cycles == expected
        assert (
            engine.metrics.summary()["component_cycles"] == component_cycles
        )

    def test_metrics_accumulate_cycles_and_seconds(self):
        points = _points()
        engine = ExperimentEngine(jobs=1)
        results = engine.run(points)
        assert engine.metrics.simulated_cycles == sum(results)
        assert engine.metrics.sim_seconds > 0
        assert engine.metrics.sim_cycles_per_second > 0
        summary = engine.metrics.summary()
        assert summary["simulated_cycles"] == sum(results)
        assert summary["sim_cycles_per_second"] > 0

    def test_outcomes_carry_sim_seconds(self):
        recorder = Recorder()
        engine = ExperimentEngine(jobs=1, hooks=recorder)
        engine.run(_points())
        assert recorder.outcomes
        assert all(
            outcome.sim_seconds is not None and outcome.sim_seconds >= 0
            for outcome in recorder.outcomes
        )

    def test_cached_documents_record_producing_sim_mode(self, tmp_path):
        import json

        points = _points()[:2]
        ExperimentEngine(jobs=1, cache_dir=tmp_path).run(points)
        documents = [
            json.loads(path.read_text())
            for path in tmp_path.rglob("*.json")
        ]
        assert documents
        assert all(
            document.get("sim_mode") == points[0].params.sim_mode
            for document in documents
        )

    def test_cache_hits_cost_no_sim_time(self, tmp_path):
        points = _points()
        ExperimentEngine(jobs=1, cache_dir=tmp_path).run(points)
        recorder = Recorder()
        warm = ExperimentEngine(jobs=1, cache_dir=tmp_path, hooks=recorder)
        warm.run(points)
        assert warm.metrics.sim_seconds == 0.0
        assert warm.metrics.simulated_cycles == 0
        # ... but the stored execution time is surfaced per outcome.
        assert all(outcome.cached for outcome in recorder.outcomes)
        assert all(
            outcome.sim_seconds is not None for outcome in recorder.outcomes
        )

    def test_pool_reports_seconds_too(self):
        engine = ExperimentEngine(jobs=2)
        results = engine.run(_points())
        assert engine.metrics.simulated_cycles == sum(results)
        assert engine.metrics.sim_seconds > 0
