"""The tracer: digests unchanged, time accounted for, absences reported."""

from __future__ import annotations

import importlib

import pytest

from perfbench.trace import SPAN_LAYERS, WRAP_POINTS, Tracer


def _current(module, path):
    owner = importlib.import_module(module)
    for name in path.split("."):
        owner = getattr(owner, name)
    return owner


@pytest.mark.parametrize(
    "name", ["paper-grid", "paper-grid-pool", "explore-sweep", "gather-scatter"]
)
def test_traced_digests_match_untraced(tiny_repeat, name):
    plain = tiny_repeat(name)
    tracer = Tracer()
    traced = tiny_repeat(name, tracer=tracer)
    assert traced.error is None and plain.error is None
    assert traced.digests() == plain.digests()
    metrics = tracer.metrics(traced.wall_s, 1)
    attributed = sum(metrics[key] for key in SPAN_LAYERS)
    assert attributed + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"], abs=1e-9
    )
    assert metrics["trace.absent_points"] == 0
    assert metrics["trace.spans"] > 0


def test_inline_workload_attributes_simulation_layers(tiny_repeat):
    tracer = Tracer()
    tiny_repeat("paper-grid", tracer=tracer)
    metrics = tracer.metrics(1.0, 1)
    for key in ("banks.tick_s", "pva.broadcast_s", "sim.kernel.self_s", "bus.s"):
        assert metrics[key] > 0, key
    assert metrics["banks.runs_object"] > 0
    assert metrics["kernels.trace_builds"] > 0


def test_uninstall_restores_every_wrap_point():
    originals = {
        (module, path): _current(module, path)
        for _, module, path, _ in WRAP_POINTS
    }
    with Tracer():
        wrapped = [
            key for key, value in originals.items() if _current(*key) is not value
        ]
        assert len(wrapped) == len(originals)
    for key, value in originals.items():
        assert _current(*key) is value, key


def test_absent_wrap_point_is_reported_not_raised(tiny_repeat):
    points = WRAP_POINTS + (
        ("ghost", "repro.no_such_module", "run", False),
        ("ghost", "repro.engine.engine", "NoSuchEngine.run", False),
    )
    tracer = Tracer(wrap_points=points)
    repeat = tiny_repeat("gather-scatter", tracer=tracer)
    assert repeat.error is None
    assert tracer.absent == [
        "repro.no_such_module:run",
        "repro.engine.engine:NoSuchEngine.run",
    ]
    assert tracer.metrics(repeat.wall_s, 1)["trace.absent_points"] == 2
