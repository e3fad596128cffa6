"""One repeat of one workload in a fresh process.

``perfbench/run.py`` starts one of these per repeat, so every repeat
pays the process-wide memos (PLA tables, schedule LRUs) the way each
``repro grid`` invocation does::

    python -m perfbench.worker '{"workload": "paper-grid", "seed": 1,
        "size": "full", "trace": false, "setup_only": false, "sample": true,
        "tmp": "<dir>", "launched": <time.monotonic() at launch>}'

With ``sample`` the repeat's processes take host-speed samples into
``tmp`` and the record adds the ``norm_*`` times (:mod:`perfbench.speed`).
The last line of standard output is the repeat's JSON record.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from typing import Dict, List

from perfbench.speed import Sampler, SpeedTrace, sample_forked_children
from perfbench.workloads import Repeat

#: Seconds a simulated point's host-speed window reaches past each end.
POINT_MARGIN_S = 0.05


def _peak_rss_mb() -> float:
    """High-water RSS of this process and of its reaped pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _schedule_counts() -> List[int]:
    """(hits, misses) of the stride-schedule and broadcast-table memos."""
    from repro.pva.schedule import schedule_cache_info
    from repro.pva.soa import soa_cache_info

    stride, tables = schedule_cache_info(), soa_cache_info()
    return [stride.hits + tables.hits, stride.misses + tables.misses]


def _percentile(values: List[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _program_counters(
    repeat: Repeat, schedule: List[int], point_ms: List[float]
) -> Dict[str, float]:
    """Per-layer numbers the program reports itself (engine metrics,
    memo statistics, cycle attribution) — valid with tracing off."""
    engines = repeat.hooks.engine_metrics
    points_done = sum(m.points_done for m in engines)
    sim_seconds = sum(m.sim_seconds for m in engines)
    executed = repeat.executed()
    cycles = bus_busy = 0
    bank_stalled = bank_total = 0
    for outcome in executed:
        attribution = outcome.attribution or {}
        if "vector-bus" in attribution:
            cycles += outcome.cycles
            bus_busy += attribution["vector-bus"]["busy"]
        for name, buckets in attribution.items():
            if name.startswith("bank-"):
                bank_stalled += buckets["stalled"]
                bank_total += buckets["busy"] + buckets["stalled"] + buckets["idle"]
    lookups = sum(schedule)
    report = repeat.report or {}
    return {
        "engine.cache_hit_ratio": (
            sum(m.cache_hits for m in engines) / points_done if points_done else 0.0
        ),
        "engine.replay_s": repeat.replay_s,
        "engine.worker_busy_fraction": (
            sim_seconds / (repeat.wall_s * repeat.jobs) if repeat.wall_s else 0.0
        ),
        "engine.point_p98_ms": _percentile(point_ms, 0.98),
        "engine.point_samples": len(point_ms),
        "explore.prune_fraction": report.get("prune_fraction", 0.0),
        "pva.schedule_hit_ratio": schedule[0] / lookups if lookups else 0.0,
        "model.sim_cycles": sum(o.cycles for o in executed),
        "model.bus_busy_fraction": bus_busy / cycles if cycles else 0.0,
        "model.bank_stalled_fraction": (
            bank_stalled / bank_total if bank_total else 0.0
        ),
    }


def _timed_points(repeat: Repeat) -> List:
    """(arrival, sim_seconds) of every point the repeat simulated."""
    return [
        (arrival, o.sim_seconds)
        for o, arrival in zip(repeat.hooks.outcomes, repeat.hooks.arrivals)
        if not o.cached and not o.coalesced and o.sim_seconds is not None
    ]


def _normalised(record: Dict, repeat: Repeat, speed: SpeedTrace) -> None:
    """Add the repeat's host times at the reference speed to ``record``
    (see :mod:`perfbench.speed`).  A point's speed window reaches
    :data:`POINT_MARGIN_S` past each end, so short points see several
    samples; pool workers sample in parallel, ``lanes`` of them."""
    lanes = repeat.jobs
    record["norm_wall_s"] = speed.normalise(
        repeat.started, repeat.ended, repeat.wall_s, lanes=lanes
    )
    record["speed"] = speed.speed(repeat.started, repeat.ended)
    record["speed_samples"] = len(speed)
    point_ms = [
        1e3
        * speed.normalise(
            arrival - seconds, arrival, seconds, lanes=lanes, margin=POINT_MARGIN_S
        )
        for arrival, seconds in _timed_points(repeat)
    ]
    record["norm_point_p50_ms"] = statistics.median(point_ms) if point_ms else 0.0


def run(config: Dict) -> Dict:
    """Execute one repeat as described by ``config``; return its record."""
    sampler = Sampler(config["tmp"]).start() if config.get("sample") else None
    repeat = Repeat(config["workload"], config["seed"], config["size"], config["tmp"])
    repeat.setup()
    set_up = time.monotonic()
    record: Dict = {"setup_s": set_up - config["launched"]}
    if sampler is not None and (config.get("setup_only") or repeat.jobs > 1):
        # A pool workload is sampled in its workers only: a sampling
        # parent would compete with them for the CPUs.
        sampler.stop()
        sampler = None
    if config.get("setup_only"):
        if config.get("sample"):
            record["norm_setup_s"] = SpeedTrace.load(config["tmp"]).normalise(
                config["launched"], set_up
            )
        return record
    repeat.prepare()
    before = _schedule_counts()
    tracer = None
    if config.get("trace"):
        from perfbench.trace import Tracer

        tracer = Tracer().install()
    if config.get("sample") and repeat.jobs > 1:
        sample_forked_children(config["tmp"])
    try:
        repeat.execute()
    finally:
        sample_forked_children(None)
        if sampler is not None:
            sampler.stop()
        if tracer is not None:
            tracer.uninstall()
    record["peak_rss_mb"] = _peak_rss_mb()
    after = _schedule_counts()
    schedule = [max(0, a - b) for a, b in zip(after, before)]

    point_ms = [seconds * 1e3 for _, seconds in _timed_points(repeat)]
    sim_cycles = sum(m.simulated_cycles for m in repeat.hooks.engine_metrics)
    record.update(
        {
            "wall_s": repeat.wall_s,
            "points": repeat.points,
            "sim_cycles": sim_cycles,
            "point_p50_ms": statistics.median(point_ms) if point_ms else 0.0,
            "point_samples": len(point_ms),
            "counters": _program_counters(repeat, schedule, point_ms),
        }
    )
    if config.get("sample"):
        speed = SpeedTrace.load(config["tmp"])
        record["norm_setup_s"] = speed.normalise(config["launched"], set_up)
        _normalised(record, repeat, speed)
    if tracer is not None:
        record["spans"] = tracer.metrics(repeat.wall_s, sim_cycles)
        record["absent"] = list(tracer.absent)
    from perfbench.checks import check, load_golden

    record.update(check(repeat, load_golden(), reference=tracer is not None))
    return record


def main(argv: List[str]) -> int:
    record = run(json.loads(argv[1]))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
