"""The four perfbench workloads, driven through repro's public API.

Every workload is a closed loop from one process: the engine starts the
next point only when a worker frees, with at most ``min(2, nproc)``
workers.  ``--seed`` changes only the gather-scatter inputs; the other
three are the program's fixed experiments.

This module imports nothing from repro at import time, so a worker can
time the program's own import as set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from typing import Dict, List, Optional

__all__ = ["WORKLOADS", "SIZES", "Collector", "Repeat", "pool_jobs", "digest"]

#: name -> why the benchmark runs it (README has the long form).
WORKLOADS: Dict[str, str] = {
    "paper-grid": (
        "the paper's 960-cell evaluation grid as users run it: run_grid() "
        "defaults, one process, no cache; simulation is ~99% of its time"
    ),
    "paper-grid-pool": (
        "the same grid on a 2-worker pool into a fresh cache, then a warm "
        "replay; only the engine layer differs from paper-grid"
    ),
    "explore-sweep": (
        "96-design explore sweep: enumeration, bounds and config keys "
        "dominate, survivors run the window backend on many geometries"
    ),
    "gather-scatter": (
        "seeded random gathers/scatters with explicit addresses, refresh "
        "mid-chain and the open-row policy: the walk and fallback paths"
    ),
}

#: Input sizes.  ``full`` is the benchmark; ``tiny`` keeps the
#: self-tests fast and has no pinned goldens.
SIZES: Dict[str, Dict] = {
    "full": {
        "grid": {},  # run_grid() defaults: 8 kernels x 6 strides x 5 alignments
        "explore_elements": 4096,
        "gs_traces": 96,
        "gs_commands": 256,
    },
    "tiny": {
        "grid": {
            "kernels": ("copy", "saxpy"),
            "strides": (1, 19),
            "alignments": 2,
            "elements": 64,
        },
        "explore_elements": None,  # QUICK_SPEC as shipped
        "gs_traces": 4,
        "gs_commands": 16,
    },
}

#: Address space of the gather-scatter traces, in words.
_GS_SPACE = 1 << 16
_GS_MAX_STRIDE = 64


def pool_jobs() -> int:
    """Workers of the pooled workload: two, or fewer on a smaller host."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(2, cpus))


def digest(material) -> str:
    """Order-sensitive content hash of JSON-able cycle material."""
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class Collector:
    """Engine hooks that keep every point outcome, when it arrived (on
    the monotonic clock) and each engine's
    :class:`~repro.engine.EngineMetrics`."""

    def __init__(self):
        self.outcomes: List = []
        self.arrivals: List[float] = []
        self.failures: List = []
        self.engine_metrics: List = []

    def point_done(self, outcome, metrics) -> None:
        self.outcomes.append(outcome)
        self.arrivals.append(time.monotonic())

    def point_failed(self, failure, metrics) -> None:
        self.failures.append(failure)

    def batch_complete(self, metrics) -> None:
        if all(known is not metrics for known in self.engine_metrics):
            self.engine_metrics.append(metrics)


def gather_scatter_points(seed: int, traces: int, commands: int) -> List:
    """The seeded gather-scatter inputs as engine points.

    Each trace is stratified so that seeds differ only in order and
    addresses, not in mix: exactly half the commands write, a quarter
    (split evenly between reads and writes) are explicit-address
    gathers/scatters of 32 distinct words, and the strided commands
    cycle through strides 1..64.  Even-numbered traces run the paper
    policy with refresh every 780 cycles, odd-numbered ones the open-row
    policy.
    """
    from repro.engine import CommandTraceSpec, ExperimentPoint
    from repro.params import SDRAMTiming, SystemParams
    from repro.types import AccessType, ExplicitCommand, Vector, VectorCommand

    rng = random.Random(seed)
    refreshing = SystemParams(sdram=SDRAMTiming(refresh_interval=780))
    open_rows = SystemParams(row_policy="open")
    line = refreshing.cache_line_words
    explicit_each = commands // 8
    strided_each = commands // 2 - explicit_each
    points = []
    for index in range(traces):
        kinds = (
            [(AccessType.WRITE, True)] * explicit_each
            + [(AccessType.WRITE, False)] * strided_each
            + [(AccessType.READ, True)] * explicit_each
            + [(AccessType.READ, False)] * strided_each
        )
        rng.shuffle(kinds)
        strides = [1 + i % _GS_MAX_STRIDE for i in range(2 * strided_each)]
        rng.shuffle(strides)
        trace = []
        for access, explicit in kinds:
            if explicit:
                trace.append(
                    ExplicitCommand(
                        addresses=tuple(rng.sample(range(_GS_SPACE), line)),
                        access=access,
                        # Two addresses per bus cycle after the command.
                        broadcast_cycles=1 + (line + 1) // 2,
                    )
                )
                continue
            stride = strides.pop()
            base = rng.randrange(_GS_SPACE - (line - 1) * stride)
            trace.append(
                VectorCommand(vector=Vector(base, stride, line), access=access)
            )
        points.append(
            ExperimentPoint(
                system="pva-sdram",
                trace=CommandTraceSpec(tuple(trace), label=f"gs{seed}-{index}"),
                params=refreshing if index % 2 == 0 else open_rows,
            )
        )
    return points


class Repeat:
    """One repeat of one workload in this process.

    :meth:`setup` imports the program and constructs the engine (the
    ``setup_s`` interval), :meth:`prepare` builds inputs outside any
    timing, and :meth:`execute` is the timed phase.  Outcomes and engine
    metrics arrive through :attr:`hooks`.
    """

    def __init__(self, name: str, seed: int, size: str, tmp: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.size = size
        self.tmp = tmp
        self.sizes = SIZES[size]
        self.hooks = Collector()
        self.jobs = pool_jobs() if name == "paper-grid-pool" else 1
        #: Points the workload delivers (grid cells incl. replayed ones,
        #: explore candidates, gather-scatter traces).
        self.points = 0
        self.wall_s = 0.0
        #: The timed phase on the monotonic clock (host-speed samples'
        #: clock, shared by every process).
        self.started = self.ended = 0.0
        self.replay_s = 0.0
        self.grids: List = []  #: GridResults of each grid run
        self.report: Optional[Dict] = None  #: run_explore's report
        self.cycles: Optional[List[int]] = None  #: gather-scatter cycles
        self.error: Optional[str] = None

    # ------------------------------------------------------------- #

    def setup(self) -> None:
        from repro.engine import ExperimentEngine

        if self.name == "explore-sweep":
            from repro import explore

            self._explore = explore
        elif self.name != "gather-scatter":
            from repro.experiments import grid

            self._grid = grid
        self.engine = ExperimentEngine(
            jobs=self.jobs, cache_dir=self._cache_dir(), hooks=self.hooks
        )

    def _cache_dir(self) -> Optional[str]:
        if self.name != "paper-grid-pool":
            return None
        return os.path.join(self.tmp, "engine-cache")

    def prepare(self) -> None:
        sizes = self.sizes
        if self.name == "gather-scatter":
            self._inputs = gather_scatter_points(
                self.seed, sizes["gs_traces"], sizes["gs_commands"]
            )
        elif self.name == "explore-sweep":
            explore = self._explore
            if sizes["explore_elements"] is None:
                self._spec = explore.QUICK_SPEC
            else:
                doc = explore.DEFAULT_SPEC.to_dict()
                doc["elements"] = sizes["explore_elements"]
                self._spec = explore.SweepSpec.from_dict(doc)
        else:
            kwargs = dict(sizes["grid"])
            if "alignments" in kwargs:
                from repro.kernels import ALIGNMENTS

                kwargs["alignments"] = ALIGNMENTS[: kwargs["alignments"]]
            self._grid_kwargs = kwargs

    def execute(self) -> None:
        """The timed phase.  A program error is recorded, not raised:
        the checks then count every point of the repeat as failed."""
        self.started = time.monotonic()
        start = time.perf_counter()
        try:
            self._execute()
        except Exception as error:  # the product failed; report it
            self.error = f"{type(error).__name__}: {error}"
        self.wall_s = time.perf_counter() - start
        self.ended = time.monotonic()

    def _execute(self) -> None:
        if self.name == "gather-scatter":
            self.cycles = list(self.engine.run(self._inputs))
            self.points = len(self.cycles)
        elif self.name == "explore-sweep":
            self.report = self._explore.run_explore(self._spec, engine=self.engine)
            self.points = self.report["candidates"]
        else:
            grid = self._grid
            self.grids.append(grid.run_grid(engine=self.engine, **self._grid_kwargs))
            if self.name == "paper-grid-pool":
                from repro.engine import ExperimentEngine

                started = time.perf_counter()
                replay = ExperimentEngine(
                    jobs=self.jobs, cache_dir=self._cache_dir(), hooks=self.hooks
                )
                self.grids.append(grid.run_grid(engine=replay, **self._grid_kwargs))
                self.replay_s = time.perf_counter() - started
            self.points = sum(
                len(cell) for result in self.grids for cell in result.cycles.values()
            )

    # ------------------------------------------------------------- #

    def expected_points(self) -> int:
        """Points the repeat should deliver, known before running it."""
        if self.name == "gather-scatter":
            return len(self._inputs)
        if self.name == "explore-sweep":
            return math.prod(len(values) for values in self._spec.axes.values())
        grid = self._grid
        kwargs = self._grid_kwargs
        from repro.api import available_systems
        from repro.kernels import ALIGNMENTS

        cells = (
            len(kwargs.get("kernels", grid.EVAL_KERNELS))
            * len(kwargs.get("strides", grid.EVAL_STRIDES))
            * len(kwargs.get("alignments", ALIGNMENTS))
            * len(available_systems())
        )
        return cells * (2 if self.name == "paper-grid-pool" else 1)

    def digests(self) -> List[str]:
        """Cycle digests of the repeat's outputs (one per grid run)."""
        if self.name == "gather-scatter":
            return [digest(self.cycles)] if self.cycles is not None else []
        if self.name == "explore-sweep":
            if self.report is None:
                return []
            # config_key is left out so config-schema bumps keep the digest.
            records = sorted(
                [
                    json.dumps(record["settings"], sort_keys=True),
                    record["cycles"],
                    record["status"],
                    record["pareto"],
                ]
                for record in self.report["points"]
            )
            return [digest(records)]
        return [
            digest(
                sorted(
                    [kernel, stride, alignment, system, cycles]
                    for (kernel, stride, alignment), cell in result.cycles.items()
                    for system, cycles in cell.items()
                )
            )
            for result in self.grids
        ]

    def executed(self) -> List:
        """Outcomes of points this repeat actually simulated."""
        return [o for o in self.hooks.outcomes if not o.cached and not o.coalesced]
