"""Design-space exploration (``python -m repro explore``).

The paper's section 4.3.1 argues the PVA's hardware cost scales
gracefully while section 6 shows its performance; this driver puts both
on one chart.  Given a declarative sweep over the :class:`SystemParams`
axes (banks, channels, contexts, FIFO depth, line size, row policy...),
it

1. enumerates every axis combination into a validated
   :class:`~repro.params.SystemParams` (invalid combinations are counted
   and reported, not silently dropped),
2. computes each candidate's :func:`~repro.analysis.model.pva_lower_bound`
   (bus occupancy vs. busiest-bank column throughput) and its Table-1
   style :func:`~repro.experiments.complexity.complexity_score`,
3. walks candidates in ascending complexity order and **prunes** any
   whose analytic lower bound already exceeds the best simulated cycle
   count found among cheaper designs — those configs cannot reach the
   frontier, so their cycle-accurate simulations are skipped,
4. simulates the survivors through the parallel
   :class:`~repro.engine.ExperimentEngine` (cached, submission-ordered),
   asserting every simulated result respects its lower bound, and
5. emits the Pareto frontier of simulated cycles vs. complexity score.

With ``prune_slack=0`` the pruning is exact (a skipped design provably
cannot dominate); a positive slack additionally skips designs whose
bound is within ``slack`` of the incumbent, trading completeness for
sweep speed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.analysis.model import pva_lower_bound
from repro.engine import ExperimentEngine, ExperimentPoint, KernelTraceSpec
from repro.errors import ConfigurationError
from repro.experiments.complexity import complexity_score
from repro.experiments.report import format_table
from repro.kernels import alignment_by_name, build_trace, kernel_by_name
from repro.params import SystemParams

__all__ = [
    "SWEEP_AXES",
    "SweepSpec",
    "QUICK_SPEC",
    "DEFAULT_SPEC",
    "enumerate_candidates",
    "run_explore",
    "format_explore",
    "main",
]

#: SystemParams constructor keywords a sweep may vary.  Device timing is
#: deliberately excluded: the explorer compares *microarchitectures*
#: under one memory technology, which is what the Pareto axes assume.
SWEEP_AXES: Tuple[str, ...] = (
    "num_banks",
    "num_channels",
    "cache_line_words",
    "max_transactions",
    "num_vector_contexts",
    "request_fifo_depth",
    "fhc_latency",
    "bus_turnaround",
    "bypass_paths",
    "row_policy",
    "issue_interval",
)

#: Systems the analytic lower bound is valid for.
EXPLORABLE_SYSTEMS: Tuple[str, ...] = ("pva-sdram", "pva-sram")


@dataclass
class SweepSpec:
    """A declarative design-space sweep: axes to vary plus one workload.

    ``axes`` maps a :data:`SWEEP_AXES` name to the list of values to
    try; the sweep is their cartesian product.  The workload fields name
    one section-6.2 kernel trace all candidates run, so cycle counts are
    comparable across the sweep.
    """

    axes: Dict[str, List] = field(default_factory=dict)
    kernel: str = "copy"
    stride: int = 1
    alignment: str = "aligned"
    elements: int = 256
    system: str = "pva-sdram"
    prune_slack: float = 0.0

    def __post_init__(self):
        if not self.axes:
            raise ConfigurationError("sweep spec has no axes to vary")
        for name, values in self.axes.items():
            if name not in SWEEP_AXES:
                raise ConfigurationError(
                    f"unknown sweep axis {name!r}; valid axes: "
                    f"{', '.join(SWEEP_AXES)}"
                )
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigurationError(
                    f"sweep axis {name!r} needs a non-empty list of "
                    f"values, got {values!r}"
                )
        if self.system not in EXPLORABLE_SYSTEMS:
            raise ConfigurationError(
                f"explore needs a PVA system (the analytic lower bound "
                f"models the vector bus), got {self.system!r}"
            )
        # A JSON spec can carry any type, and a bool is an int.
        for name, kind, noun in (
            ("stride", int, "an integer"),
            ("elements", int, "an integer"),
            ("prune_slack", (int, float), "a number"),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ConfigurationError(
                    f"{name} must be {noun}, got {value!r}"
                )
        if self.stride <= 0:
            raise ConfigurationError(
                f"stride must be positive, got {self.stride}"
            )
        if self.elements <= 0:
            raise ConfigurationError(
                f"elements must be positive, got {self.elements}"
            )
        if not self.prune_slack >= 0:  # NaN compares false both ways
            raise ConfigurationError(
                f"prune_slack must be >= 0, got {self.prune_slack}"
            )
        # Fail fast on unknown kernel/alignment names.
        kernel_by_name(self.kernel)
        alignment_by_name(self.alignment)

    def to_dict(self) -> Dict:
        doc = asdict(self)
        doc["axes"] = {k: list(v) for k, v in self.axes.items()}
        return doc

    @classmethod
    def from_dict(cls, doc: Dict) -> "SweepSpec":
        if not isinstance(doc, dict):
            raise ConfigurationError(
                f"sweep spec must be a JSON object, got {type(doc).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown sweep spec key(s): {', '.join(unknown)}; "
                f"valid keys: {', '.join(sorted(known))}"
            )
        return cls(**doc)


#: The ``--quick`` sweep: a 12-point banks x contexts x channels slice
#: on a dense (stride-1) copy, small enough for CI.  The dense workload
#: runs close to its bus bound, so bound-based pruning bites early.
QUICK_SPEC = SweepSpec(
    axes={
        "num_banks": [8, 16],
        "num_vector_contexts": [1, 2, 4],
        "num_channels": [1, 2],
    },
    kernel="copy",
    stride=1,
    alignment="aligned",
    elements=128,
)

#: The default full sweep: 96 microarchitectures on the paper's
#: headline stride-19 saxpy.
DEFAULT_SPEC = SweepSpec(
    axes={
        "num_banks": [4, 8, 16, 32],
        "num_channels": [1, 2],
        "num_vector_contexts": [1, 2, 4],
        "cache_line_words": [16, 32],
        "row_policy": ["paper", "close"],
    },
    kernel="saxpy",
    stride=19,
    alignment="aligned",
    elements=256,
)


@dataclass
class Candidate:
    """One enumerated design point, bounded but not yet simulated."""

    settings: Dict
    params: SystemParams
    elements: int
    complexity: int
    bound: int


def enumerate_candidates(
    spec: SweepSpec,
) -> Tuple[List[Candidate], List[Dict]]:
    """Expand the axes' cartesian product into validated candidates.

    Returns ``(candidates, invalid)`` where ``invalid`` records each
    combination :class:`SystemParams` rejected, with the reason.
    """
    names = list(spec.axes)
    kernel = kernel_by_name(spec.kernel)
    alignment = alignment_by_name(spec.alignment)
    candidates: List[Candidate] = []
    invalid: List[Dict] = []
    for combo in itertools.product(*(spec.axes[n] for n in names)):
        settings = dict(zip(names, combo))
        try:
            params = SystemParams(**settings)
        except ConfigurationError as error:
            invalid.append({"settings": settings, "reason": str(error)})
            continue
        # Traces are chunked into cache-line commands; round the element
        # count up so every line size runs the same (or more) work.
        chunk = params.cache_line_words
        elements = ((spec.elements + chunk - 1) // chunk) * chunk
        trace = build_trace(
            kernel,
            stride=spec.stride,
            params=params,
            elements=elements,
            alignment=alignment,
        )
        candidates.append(
            Candidate(
                settings=settings,
                params=params,
                elements=elements,
                complexity=complexity_score(params),
                bound=pva_lower_bound(trace, params),
            )
        )
    return candidates, invalid


def _record(candidate: Candidate, status: str, cycles: Optional[int]) -> Dict:
    return {
        "settings": candidate.settings,
        "config_key": candidate.params.config_key(),
        "elements": candidate.elements,
        "complexity": candidate.complexity,
        "lower_bound": candidate.bound,
        "cycles": cycles,
        "status": status,
        "pareto": False,
    }


def run_explore(
    spec: SweepSpec, engine: Optional[ExperimentEngine] = None
) -> Dict:
    """Run the sweep; return the JSON-serializable exploration report.

    Raises :class:`ConfigurationError` if any simulated result lands
    below its analytic lower bound — that is a scheduling bug, not a
    design point.
    """
    engine = engine or ExperimentEngine()
    candidates, invalid = enumerate_candidates(spec)
    candidates.sort(key=lambda c: (c.complexity, c.params.config_key()))
    records: List[Dict] = []
    best: Optional[int] = None
    pruned = 0
    # Walk equal-complexity tiers in ascending cost.  A candidate is
    # pruned when some cheaper design already simulated at or under the
    # candidate's lower bound (with slack): it cannot improve on the
    # frontier, so its simulation is skipped.
    for _, group in itertools.groupby(candidates, key=lambda c: c.complexity):
        tier = list(group)
        survivors: List[Candidate] = []
        for candidate in tier:
            threshold = candidate.bound * (1.0 + spec.prune_slack)
            if best is not None and best <= threshold:
                pruned += 1
                records.append(_record(candidate, "pruned", None))
            else:
                survivors.append(candidate)
        if not survivors:
            continue
        points = [
            ExperimentPoint(
                system=spec.system,
                trace=KernelTraceSpec(
                    kernel=spec.kernel,
                    stride=spec.stride,
                    alignment=spec.alignment,
                    elements=candidate.elements,
                ),
                params=candidate.params,
            )
            for candidate in survivors
        ]
        for candidate, cycles in zip(survivors, engine.run(points)):
            if cycles < candidate.bound:
                raise ConfigurationError(
                    f"simulated {cycles} cycles beat the analytic lower "
                    f"bound {candidate.bound} for {candidate.settings} — "
                    f"the bound or the scheduler is wrong"
                )
            records.append(_record(candidate, "simulated", cycles))
            if best is None or cycles < best:
                best = cycles
    records.sort(key=lambda r: (r["complexity"], r["config_key"]))
    # Pareto frontier over the simulated points: ascending complexity,
    # keep each strict improvement in cycles.  Equal-complexity ties
    # contribute at most their cheapest-cycles member (config_key order
    # within a tie is arbitrary, so the walk considers the tie's best,
    # not its first).
    frontier: List[Dict] = []
    incumbent: Optional[int] = None
    for _, group in itertools.groupby(
        (r for r in records if r["status"] == "simulated"),
        key=lambda r: r["complexity"],
    ):
        record = min(group, key=lambda r: r["cycles"])
        if incumbent is None or record["cycles"] < incumbent:
            record["pareto"] = True
            frontier.append(record)
            incumbent = record["cycles"]
    evaluated = len(candidates)
    return {
        "spec": spec.to_dict(),
        "enumerated": evaluated + len(invalid),
        "invalid": len(invalid),
        "invalid_combos": invalid,
        "candidates": evaluated,
        "pruned": pruned,
        "simulated": sum(1 for r in records if r["status"] == "simulated"),
        "prune_fraction": (pruned / evaluated) if evaluated else 0.0,
        "points": records,
        "pareto": frontier,
    }


def format_explore(report: Dict) -> str:
    """Human-readable rendering of :func:`run_explore`'s report."""
    spec = report["spec"]
    axis_names = list(spec["axes"])
    rows = []
    for record in report["points"]:
        cycles = record["cycles"]
        rows.append(
            tuple(record["settings"].get(n, "-") for n in axis_names)
            + (
                record["complexity"],
                record["lower_bound"],
                cycles if cycles is not None else record["status"].upper(),
                "*" if record["pareto"] else "",
            )
        )
    headers = tuple(axis_names) + (
        "complexity",
        "bound",
        "cycles",
        "pareto",
    )
    lines = [
        (
            f"explore: {spec['kernel']} stride={spec['stride']} "
            f"alignment={spec['alignment']} elements={spec['elements']} "
            f"on {spec['system']}"
        ),
        format_table(headers, rows),
        (
            f"{report['enumerated']} enumerated, {report['invalid']} "
            f"invalid, {report['pruned']} pruned by analytic bound "
            f"({report['prune_fraction']:.0%} of {report['candidates']} "
            f"candidates), {report['simulated']} simulated, "
            f"{len(report['pareto'])} on the Pareto frontier"
        ),
    ]
    return "\n".join(lines)


def _spec_from_args(args) -> SweepSpec:
    """Resolve the CLI's spec precedence: --spec file > --quick > axis
    flags, with workload/slack flags overriding whichever base won."""
    if getattr(args, "spec", None):
        with open(args.spec, "r", encoding="utf-8") as handle:
            base = SweepSpec.from_dict(json.load(handle))
    elif getattr(args, "quick", False):
        base = QUICK_SPEC
    else:
        axes = {}
        for flag, axis in (
            ("banks", "num_banks"),
            ("channels", "num_channels"),
            ("contexts", "num_vector_contexts"),
            ("fifo", "request_fifo_depth"),
            ("line_words", "cache_line_words"),
        ):
            values = getattr(args, flag, None)
            if values is not None:
                axes[axis] = []
                for entry in values.split(","):
                    try:
                        axes[axis].append(int(entry))
                    except ValueError:
                        raise ConfigurationError(
                            f"--{flag.replace('_', '-')}: {entry!r} is "
                            "not an integer"
                        ) from None
        if getattr(args, "row_policy", None) is not None:
            axes["row_policy"] = args.row_policy.split(",")
        base = SweepSpec(axes=axes) if axes else DEFAULT_SPEC
    overrides = {}
    for name in ("kernel", "stride", "alignment", "elements", "system"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "prune_slack", None) is not None:
        overrides["prune_slack"] = args.prune_slack
    if overrides:
        doc = base.to_dict()
        doc.update(overrides)
        base = SweepSpec.from_dict(doc)
    return base


def main(args) -> int:
    """Entry point for the ``explore`` subcommand (parser in cli.py)."""
    from repro.cli import _engine_from

    min_prune = getattr(args, "min_prune_fraction", None)
    if min_prune is not None and not 0.0 <= min_prune <= 1.0:  # NaN too
        raise ConfigurationError(
            f"--min-prune-fraction must be in [0, 1], got {min_prune}"
        )
    try:
        spec = _spec_from_args(args)
        report = run_explore(spec, engine=_engine_from(args))
    except (OSError, json.JSONDecodeError) as error:
        import sys

        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_explore(report))
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {out}")
    if min_prune is not None and report["prune_fraction"] < min_prune:
        import sys

        print(
            f"error: prune fraction {report['prune_fraction']:.2f} below "
            f"required {min_prune:.2f}",
            file=sys.stderr,
        )
        return 1
    return 0
