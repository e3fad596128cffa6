"""Correctness checks of one repeat.

Every point that raised or failed a check counts as failed; a check on
the workload's whole output (a cycle digest, the headline ratios, the
replay hit ratio) fails every point of the repeat.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

__all__ = [
    "GOLDEN_PATH",
    "PAPER_HEADLINE",
    "load_golden",
    "headline",
    "check",
]

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Systems the analytic lower bound applies to.
PVA_SYSTEMS = ("pva-sdram", "pva-sram")

#: The grid slice the repository's headline numbers are pinned on.
HEADLINE_KERNELS = ("copy", "scale", "swap")

#: The abstract's claims.  The reproduction's pinned values differ (see
#: EXPERIMENTS.md); both are printed so the model-accuracy gap stays
#: visible beside every speed number.
PAPER_HEADLINE = {
    "max_speedup_vs_cacheline": 32.8,
    "max_speedup_vs_gathering": 3.3,
    "worst_sram_gap_pct": 15.0,
}

#: Every n-th executed point is re-simulated under the reference backend.
REFERENCE_EVERY = 16

_MAX_NOTES = 5


def load_golden() -> Dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def headline(grid) -> Dict[str, float]:
    """The headline ratios of ``grid`` on :data:`HEADLINE_KERNELS`."""
    from repro.experiments.grid import GridResults
    from repro.experiments.headline import headline_ratios

    sub = GridResults(
        params=grid.params,
        elements=grid.elements,
        kernels=HEADLINE_KERNELS,
        strides=grid.strides,
        alignments=grid.alignments,
        systems=grid.systems,
        cycles=grid.cycles,
    )
    summary = headline_ratios(sub).summary()
    return {name: summary[name] for name in PAPER_HEADLINE}


def _golden_entry(repeat, golden: Dict) -> Optional[Dict]:
    """The pinned outputs for this repeat's size, workload and seed, if
    any (gather-scatter pins seeds 1 and 2 only)."""
    entries = golden.get(repeat.size, {})
    if repeat.name in ("paper-grid", "paper-grid-pool"):
        return entries.get("paper-grid")
    if repeat.name == "explore-sweep":
        return entries.get("explore-sweep")
    return entries.get("gather-scatter", {}).get(str(repeat.seed))


def _point_problem(outcome, bounds: Dict) -> Optional[str]:
    """Why one point's output is wrong, or None."""
    from repro.analysis.model import pva_lower_bound
    from repro.engine import build_point_trace

    label = outcome.point.describe()
    attribution = outcome.attribution
    if not attribution:
        return f"{label}: no cycle attribution"
    for name, buckets in attribution.items():
        total = buckets["busy"] + buckets["stalled"] + buckets["idle"]
        if total != outcome.cycles:
            return (
                f"{label}: {name} attribution sums to {total}, "
                f"not {outcome.cycles} cycles"
            )
    if outcome.point.system in PVA_SYSTEMS:
        key = (outcome.point.trace, outcome.point.params)
        if key not in bounds:
            bounds[key] = pva_lower_bound(
                build_point_trace(outcome.point), outcome.point.params
            )
        if outcome.cycles < bounds[key]:
            return f"{label}: {outcome.cycles} cycles beat the bound {bounds[key]}"
    return None


def _reference_problems(repeat) -> Dict:
    """Re-simulate every :data:`REFERENCE_EVERY`-th executed point under
    the reference backend; a cycle or attribution difference fails it."""
    from dataclasses import replace

    from repro.api import build_system
    from repro.config import SIM_MODES
    from repro.engine import build_point_trace

    mode = "reference" if "reference" in SIM_MODES else "tick"
    chosen = sorted(repeat.executed(), key=lambda o: o.index)[::REFERENCE_EVERY]
    problems = {}
    for outcome in chosen:
        point = outcome.point
        result = build_system(
            point.system, replace(point.params, sim_mode=mode)
        ).run(build_point_trace(point))
        if (
            result.cycles != outcome.cycles
            or result.attribution_summary() != outcome.attribution
        ):
            problems[id(outcome)] = (
                f"{point.describe()}: {mode} backend gives {result.cycles} "
                f"cycles, {point.params.sim_mode} gave {outcome.cycles}"
            )
    return {"mode": mode, "checked": len(chosen), "problems": problems}


def check(repeat, golden: Dict, reference: bool = False) -> Dict:
    """Check one executed repeat; return ``attempted``, ``failed`` and
    human-readable ``notes`` (plus ``reference`` counts if asked)."""
    attempted = repeat.points or repeat.expected_points()
    digests = repeat.digests()
    verdict: Dict = {"attempted": attempted, "digests": digests, "notes": []}
    notes: List[str] = verdict["notes"]
    if repeat.error is not None:
        notes.append(f"the program raised {repeat.error}")
        verdict["failed"] = attempted
        return verdict

    outcomes = repeat.hooks.outcomes
    problems: Dict[int, str] = {}
    bounds: Dict = {}
    for outcome in outcomes:
        problem = _point_problem(outcome, bounds)
        if problem is not None:
            problems[id(outcome)] = problem
    if repeat.name == "paper-grid-pool":
        for outcome in outcomes[len(outcomes) // 2 :]:
            if not outcome.cached:
                problems.setdefault(
                    id(outcome), f"{outcome.point.describe()}: replay missed the cache"
                )
    if reference:
        resim = _reference_problems(repeat)
        verdict["reference"] = {
            "mode": resim["mode"],
            "checked": resim["checked"],
            "mismatched": len(resim["problems"]),
        }
        for key, problem in resim["problems"].items():
            problems.setdefault(key, problem)

    whole: List[str] = []
    if len(set(digests)) != 1:
        whole.append(f"cycle digests disagree: {digests}")
    entry = _golden_entry(repeat, golden)
    if entry is not None:
        if digests and digests[0] != entry["digest"]:
            whole.append(
                f"cycle digest {digests[0]} differs from the pinned "
                f"{entry['digest']}"
            )
        if "headline" in entry and repeat.grids:
            measured = headline(repeat.grids[0])
            verdict["headline"] = measured
            if measured != entry["headline"]:
                whole.append(
                    f"headline ratios {measured} differ from the pinned "
                    f"{entry['headline']}"
                )
        if "prune_fraction" in entry and repeat.report is not None:
            if round(repeat.report["prune_fraction"], 6) != entry["prune_fraction"]:
                whole.append(
                    f"prune fraction {repeat.report['prune_fraction']} differs "
                    f"from the pinned {entry['prune_fraction']}"
                )
    for failure in repeat.hooks.failures:
        whole.append(f"point failed: {failure.describe()}")

    notes.extend(whole)
    notes.extend(list(problems.values())[:_MAX_NOTES])
    if len(problems) > _MAX_NOTES:
        notes.append(f"... and {len(problems) - _MAX_NOTES} more failed points")
    verdict["failed"] = attempted if whole else min(attempted, len(problems))
    return verdict
