"""Wall-clock benchmark harness for the simulation core.

``python -m repro bench`` times the two PVA systems (``pva-sdram`` and
``pva-sram``) under both simulation backends over the same workload —
``sim_mode="reference"`` (the bank-controller object graph, every cycle
visited) and the default ``sim_mode="fast"`` (the structure-of-arrays
bank automaton, idle cycles jumped) — and reports simulated cycles per
second for each plus the reference-over-fast wall-clock speedup.  The
serial baselines do not read ``sim_mode``, so timing them would compare
the same code with itself; they are not benchmarked.  The workload is the
stride-19 slice of the section-6.2 evaluation grid (every kernel x
every alignment), the densest bank-conflict case in the paper, plus a
sparse scenario: a finite-rate processor (``issue_interval``) that
leaves idle gaps between commands.

Every report carries the resolved canonical config document
(``config``/``config_key``, from :meth:`SystemParams.to_dict`).

The harness also cross-checks correctness for free: both backends must
report identical total cycle counts and per-component attribution
ledgers, or the run aborts — a benchmark of a wrong simulator is
worthless.

Methodology notes:

* traces are built outside the timed region; the timer covers system
  construction plus simulation, the same work either backend does;
* each (system, mode) measurement is repeated ``repeats`` times and the
  **best** wall time is kept (the usual minimum-of-N noise filter);
* the ``REPRO_SIM_MODE`` environment override is suspended for the
  duration so the backends really are what they claim to be;
* every speedup is a ratio of two timings from the same run, so it
  tracks the simulator rather than the host's speed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.api import build_system
from repro.errors import ConfigurationError
from repro.experiments.grid import EVAL_KERNELS
from repro.kernels import ALIGNMENTS, build_trace, kernel_by_name
from repro.params import ENV_SIM_MODE, SystemParams

__all__ = [
    "BENCH_SYSTEMS",
    "HEADLINE_STRIDE",
    "run_bench",
    "format_bench",
    "history_record",
    "main",
]

#: The systems the benchmark times: the two whose banks ``sim_mode``
#: selects a backend for.
BENCH_SYSTEMS = ("pva-sdram", "pva-sram")

#: The grid slice the benchmark times: the paper's worst-case stride.
HEADLINE_STRIDE = 19

#: ``--quick`` workload (CI smoke): two kernels, one alignment.
QUICK_KERNELS = ("copy", "saxpy")

#: Front-end throttle of the sparse scenario (cycles between issues).
SPARSE_ISSUE_INTERVAL = 256


def _cases(quick: bool):
    kernels = QUICK_KERNELS if quick else EVAL_KERNELS
    alignments = ALIGNMENTS[:1] if quick else ALIGNMENTS
    return [(kernel, alignment) for kernel in kernels for alignment in alignments]


def _profile_section(
    profile_dir: str, section: str, system: str, params: SystemParams, traces: List
) -> None:
    """Write a cProfile top-25-cumulative listing for one extra
    (untimed) pass of a bench section to ``profile_dir``.

    Profiling runs *after* the timed repeats on a separate pass, so the
    published numbers are never measured under instrumentation.
    """
    import cProfile
    import io
    import pstats

    os.makedirs(profile_dir, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    for trace in traces:
        build_system(system, params).run(trace)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(25)
    path = os.path.join(profile_dir, f"{section}-{system}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(stream.getvalue())


def _time_mode(
    system: str,
    params: SystemParams,
    traces: List,
    repeats: int,
    *,
    profile_dir: Optional[str] = None,
    section: str = "",
) -> Dict[str, float]:
    """Run the workload under ``params``; return cycles, best wall time,
    and the summed per-component attribution ledger."""
    cycles = None
    best = None
    attribution: Dict[str, Dict[str, int]] = {}
    for repeat in range(max(1, repeats)):
        total = 0
        started = time.perf_counter()
        results = [build_system(system, params).run(trace) for trace in traces]
        elapsed = time.perf_counter() - started
        for result in results:
            total += result.cycles
            if not result.attribution_consistent():
                raise ConfigurationError(
                    f"{system}: per-component attribution does not sum to "
                    f"the run's cycle count — the kernel ledger is broken"
                )
            if repeat == 0 and result.attribution:
                for name, buckets in result.attribution.items():
                    entry = attribution.setdefault(
                        name, {"busy": 0, "stalled": 0, "idle": 0}
                    )
                    for bucket in entry:
                        entry[bucket] += getattr(buckets, bucket)
        if cycles is None:
            cycles = total
        elif total != cycles:
            raise ConfigurationError(
                f"{system}: nondeterministic cycle count across repeats "
                f"({cycles} vs {total})"
            )
        if best is None or elapsed < best:
            best = elapsed
    if profile_dir:
        _profile_section(profile_dir, section or params.sim_mode, system, params, traces)
    return {"cycles": cycles, "seconds": best, "attribution": attribution}


def _compare(
    label: str,
    system: str,
    base: SystemParams,
    traces: List,
    repeats: int,
    profile_dir: Optional[str],
    section: str,
) -> Dict:
    """Time ``traces`` on ``system`` under both backends; raise unless
    they agree on total cycles and the attribution ledger."""
    timed = {}
    for mode in ("reference", "fast"):
        params = replace(base, sim_mode=mode)
        timed[mode] = _time_mode(
            system, params, traces, repeats,
            profile_dir=profile_dir, section=f"{section}{mode}",
        )
    reference, fast = timed["reference"], timed["fast"]
    if reference["cycles"] != fast["cycles"]:
        raise ConfigurationError(
            f"{label}: the reference and fast backends disagree on total "
            f"cycles ({reference['cycles']} vs {fast['cycles']}) — the "
            "fast backend is broken; refusing to benchmark it"
        )
    if reference["attribution"] != fast["attribution"]:
        raise ConfigurationError(
            f"{label}: the reference and fast backends disagree on the "
            "per-component attribution ledger"
        )
    return timed


def _rate(cycles: int, seconds: float) -> float:
    return round(cycles / seconds, 1) if seconds > 0 else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return round(numerator / denominator, 3) if denominator > 0 else 0.0


def _ledger(attribution: Dict) -> Dict:
    return {
        component: dict(buckets)
        for component, buckets in sorted(attribution.items())
    }


def run_bench(
    *,
    elements: int = 1024,
    repeats: int = 3,
    quick: bool = False,
    stride: int = HEADLINE_STRIDE,
    systems: Optional[Sequence[str]] = None,
    params: Optional[SystemParams] = None,
    profile: Optional[str] = None,
) -> Dict:
    """Benchmark the reference backend against the fast one on the
    stride-``stride`` grid slice and the sparse scenario.

    Returns the ``BENCH_sim.json`` document: per-system wall seconds,
    simulated cycles and cycles/second under both backends, the summed
    per-component busy/stalled/idle attribution of the workload, the
    aggregate slice ("grid") totals, the headline ``speedup``
    (reference seconds over fast seconds), and the ``sparse`` section.
    Raises :class:`~repro.errors.ConfigurationError` if the two backends
    disagree on any total cycle count or attribution ledger, or if any
    run's ledger fails to sum to its cycle count.
    """
    names = tuple(systems) if systems else BENCH_SYSTEMS
    unknown = set(names) - set(BENCH_SYSTEMS)
    if unknown:
        raise ConfigurationError(
            f"cannot benchmark system(s) {sorted(unknown)}: the bench "
            f"times {', '.join(BENCH_SYSTEMS)}"
        )
    cases = _cases(quick)

    # Suspend the environment override *before* building any params — a
    # forced global mode must not warp what each section claims to time.
    saved_mode_env = os.environ.pop(ENV_SIM_MODE, None)
    try:
        base = params or SystemParams()
        report: Dict = {
            "benchmark": "reference-vs-fast",
            "stride": stride,
            "elements": elements,
            "repeats": max(1, repeats),
            "quick": quick,
            "kernels": sorted({kernel for kernel, _ in cases}),
            "alignments": sorted({alignment.name for _, alignment in cases}),
            "config": base.to_dict(),
            "config_key": base.config_key(),
            "systems": {},
        }

        totals = {"reference": 0.0, "fast": 0.0}
        for name in names:
            traces = [
                build_trace(
                    kernel_by_name(kernel),
                    stride=stride,
                    params=base,
                    elements=elements,
                    alignment=alignment,
                )
                for kernel, alignment in cases
            ]
            timed = _compare(name, name, base, traces, repeats, profile, "")
            reference, fast = timed["reference"], timed["fast"]
            totals["reference"] += reference["seconds"]
            totals["fast"] += fast["seconds"]
            report["systems"][name] = {
                "simulated_cycles": reference["cycles"],
                "reference_seconds": round(reference["seconds"], 4),
                "fast_seconds": round(fast["seconds"], 4),
                "reference_cycles_per_second": _rate(
                    reference["cycles"], reference["seconds"]
                ),
                "fast_cycles_per_second": _rate(fast["cycles"], fast["seconds"]),
                "speedup": _ratio(reference["seconds"], fast["seconds"]),
                "attribution": _ledger(reference["attribution"]),
            }
        report["grid"] = {
            "reference_seconds": round(totals["reference"], 4),
            "fast_seconds": round(totals["fast"], 4),
        }
        report["speedup"] = _ratio(totals["reference"], totals["fast"])

        # Sparse scenario: a finite-rate processor (issue_interval)
        # leaves real idle gaps between commands.  The dense slice above
        # is bus-limited (events on most cycles); here the reference
        # backend's cost grows with simulated cycles while the fast
        # backend's stays proportional to events.
        sparse_base = replace(base, issue_interval=SPARSE_ISSUE_INTERVAL)
        sparse_traces = [
            build_trace(
                kernel_by_name(kernel),
                stride=stride,
                params=sparse_base,
                elements=elements,
                alignment=alignment,
            )
            for kernel, alignment in _cases(True)
        ]
        sparse = {"reference": 0.0, "fast": 0.0}
        sparse_cycles = 0
        sparse_ledger: Dict[str, Dict[str, int]] = {}
        for name in names:
            timed = _compare(
                f"{name} (issue_interval={SPARSE_ISSUE_INTERVAL})",
                name, sparse_base, sparse_traces, repeats, profile, "sparse-",
            )
            sparse["reference"] += timed["reference"]["seconds"]
            sparse["fast"] += timed["fast"]["seconds"]
            sparse_cycles += timed["reference"]["cycles"]
            for component, buckets in timed["reference"]["attribution"].items():
                entry = sparse_ledger.setdefault(
                    component, {"busy": 0, "stalled": 0, "idle": 0}
                )
                for bucket in entry:
                    entry[bucket] += buckets[bucket]
        if sparse["fast"] > 0:
            report["sparse"] = {
                "issue_interval": SPARSE_ISSUE_INTERVAL,
                "simulated_cycles": sparse_cycles,
                "reference_seconds": round(sparse["reference"], 4),
                "fast_seconds": round(sparse["fast"], 4),
                "speedup": _ratio(sparse["reference"], sparse["fast"]),
                "attribution": _ledger(sparse_ledger),
            }
        return report
    finally:
        if saved_mode_env is not None:
            os.environ[ENV_SIM_MODE] = saved_mode_env


def format_bench(report: Dict) -> str:
    """Render a benchmark report as the CLI's result table."""
    from repro.experiments.report import format_table

    rows = []
    for name, entry in report["systems"].items():
        rows.append(
            (
                name,
                entry["simulated_cycles"],
                f"{entry['reference_seconds']:.2f}",
                f"{entry['fast_seconds']:.2f}",
                f"{entry['fast_cycles_per_second'] / 1000.0:.0f}k",
                f"{entry['speedup']:.2f}x",
            )
        )
    table = format_table(
        (
            "system",
            "sim cycles",
            "reference s",
            "fast s",
            "fast cyc/s",
            "speedup",
        ),
        rows,
    )
    summary = (
        f"stride-{report['stride']} slice ({report['elements']} elements, "
        f"best of {report['repeats']}): "
        f"reference {report['grid']['reference_seconds']:.2f}s, "
        f"fast {report['grid']['fast_seconds']:.2f}s — "
        f"speedup {report['speedup']:.2f}x"
    )
    sparse = report.get("sparse")
    if sparse:
        summary += (
            f"\nthrottled front end (issue_interval="
            f"{sparse['issue_interval']}): "
            f"reference {sparse['reference_seconds']:.2f}s, "
            f"fast {sparse['fast_seconds']:.2f}s — "
            f"speedup {sparse['speedup']:.2f}x"
        )
    return f"{table}\n{summary}"


def history_record(report: Dict) -> Dict:
    """The one-line ``BENCH_history.jsonl`` record for a bench report:
    the headline rates and speedups, small enough to append forever."""
    record: Dict = {
        "quick": report["quick"],
        "elements": report["elements"],
        "repeats": report["repeats"],
        "stride": report["stride"],
        "config_key": report["config_key"],
        "speedup": report["speedup"],
    }
    dense = report["systems"].get("pva-sdram")
    if dense:
        record["reference_cycles_per_second"] = dense[
            "reference_cycles_per_second"
        ]
        record["fast_cycles_per_second"] = dense["fast_cycles_per_second"]
    sparse = report.get("sparse")
    if sparse:
        record["sparse_speedup"] = sparse["speedup"]
    return record


def main(args: argparse.Namespace) -> int:
    """``python -m repro bench`` entry point (invoked from the CLI)."""
    try:
        report = run_bench(
            elements=args.elements,
            repeats=args.repeats,
            quick=args.quick,
            systems=tuple(args.system) if args.system else None,
            profile=getattr(args, "profile", None) or None,
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_bench(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
        # One appended line per published run; suppressed alongside the
        # report itself (--out '') so test invocations never touch the
        # tracked history, and individually via --history ''.
        history = getattr(args, "history", "BENCH_history.jsonl")
        if history:
            record = history_record(report)
            record["date"] = time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            )
            with open(history, "a", encoding="utf-8") as handle:
                json.dump(record, handle, sort_keys=True)
                handle.write("\n")
            print(f"appended {history}", file=sys.stderr)
    if args.min_speedup is not None and report["speedup"] < args.min_speedup:
        print(
            f"error: fast backend speedup {report['speedup']:.3f}x over "
            f"the reference backend, measured in the same run, is below "
            f"the required {args.min_speedup:.3f}x",
            file=sys.stderr,
        )
        return 1
    return 0
