"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``info``
    Print the prototype configuration.
``run``
    Run one kernel/stride/alignment point on one or more memory systems.
``grid``
    Run any (sub-)grid of the section-6.2 evaluation through the
    parallel experiment engine (``--jobs N``) with optional result
    caching (``--cache DIR``).
``figure``
    Regenerate one of the paper's figures (7, 8, 9, 10, 11).
``ablation``
    Run one of the ablation sweeps (row-policy, vector-contexts, bypass,
    banks).
``complexity``
    Print the Table 1 complexity comparison.
``explore``
    Sweep ``SystemParams`` axes, prune designs with analytic lower
    bounds, and print the cycles-vs-complexity Pareto frontier.
``sweep``
    Dense stride sweep of one kernel: PVA against cache-line serial.
``all``
    Write the 14 evaluation artifacts (figures 7-11, table 1, headline,
    ablations, alignment study) into a directory; the other seven
    ``results/`` tables come only from ``benchmarks/``.

Engine subcommands (``grid``, ``figure``, ``ablation``, ``explore``,
``all``) accept ``--jobs``/``--cache``.  A failing point aborts the
command with its own exception, a dead worker process with
``PointFailedError``, and a runaway simulation is stopped by the
simulation watchdog (``SimulationTimeout``).  Corrupt entries in a
``--cache`` directory are moved to its ``quarantine/`` subdirectory and
re-simulated; the ``[engine]`` line counts them.  An invalid
configuration (a non-positive stride, element count, ``--max-stride``
or ``--jobs``) prints one ``error:`` line and exits 2.

Examples::

    python -m repro run --kernel copy --stride 19
    python -m repro grid --jobs 4 --cache .engine-cache
    python -m repro figure 9 --elements 256 --jobs 4
    python -m repro ablation row-policy
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import available_systems
from repro.engine import EngineHooks, ExperimentEngine
from repro.errors import ConfigurationError
from repro.experiments.ablations import (
    ablate_bank_scaling,
    ablate_bypass_paths,
    ablate_row_policy,
    ablate_vector_contexts,
)
from repro.experiments.complexity import complexity_table
from repro.experiments.figures import FIGURE_GRIDS, run_figure
from repro.experiments.grid import (
    EVAL_KERNELS,
    EVAL_STRIDES,
    run_grid,
    run_point,
    stride_sweep,
)
from repro.experiments.report import format_table
from repro.kernels import ALIGNMENTS, alignment_by_name
from repro.params import SystemParams

__all__ = ["main", "build_parser"]

_ABLATIONS = {
    "row-policy": ablate_row_policy,
    "vector-contexts": ablate_vector_contexts,
    "bypass": ablate_bypass_paths,
    "banks": ablate_bank_scaling,
}


class _MetricsLine(EngineHooks):
    """Prints the engine's throughput/caching summary after each batch
    (to stderr, keeping result tables clean on stdout)."""

    def batch_complete(self, metrics):
        quarantined = ""
        if metrics.cache_quarantined:
            quarantined = f", {metrics.cache_quarantined} quarantined"
        throughput = ""
        if metrics.sim_seconds > 0:
            throughput = (
                f", {metrics.sim_cycles_per_second / 1000.0:.1f}k "
                f"sim-cycles/s"
            )
        print(
            f"[engine] {metrics.points_done} points "
            f"({metrics.simulated} simulated, "
            f"cache hit rate {metrics.cache_hit_rate:.0%}) "
            f"in {metrics.elapsed_seconds:.2f}s — "
            f"{metrics.points_per_second:.1f} points/s, "
            f"{metrics.jobs} job{'s' if metrics.jobs != 1 else ''}"
            f"{throughput}{quarantined}",
            file=sys.stderr,
        )
        if metrics.component_cycles:
            # Collapse the per-bank components into one aggregate line
            # item; the full per-bank ledger stays in summary().
            collapsed: dict = {}
            for name, buckets in metrics.component_cycles.items():
                label = "banks" if name.startswith("bank-") else name
                entry = collapsed.setdefault(
                    label, {"busy": 0, "stalled": 0, "idle": 0}
                )
                for bucket in entry:
                    entry[bucket] += buckets[bucket]
            parts = []
            for name, buckets in sorted(collapsed.items()):
                total = (
                    buckets["busy"] + buckets["stalled"] + buckets["idle"]
                )
                busy = buckets["busy"] / total if total else 0.0
                parts.append(f"{name} {busy:.0%} busy")
            print(
                "[engine] attribution: " + ", ".join(parts),
                file=sys.stderr,
            )


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the experiment engine (default: 1)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="directory for the content-addressed result cache",
    )


def _engine_from(args: argparse.Namespace) -> ExperimentEngine:
    return ExperimentEngine(
        jobs=args.jobs,
        cache_dir=args.cache,
        hooks=_MetricsLine(),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Parallel Vector Access (PVA) reproduction — run the paper's "
            "experiments from the command line."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the prototype configuration")

    run_parser = sub.add_parser("run", help="run one experiment point")
    run_parser.add_argument(
        "--kernel", default="copy", choices=sorted(EVAL_KERNELS)
    )
    run_parser.add_argument("--stride", type=int, default=1)
    run_parser.add_argument(
        "--alignment",
        default=ALIGNMENTS[0].name,
        choices=[a.name for a in ALIGNMENTS],
    )
    run_parser.add_argument("--elements", type=int, default=1024)
    run_parser.add_argument(
        "--system",
        action="append",
        choices=sorted(available_systems()),
        help="memory system(s) to run (default: all four)",
    )

    grid_parser = sub.add_parser(
        "grid",
        help="run a (sub-)grid of the evaluation through the engine",
    )
    grid_parser.add_argument(
        "--kernel",
        action="append",
        choices=sorted(EVAL_KERNELS),
        help="kernel(s) to run (default: all eight)",
    )
    grid_parser.add_argument(
        "--stride",
        action="append",
        type=int,
        help="stride(s) to run (default: 1 2 4 8 16 19)",
    )
    grid_parser.add_argument(
        "--alignment",
        action="append",
        choices=[a.name for a in ALIGNMENTS],
        help="alignment(s) to run (default: all five)",
    )
    grid_parser.add_argument(
        "--system",
        action="append",
        choices=sorted(available_systems()),
        help="memory system(s) to run (default: all four)",
    )
    grid_parser.add_argument("--elements", type=int, default=1024)
    _add_engine_options(grid_parser)

    figure_parser = sub.add_parser(
        "figure", help="regenerate one of the paper's figures"
    )
    figure_parser.add_argument("number", choices=sorted(FIGURE_GRIDS))
    figure_parser.add_argument("--elements", type=int, default=1024)
    _add_engine_options(figure_parser)

    ablation_parser = sub.add_parser("ablation", help="run an ablation sweep")
    ablation_parser.add_argument("name", choices=sorted(_ABLATIONS))
    _add_engine_options(ablation_parser)

    sub.add_parser(
        "complexity", help="print the Table 1 complexity comparison"
    )

    explore_parser = sub.add_parser(
        "explore",
        help=(
            "design-space exploration: sweep SystemParams axes, prune with "
            "analytic lower bounds, emit the cycles-vs-complexity "
            "Pareto frontier"
        ),
    )
    explore_parser.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="JSON sweep spec (axes + workload); overrides axis flags",
    )
    explore_parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke sweep: 12 banks x contexts x channels points",
    )
    explore_parser.add_argument(
        "--banks", default=None, metavar="LIST",
        help="comma-separated num_banks values, e.g. 4,8,16",
    )
    explore_parser.add_argument(
        "--channels", default=None, metavar="LIST",
        help="comma-separated num_channels values",
    )
    explore_parser.add_argument(
        "--contexts", default=None, metavar="LIST",
        help="comma-separated num_vector_contexts values",
    )
    explore_parser.add_argument(
        "--fifo", default=None, metavar="LIST",
        help="comma-separated request_fifo_depth values",
    )
    explore_parser.add_argument(
        "--line-words", default=None, metavar="LIST",
        help="comma-separated cache_line_words values",
    )
    explore_parser.add_argument(
        "--row-policy", default=None, metavar="LIST",
        help="comma-separated row policies, e.g. paper,close",
    )
    explore_parser.add_argument(
        "--kernel", default=None, choices=sorted(EVAL_KERNELS)
    )
    explore_parser.add_argument("--stride", type=int, default=None)
    explore_parser.add_argument(
        "--alignment",
        default=None,
        choices=[a.name for a in ALIGNMENTS],
    )
    explore_parser.add_argument("--elements", type=int, default=None)
    explore_parser.add_argument(
        "--system", default=None, choices=["pva-sdram", "pva-sram"]
    )
    explore_parser.add_argument(
        "--prune-slack",
        type=float,
        default=None,
        metavar="X",
        help=(
            "also prune candidates whose bound is within X of the best "
            "simulated cycles (0 = exact, frontier-preserving pruning)"
        ),
    )
    explore_parser.add_argument(
        "--min-prune-fraction",
        type=float,
        default=None,
        metavar="X",
        help="exit non-zero unless pruning skipped at least fraction X",
    )
    explore_parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the JSON exploration report here",
    )
    _add_engine_options(explore_parser)

    sweep_parser = sub.add_parser(
        "sweep", help="dense stride sweep on one kernel"
    )
    sweep_parser.add_argument(
        "--kernel", default="scale", choices=sorted(EVAL_KERNELS)
    )
    sweep_parser.add_argument("--max-stride", type=int, default=32)
    sweep_parser.add_argument("--elements", type=int, default=512)

    all_parser = sub.add_parser(
        "all",
        help=(
            "write the 14 evaluation artifacts (figures, table 1, "
            "headline, ablations, alignment study) into a directory"
        ),
    )
    all_parser.add_argument("--out", default="results")
    all_parser.add_argument(
        "--elements",
        type=int,
        default=None,
        metavar="N",
        help=(
            "shrink every experiment to N-element vectors (default: the "
            "sizes the tracked results/ files record)"
        ),
    )
    _add_engine_options(all_parser)

    return parser


def _cmd_info() -> int:
    params = SystemParams()
    rows = list(params.describe().items())
    print(format_table(("parameter", "value"), rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    alignment = alignment_by_name(args.alignment)
    systems = tuple(args.system) if args.system else available_systems()
    cycles = run_point(
        args.kernel,
        stride=args.stride,
        alignment=alignment,
        elements=args.elements,
        systems=systems,
    )
    baseline = min(cycles.values())
    rows = [
        (name, count, f"{count / baseline:.2f}x")
        for name, count in sorted(cycles.items(), key=lambda kv: kv[1])
    ]
    print(
        f"{args.kernel} stride={args.stride} alignment={args.alignment} "
        f"elements={args.elements}"
    )
    print(format_table(("system", "cycles", "vs best"), rows))
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    kernels = tuple(args.kernel) if args.kernel else EVAL_KERNELS
    strides = tuple(args.stride) if args.stride else EVAL_STRIDES
    alignments = (
        tuple(alignment_by_name(name) for name in args.alignment)
        if args.alignment
        else None
    )
    systems = tuple(args.system) if args.system else available_systems()
    grid = run_grid(
        kernels=kernels,
        strides=strides,
        alignments=alignments,
        elements=args.elements,
        systems=systems,
        engine=_engine_from(args),
    )
    headers = ("kernel", "stride", "alignment") + tuple(grid.systems)
    rows = [
        (kernel, stride, alignment)
        + tuple(point[name] for name in grid.systems)
        for (kernel, stride, alignment), point in grid.cycles.items()
    ]
    print(format_table(headers, rows))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    fig = run_figure(args.number, args.elements, _engine_from(args))
    print(fig.text)
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    _, text = _ABLATIONS[args.name](engine=_engine_from(args))
    print(text)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _, text = stride_sweep(args.kernel, args.max_stride, args.elements)
    print(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "info":
            return _cmd_info()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "grid":
            return _cmd_grid(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "ablation":
            return _cmd_ablation(args)
        if args.command == "complexity":
            print(complexity_table(SystemParams()))
            return 0
        if args.command == "explore":
            from repro.explore import main as explore_main

            return explore_main(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "all":
            from repro.experiments.report_all import generate_all

            engine = _engine_from(args)
            written = generate_all(
                out_dir=args.out,
                elements=args.elements,
                progress=print,
                engine=engine,
            )
            print(f"{len(written)} artifacts in {args.out}/")
            return 0
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
