#!/usr/bin/env python3
"""Design-space exploration: the knobs a memory-controller architect
would turn, swept with the library's parametric simulator.

Covers the trade-offs chapter 5 discusses: bank count (parallelism vs
FirstHit PLA cost), vector-context window depth, row-management policy,
and the bypass paths.

Run:  python examples/design_space_exploration.py
"""

from dataclasses import replace

from repro import SystemParams, build_trace, kernel_by_name
from repro.pva import PVAMemorySystem
from repro.core.pla import pla_product_terms
from repro.experiments.ablations import ablate_bypass_paths


def sweep_banks() -> None:
    print("== Bank count: parallelism vs PLA area (stride 19, copy) ==")
    print(
        f"{'banks':>6} {'cycles':>8} {'K1 PLA terms':>13} "
        f"{'full-Ki PLA terms':>18}"
    )
    for banks in (4, 8, 16, 32):
        params = SystemParams(num_banks=banks)
        trace = build_trace(
            kernel_by_name("copy"), stride=19, params=params, elements=512
        )
        cycles = PVAMemorySystem(params).run(trace).cycles
        print(
            f"{banks:>6} {cycles:>8} "
            f"{pla_product_terms(banks, 'k1'):>13} "
            f"{pla_product_terms(banks, 'full_ki'):>18}"
        )
    print()


def sweep_vector_contexts() -> None:
    print("== Vector contexts: reordering window depth (vaxpy) ==")
    print(f"{'stride':>6}" + "".join(f"{n:>8}VC" for n in (1, 2, 4, 8)))
    base = SystemParams()
    for stride in (1, 8, 16, 19):
        row = [f"{stride:>6}"]
        for contexts in (1, 2, 4, 8):
            params = replace(base, num_vector_contexts=contexts)
            trace = build_trace(
                kernel_by_name("vaxpy"),
                stride=stride,
                params=params,
                elements=512,
            )
            row.append(f"{PVAMemorySystem(params).run(trace).cycles:>10}")
        print("".join(row))
    print()


def sweep_row_policy() -> None:
    print("== Row-management policy (scale) ==")
    policies = ("paper", "close", "open", "history")
    print(f"{'stride':>6}" + "".join(f"{p:>10}" for p in policies))
    base = SystemParams()
    for stride in (1, 8, 16, 19):
        row = [f"{stride:>6}"]
        for policy in policies:
            params = replace(base, row_policy=policy)
            trace = build_trace(
                kernel_by_name("scale"),
                stride=stride,
                params=params,
                elements=512,
            )
            row.append(f"{PVAMemorySystem(params).run(trace).cycles:>10}")
        print("".join(row))
    print()


def sweep_bypass() -> None:
    print("== Bypass paths: single-request latency into an idle unit ==")
    rows, text = ablate_bypass_paths(strides=(1, 2, 7, 8, 19))
    print(text)
    print()


def pareto_frontier() -> None:
    """The driver behind ``python -m repro explore``: sweep SystemParams
    axes, prune with analytic lower bounds, report cycles vs. the
    Table-1 complexity score."""
    from repro.explore import SweepSpec, format_explore, run_explore

    print("== Pareto frontier: simulated cycles vs hardware complexity ==")
    spec = SweepSpec(
        axes={
            "num_banks": [4, 8, 16],
            "num_channels": [1, 2],
            "num_vector_contexts": [1, 4],
        },
        kernel="saxpy",
        stride=19,
        elements=256,
    )
    print(format_explore(run_explore(spec)))
    print()


def main() -> None:
    sweep_banks()
    sweep_vector_contexts()
    sweep_row_policy()
    sweep_bypass()
    pareto_frontier()
    print(
        "Observations: closed-page ('close') collapses at single-bank\n"
        "strides; the ManageRow heuristic matches the best policy\n"
        "everywhere; four vector contexts saturate the 8-transaction bus;\n"
        "and doubling banks doubles prime-stride throughput until the\n"
        "vector bus, not the DRAM, is the bottleneck."
    )


if __name__ == "__main__":
    main()
