"""Ablation: subcommand-generation latency — PVA (<=5 cycles) vs
CVMS-class hardware (15 cycles for non-power-of-two strides, section 3.1).
Shows that under pipelined load the latency hides completely, while a
single request into an idle unit pays it in full."""

from benchmarks.conftest import run_once
from repro.experiments.ablations import ablate_subcommand_latency


def test_subcommand_latency_ablation(benchmark, write_artifact):
    rows, text = run_once(benchmark, ablate_subcommand_latency)
    write_artifact("ablation_subcommand_latency.txt", text)

    by_key = {(r[0], r[1]): r[2:] for r in rows}
    for stride in (8, 19):
        fast, paper, cvms = by_key[(stride, "pipelined")]
        # Pipelined: the FHC latency hides behind scheduler activity.
        assert cvms <= paper * 1.05, (stride, paper, cvms)
        s_fast, s_paper, s_cvms = by_key[(stride, "single request")]
        if stride == 19:  # non-power-of-two: the latency is exposed
            assert s_cvms > s_paper > s_fast
        else:  # power of two: the FHP path never touches the FHC
            assert s_fast == s_paper == s_cvms
