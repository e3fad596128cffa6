"""Ablation: vector-context window depth (DESIGN.md item 3).

The prototype carries four VCs; this sweep shows what the reordering
window buys at each stride class."""

from benchmarks.conftest import run_once
from repro.experiments.ablations import ablate_vector_contexts


def test_vector_context_ablation(benchmark, write_artifact):
    rows, text = run_once(benchmark, ablate_vector_contexts)
    write_artifact("ablation_vector_contexts.txt", text)

    for kernel, stride, one, two, four, eight in rows:
        # Deeper windows never hurt materially...
        assert four <= one * 1.05, (stride, one, four)
        # ...and 8 contexts add little over the prototype's 4 (the bus
        # limits outstanding work).
        assert eight >= four * 0.9, (stride, four, eight)
