"""Ablation: row-management policy (DESIGN.md item 1).

Compares the prototype's ManageRow heuristic against closed-page,
open-page and an Alpha-21174-style history predictor across the strides
that stress row behaviour."""

from benchmarks.conftest import run_once
from repro.experiments.ablations import ablate_row_policy


def test_row_policy_ablation(benchmark, write_artifact):
    rows, text = run_once(benchmark, ablate_row_policy)
    write_artifact("ablation_row_policy.txt", text)

    by_key = {(r[0], r[1]): r[2:] for r in rows}
    for (kernel, stride), (paper, close, open_, history) in by_key.items():
        # The paper policy is never far off the best alternative.
        best = min(close, open_, history)
        assert paper <= best * 1.15, (kernel, stride, paper, best)
