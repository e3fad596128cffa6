"""Ablation: the bypass paths of section 5.2.3 (DESIGN.md item 2).

"In the case where a single request is issued to an idle bank controller
the bypass paths significantly help in reducing latency" — measured as
the latency of one isolated vector read, power-of-two and
non-power-of-two strides."""

from benchmarks.conftest import run_once
from repro.experiments.ablations import ablate_bypass_paths


def test_bypass_ablation(benchmark, write_artifact):
    rows, text = run_once(benchmark, ablate_bypass_paths)
    write_artifact("ablation_bypass.txt", text)

    for stride, with_bypass, without, saved in rows:
        assert saved >= 1, (stride, saved)
        assert with_bypass < without
