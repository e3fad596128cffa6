"""Ablation: bank count scaling (DESIGN.md item 5, section 4.3.1).

Sweeps M over {4, 8, 16, 32}: prime-stride performance scales with the
available parallelism while the full-Ki PLA cost grows quadratically —
the trade-off that motivates the K1-PLA design for large systems."""

from benchmarks.conftest import run_once
from repro.experiments.ablations import ablate_bank_scaling


def test_bank_scaling_ablation(benchmark, write_artifact):
    rows, text = run_once(benchmark, ablate_bank_scaling)
    write_artifact("ablation_bank_scaling.txt", text)

    by_banks = {r[0]: r for r in rows}
    # Performance: stride 8 fits in one bank of a 4-bank system but in
    # two banks of a 16-bank one — more banks must help markedly.
    assert by_banks[16][1] < by_banks[4][1]
    assert by_banks[32][1] <= by_banks[16][1]
    # PLA cost: K1 design linear, full-Ki design superlinear.
    assert by_banks[32][2] == 2 * by_banks[16][2]
    assert by_banks[32][3] > 3 * by_banks[16][3]
