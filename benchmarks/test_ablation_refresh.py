"""Ablation: SDRAM auto-refresh tax (section 2.2) versus refresh period.
The paper's evaluation ignores refresh; this quantifies what that
simplification is worth on a bank-bound workload (scale at stride 16,
where the single busy bank cannot hide the refresh windows)."""

from benchmarks.conftest import run_once
from repro.experiments.ablations import ablate_refresh


def test_refresh_ablation(benchmark, write_artifact):
    rows, text = run_once(benchmark, ablate_refresh)
    write_artifact("ablation_refresh.txt", text)

    by_interval = {r[0]: r[1] for r in rows}
    baseline = by_interval["off"]
    # Realistic refresh costs at most a few percent even on the PVA's
    # worst (single-bank) stride.
    assert by_interval[780] <= baseline * 1.05
    # The tax grows monotonically as the period shrinks.
    assert baseline <= by_interval[780] <= by_interval[200]
    assert by_interval[200] <= by_interval[100] <= by_interval[50]
