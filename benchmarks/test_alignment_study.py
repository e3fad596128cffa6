"""Extension experiment: alignment sensitivity across the whole grid
(generalizing figure 11 beyond vaxpy)."""

from benchmarks.conftest import run_once
from repro.experiments.alignment import alignment_study


def test_alignment_study(benchmark, write_artifact):
    rows, text = run_once(benchmark, alignment_study)
    write_artifact("alignment_study.txt", text)

    by_point = {(r[0], r[1]): r for r in rows}
    for (kernel, stride), row in by_point.items():
        spread = float(row[3].rstrip("x"))
        parallelism = row[2]
        if parallelism >= 4:
            # High parallelism: alignment moves things by a few percent
            # at most (paper: "differ only by a few percent").
            assert spread <= 1.06, (kernel, stride, spread)
    # And the low-parallelism strides of multi-array kernels show real
    # spread somewhere in the grid.
    max_spread = max(float(r[3].rstrip("x")) for r in rows)
    assert max_spread > 1.5
