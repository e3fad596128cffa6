"""Extension experiment: a dense stride sweep (1..32) beyond the paper's
six sample points, on the alignment-proof ``scale`` kernel.

This fills in the curve the paper samples: the PVA's cost is a step
function of ``2**s`` (the trailing-zero count of the stride mod M), flat
at the bus bound for every odd stride and climbing only at the
power-of-two cliffs — while the conventional system's cost climbs with
the raw stride."""

from benchmarks.conftest import run_once
from repro.experiments.grid import stride_sweep


def test_extended_stride_sweep(benchmark, write_artifact):
    rows, text = run_once(benchmark, stride_sweep)
    write_artifact("extended_stride_sweep.txt", text)

    by_stride = {r[0]: r for r in rows}
    # Equal parallelism class => equal PVA cost: all odd strides match.
    odd_cycles = {by_stride[s][2] for s in range(1, 33, 2)}
    assert len(odd_cycles) == 1
    # The cliffs: cost non-decreasing as parallelism halves.
    assert by_stride[16][2] >= by_stride[8][2] >= by_stride[4][2]
    assert by_stride[4][2] >= by_stride[2][2] >= by_stride[1][2]
    # Stride 32 ( == 2M ) hits a single bank like stride 16.
    assert by_stride[32][1] == 1
    # The conventional system instead tracks the raw stride.
    assert by_stride[31][3] > by_stride[16][3] > by_stride[4][3]
