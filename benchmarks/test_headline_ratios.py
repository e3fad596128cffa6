"""The abstract's headline claims: "up to 32.8 times faster than a
conventional memory system and 3.3 times faster than a pipelined vector
unit, without hurting normal cache line fill performance".

Measured with the honest line-fill accounting (one 20-cycle fill per
distinct line) the conventional-system ceiling lands near 20x; the bench
also reports the per-element-fill variant, under which a stride-19
command costs 32 x 20 = 640 cycles and the paper's 32.8x reappears.  See
EXPERIMENTS.md for the discussion.
"""

from benchmarks.conftest import run_once
from repro.experiments.headline import headline_table


def test_headline(benchmark, write_artifact):
    ratios, paper_style_speedup, text = run_once(benchmark, headline_table)
    write_artifact("headline.txt", text)

    assert ratios.max_speedup_vs_cacheline > 15
    assert paper_style_speedup > 25  # the 32.8x-accounting variant
    assert 2.3 < ratios.max_speedup_vs_gathering < 4.0
    lo, hi = ratios.unit_stride_band
    assert 0.95 <= lo <= hi <= 1.2
    assert ratios.worst_sram_gap <= 0.15
