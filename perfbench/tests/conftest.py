"""Self-tests of the benchmark: ``python -m pytest perfbench/tests``.

They use the ``tiny`` workload sizes and finish in well under a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


@pytest.fixture
def tiny_repeat(tmp_path):
    """Run one tiny repeat in this process; returns the Repeat."""
    from perfbench.workloads import Repeat

    def run(name: str, seed: int = 1, tracer=None):
        repeat = Repeat(name, seed, "tiny", str(tmp_path / f"{name}-{seed}"))
        repeat.setup()
        repeat.prepare()
        if tracer is None:
            repeat.execute()
        else:
            with tracer:
                repeat.execute()
        return repeat

    return run
