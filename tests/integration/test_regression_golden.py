"""Golden cycle-count regression tests.

The simulator is deterministic; these exact counts (256-element vectors,
prototype configuration, 'aligned' placement) pin its timing behaviour so
refactors that unintentionally change scheduling are caught immediately.
If a deliberate timing-model change lands, regenerate with the command in
the docstring of ``test_golden_cycle_counts`` and update both the table
and EXPERIMENTS.md.
"""

import dataclasses

import pytest

from repro.baselines.pva_sram import make_pva_sram
from repro.kernels import build_trace, kernel_by_name
from repro.params import SystemParams
from repro.pva.system import PVAMemorySystem
from repro.types import AccessType

#: (kernel, stride) -> (pva_sdram_cycles, pva_sram_cycles)
GOLDEN = {
    ("copy", 1): (293, 293),
    ("copy", 8): (327, 295),
    ("copy", 16): (583, 529),
    ("copy", 19): (293, 293),
    ("saxpy", 1): (443, 443),
    ("saxpy", 8): (464, 445),
    ("saxpy", 16): (847, 785),
    ("saxpy", 19): (443, 443),
    ("swap", 1): (597, 597),
    ("swap", 8): (655, 591),
    ("swap", 16): (1167, 1041),
    ("swap", 19): (597, 597),
    ("tridiag", 1): (589, 589),
    ("tridiag", 8): (624, 589),
    ("tridiag", 16): (1135, 1041),
    ("tridiag", 19): (589, 589),
}


@pytest.mark.parametrize("kernel,stride", sorted(GOLDEN))
def test_golden_cycle_counts(kernel, stride):
    """Regenerate with::

        python -c "from repro import *; from repro.kernels import *;
        [print(k, s, PVAMemorySystem().run(build_trace(kernel_by_name(k),
        stride=s, elements=256)).cycles) for k in (...) for s in (...)]"
    """
    params = SystemParams()
    trace = build_trace(
        kernel_by_name(kernel), stride=stride, params=params, elements=256
    )
    expected_sdram, expected_sram = GOLDEN[(kernel, stride)]
    assert PVAMemorySystem(params).run(trace).cycles == expected_sdram
    assert make_pva_sram(params).run(trace).cycles == expected_sram


def test_determinism():
    """Two identical runs produce identical results in every field."""
    params = SystemParams()
    trace = build_trace(
        kernel_by_name("vaxpy"), stride=16, params=params, elements=256
    )
    a = PVAMemorySystem(params).run(trace)
    b = PVAMemorySystem(params).run(trace)
    assert a.cycles == b.cycles
    assert a.command_latencies == b.command_latencies
    assert a.device == b.device


def _ledger(front_end, vector_bus, banks, completion):
    """A full attribution ledger in its entry order, from
    (busy, stalled, idle) rows."""
    rows = [("front-end", front_end), ("vector-bus", vector_bus)]
    rows += [(f"bank-{bank}", row) for bank, row in enumerate(banks)]
    rows.append(("completion", completion))
    return [
        (name, dict(zip(("busy", "stalled", "idle"), row)))
        for name, row in rows
    ]


#: case -> (kernel, stride, system, reads only, SystemParams overrides,
#: SDRAM timing overrides, the run's full attribution ledger).  The
#: differential suites compare the backends with each other, so they
#: cannot see a wrong front-end, vector-bus or completion entry (both
#: backends share those components); these values pin them.
PINNED_LEDGERS = {
    # Bank 0 stalls behind its own row misses; the front end ends on
    # one idle cycle, after the last write retires.
    "saxpy-16-sdram": (
        "saxpy", 16, "pva-sdram", False, {}, {},
        _ledger(
            (45, 801, 1), (445, 0, 402),
            [(811, 35, 1)] + [(0, 0, 847)] * 15,
            (24, 823, 0),
        ),
    ),
    "saxpy-16-sram": (
        "saxpy", 16, "pva-sram", False, {}, {},
        _ledger(
            (45, 739, 1), (445, 0, 340),
            [(781, 3, 1)] + [(0, 0, 785)] * 15,
            (24, 761, 0),
        ),
    ),
    # A throttled front end: the completion phase and the banks go idle
    # between commands.
    "copy-19-issue-interval": (
        "copy", 19, "pva-sdram", False, {"issue_interval": 256}, {},
        _ledger(
            (32, 3833, 1), (303, 0, 3563),
            [(48, 208, 3610)] * 16,
            (16, 264, 3586),
        ),
    ),
    # Reads only: the run ends on the last STAGE_READ transfer, after
    # the loop has exited.
    "copy-4-reads": (
        "copy", 4, "pva-sdram", True, {}, {},
        _ledger(
            (16, 133, 0), (144, 0, 5),
            ([(65, 2, 82)] + [(0, 0, 149)] * 3) * 4,
            (8, 124, 17),
        ),
    ),
    # Every bank refreshes once, mid-run.
    "scale-8-refresh": (
        "scale", 8, "pva-sdram", False, {}, {"refresh_interval": 200},
        _ledger(
            (24, 271, 0), (295, 0, 0),
            ([(270, 17, 8)] + [(1, 0, 294)] * 7) * 2,
            (16, 272, 7),
        ),
    ),
}


@pytest.mark.parametrize("sim_mode", ["reference", "fast"])
@pytest.mark.parametrize("case", sorted(PINNED_LEDGERS))
def test_pinned_attribution(case, sim_mode):
    """Every ledger value and the entry order, under both backends."""
    kernel, stride, system, reads_only, overrides, sdram, ledger = (
        PINNED_LEDGERS[case]
    )
    params = SystemParams(sim_mode=sim_mode, **overrides)
    params = dataclasses.replace(
        params, sdram=dataclasses.replace(params.sdram, **sdram)
    )
    trace = build_trace(
        kernel_by_name(kernel), stride=stride, params=params, elements=256
    )
    if reads_only:
        trace = [c for c in trace if c.access is AccessType.READ]
    memory = (
        PVAMemorySystem(params)
        if system == "pva-sdram"
        else make_pva_sram(params)
    )
    assert list(memory.run(trace).attribution_summary().items()) == ledger
