"""Differential suite, plain runs: ``sim_mode="fast"`` against
``sim_mode="reference"``.

The fast backend steps every bank of a run as one structure-of-arrays
automaton (:mod:`repro.pva.soa`): it runs each bank's event chain ahead
to the next broadcast and issues whole same-row runs as bursts.  Its
observable :class:`~repro.sim.stats.RunResult` and memory image must
be bit-identical to the reference's.  These tests sweep the paper's
strides and alignments, adversarial geometries (refresh deadlines
landing mid-chain, degenerate stride-1 runs, single-bank and
single-internal-bank devices), the row policies, interleaved and
multichannel front ends, runs forced to visit every cycle, back-to-back
runs on one system object, and — in the fuzz loop — plain, logged and
``capture_data`` runs at once.  The harness lives in
:mod:`tests.sim.differential`.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.api import build_system
from repro.errors import ConfigurationError
from repro.interleave.schemes import InterleaveScheme
from repro.kernels import ALIGNMENTS, KERNELS
from repro.params import SDRAMTiming, SystemParams
from repro.pva.rowpolicy import ClosePolicy, OpenPolicy
from repro.types import AccessType, ExplicitCommand, Vector, VectorCommand

from .differential import (
    PVA_SYSTEMS,
    ROW_POLICIES,
    SCATTER_GATHER,
    WRITE_HEAVY,
    RunLoopSpy,
    assert_equivalent,
    kernel_trace,
    random_params,
    random_trace,
    spy_on_bank_paths,
)


@pytest.fixture(autouse=True)
def paths(monkeypatch):
    return spy_on_bank_paths(monkeypatch)


@pytest.mark.parametrize("system", PVA_SYSTEMS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_paper_sweep_bit_identical(paths, system, kernel):
    """Every kernel x alignment of the section-6.2 grid slice at the
    unit and worst-case strides."""
    params = SystemParams()
    for stride in (1, 19):
        for alignment in ALIGNMENTS:
            trace = kernel_trace(params, kernel, stride, alignment=alignment)
            assert_equivalent(paths, system, params, trace)


@pytest.mark.parametrize("system", PVA_SYSTEMS)
def test_tick_loop_equivalence(paths, system, monkeypatch):
    """The automaton does not care how the loop advances: forced to
    visit every cycle it still matches the reference."""
    loops = RunLoopSpy(monkeypatch)
    loops.force_tick = True
    params = SystemParams()
    (result,) = assert_equivalent(
        paths, system, params, kernel_trace(params, "saxpy")
    )
    assert result.cycles > 0
    assert loops.loops == ["tick", "tick"]


def test_explicit_commands_equivalent(paths):
    """Explicit scatters and gathers snoop the broadcast address stream
    instead of evaluating FirstHit."""
    for system in PVA_SYSTEMS:
        assert_equivalent(paths, system, SystemParams(), SCATTER_GATHER)


def test_repeated_words_in_one_command(paths):
    """An explicit command may name one word twice.  The scatter's
    later element wins, and the gather reads that value back at every
    index naming the word, on every path."""
    addresses = (3, 19, 3, 64, 19, 3)
    trace = [
        ExplicitCommand(
            addresses=addresses,
            access=AccessType.WRITE,
            broadcast_cycles=3,
            data=(10, 20, 30, 40, 50, 60),
        ),
        ExplicitCommand(
            addresses=addresses, access=AccessType.READ, broadcast_cycles=3
        ),
    ]
    for system in PVA_SYSTEMS:
        assert_equivalent(paths, system, SystemParams(), trace)
        (result,) = assert_equivalent(
            paths, system, SystemParams(), trace, capture_data=True
        )
        assert result.read_lines == [(60, 50, 60, 40, 50, 60)]


@pytest.mark.parametrize("capture_data", [False, True])
def test_same_cycle_completions_retire_in_trace_order(paths, capture_data):
    """Both reads' data lands in cycle 13, but the younger one's last
    element issues on a lower-numbered bank, so the banks hand it to
    the completion phase first.  The reads must still stage, and so
    return, in trace order."""
    trace = [
        ExplicitCommand(
            addresses=(42717, 60690, 36178, 5042, 37743),
            access=AccessType.READ,
            broadcast_cycles=1,
        ),
        VectorCommand(
            vector=Vector(base=12805, stride=4, length=15),
            access=AccessType.READ,
        ),
    ]
    (result,) = assert_equivalent(
        paths, "pva-sdram", SystemParams(), trace, capture_data=capture_data
    )
    assert result.command_latencies == [31, 47]


def test_sram_storage_equality_after_writes(paths):
    """A write-heavy trace leaves the same memory image behind."""
    for system in PVA_SYSTEMS:
        assert_equivalent(paths, system, SystemParams(), WRITE_HEAVY)


def test_refresh_deadline_lands_mid_chain(paths):
    """A refresh interval short enough to expire inside a service chain
    caps the walk's bursts at the deadline; the refresh must still land
    on the same cycle.  Strides 8 and 16 give same-row runs long enough
    to straddle a deadline (at stride 19 they are too short to test
    the cap)."""
    params = SystemParams(sdram=SDRAMTiming(refresh_interval=40, t_rfc=7))
    quiet = SystemParams()
    for stride in (8, 16):
        (result,) = assert_equivalent(
            paths, "pva-sdram", params, kernel_trace(params, "saxpy", stride)
        )
        # Total cycles can hide the refresh, but the bank ledger cannot:
        # the cadence really perturbed the run.
        baseline = build_system("pva-sdram", quiet).run(
            kernel_trace(quiet, "saxpy", stride)
        )
        assert result.attribution["bank-0"] != baseline.attribution["bank-0"]


def test_degenerate_shapes(paths):
    """A single external bank and a single internal bank per device each
    bound the run partition; stride 1 gives single-run chains."""
    for params in (
        SystemParams(),
        SystemParams(num_banks=1),
        SystemParams(sdram=SDRAMTiming(internal_banks=1)),
    ):
        for stride in (1, 19):
            trace = kernel_trace(params, stride=stride, elements=128)
            assert_equivalent(paths, "pva-sdram", params, trace)


def test_non_power_of_two_internal_banks_unconstructible():
    """The SDRAM timing model only admits power-of-two internal bank
    counts, so a 3-bank device — a shape whose interleaving the fast
    backend was never validated against — cannot be constructed at
    all.  Documented here so the gap is explicit, not silent."""
    base = SystemParams()
    with pytest.raises(ConfigurationError):
        replace(base, sdram=replace(base.sdram, internal_banks=3))


@pytest.mark.parametrize("policy", ROW_POLICIES)
def test_row_policies(paths, policy):
    """The walk issues whole same-row runs as bursts under the paper
    and open policies, which cannot close a row before its run ends;
    close and history take one column per probe.  Open and close
    answer every auto-precharge with a fixed decision, and history is
    asked at every column."""
    params = SystemParams(
        row_policy=policy, sdram=SDRAMTiming(refresh_interval=700)
    )
    for kernel, stride in (("saxpy", 19), ("scale", 1), ("swap", 4)):
        trace = kernel_trace(params, kernel, stride, elements=128)
        assert_equivalent(paths, "pva-sdram", params, trace)


@pytest.mark.parametrize("policy", (OpenPolicy, ClosePolicy), ids=["open", "close"])
def test_fixed_answer_policies_are_never_asked(paths, monkeypatch, policy):
    """Open never closes a row and close always does, so the fast walk
    uses that answer and never calls their ``decide``; the reference
    asks at every column, and the two backends still agree."""
    asked = []
    decide = policy.decide

    def spy(self, *args, **kwargs):
        asked.append(args or kwargs)
        return decide(self, *args, **kwargs)

    monkeypatch.setattr(policy, "decide", spy)
    params = SystemParams(
        row_policy=policy.name, sdram=SDRAMTiming(refresh_interval=700)
    )
    traces = [kernel_trace(params, "saxpy", 19, elements=128), SCATTER_GATHER]
    fast = build_system("pva-sdram", replace(params, sim_mode="fast"))
    for trace in traces:
        fast.run(trace)
    assert asked == []
    assert_equivalent(paths, "pva-sdram", params, *traces)
    assert asked


def test_multichannel(paths):
    params = SystemParams(num_channels=2, ranks_per_channel=2)
    for system in PVA_SYSTEMS:
        assert_equivalent(paths, system, params, kernel_trace(params, "saxpy"))


@pytest.mark.parametrize(
    "capture_data, logs",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["False", "True", "False-logs", "True-logs"],
)
@pytest.mark.parametrize(
    "interleave",
    [InterleaveScheme.cache_line(4, 8), InterleaveScheme(num_banks=4, block_words=2)],
    ids=["cache-line", "block"],
)
def test_interleaved_systems(paths, interleave, capture_data, logs):
    """The section-4.1.3 logical-bank front end feeds pre-partitioned
    element lists to the banks; with ``capture_data`` the automaton
    gathers the read lines by element index, and with command logs
    attached the walk records the same command streams."""
    params = SystemParams(
        num_banks=4, cache_line_words=8, sdram=SDRAMTiming(row_words=64)
    )
    for stride in (1, 3, 8):
        trace = kernel_trace(params, "saxpy", stride, elements=64)
        assert_equivalent(
            paths, "pva-sdram", params, trace, SCATTER_GATHER,
            interleave=interleave, capture_data=capture_data, logs=logs,
        )


def test_back_to_back_runs(paths):
    """Each run starts from the state the previous one left (open rows,
    restimers, refresh phase, FHC occupancy)."""
    params = SystemParams(sdram=SDRAMTiming(refresh_interval=250))
    traces = [
        kernel_trace(params, kernel, stride, elements=96)
        for kernel, stride in (("copy", 19), ("scale", 1), ("vaxpy", 4))
    ]
    for system in PVA_SYSTEMS:
        assert_equivalent(paths, system, params, *traces)


def test_fuzzed_all_four_paths(paths, monkeypatch):
    """Randomized geometries, timings, policies, refresh cadences that
    expire mid-chain, context and FIFO depths, both PVA systems, one
    trial in five forced to visit every cycle, two traces back to back
    on one system object — every trial checked three ways against the
    reference: a plain
    run, a run with command logs attached and a ``capture_data``
    run."""
    loops = RunLoopSpy(monkeypatch)
    rng = random.Random(20260809)
    for trial in range(40):
        loops.force_tick = rng.random() >= 0.8
        params = random_params(rng)
        system = rng.choice(PVA_SYSTEMS)
        traces = (random_trace(rng), random_trace(rng))
        for path in ({}, {"logs": True}, {"capture_data": True}):
            assert_equivalent(paths, system, params, *traces, **path)
