"""Differential suite, ``capture_data`` runs: ``sim_mode="fast"``'s
structure-of-arrays automaton against ``sim_mode="reference"`` on runs
that gather their read values.

The automaton's walk (:mod:`repro.pva.soa`) gathers each read's values
into the transaction's line by element index, a burst at a time or a
column at a time.  The fast run must reproduce the
reference's :class:`~repro.sim.stats.RunResult` bit for bit — total
cycles, captured data payloads, per-bank statistics and the
per-component attribution ledger — and leave the same memory image.
These tests sweep the paper's strides and alignments, fuzzed geometries
and timings, runs forced to visit every cycle, and back-to-back runs on
one system object (bank state carried in the automaton's arrays).  The
harness lives in
:mod:`tests.sim.differential`.
"""

from __future__ import annotations

import random

import pytest

from repro.kernels import ALIGNMENTS, KERNELS
from repro.params import SystemParams

from .differential import (
    PVA_SYSTEMS,
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
    unit and worst-case strides, payloads captured."""
    params = SystemParams()
    for stride in (1, 19):
        for alignment in ALIGNMENTS:
            trace = kernel_trace(params, kernel, stride, alignment=alignment)
            (result,) = assert_equivalent(
                paths, system, params, trace, capture_data=True
            )
            assert result.read_lines  # the comparison saw payloads


@pytest.mark.parametrize("system", PVA_SYSTEMS)
def test_tick_loop_equivalence(paths, system, monkeypatch):
    """The automaton does not care how the loop advances: forced to
    visit every cycle its captured payloads still match the
    reference."""
    loops = RunLoopSpy(monkeypatch)
    loops.force_tick = True
    params = SystemParams()
    (result,) = assert_equivalent(
        paths, system, params, kernel_trace(params, "saxpy"), capture_data=True
    )
    assert result.cycles > 0
    assert loops.loops == ["tick", "tick"]


def test_explicit_commands_equivalent(paths):
    """Explicit scatters and gathers snoop through the broadcast pairs;
    both backends agree on cycles and captured data."""
    for system in PVA_SYSTEMS:
        assert_equivalent(
            paths, system, SystemParams(), SCATTER_GATHER, capture_data=True
        )


def test_sram_storage_equality_after_writes(paths):
    """After a write-heavy run the devices hold identical contents (the
    automaton writes through the devices' own storage dicts)."""
    for system in PVA_SYSTEMS:
        assert_equivalent(
            paths, system, SystemParams(), WRITE_HEAVY, capture_data=True
        )


def test_fuzzed_geometries_and_state_carry(paths, monkeypatch):
    """Randomized geometries, timings, policies, refresh, context and
    FIFO depths, both PVA systems, one trial in five forced to visit
    every cycle, two traces back to back on one system object (the
    automaton must carry its bank state into the second run exactly as
    the object graph does)."""
    loops = RunLoopSpy(monkeypatch)
    rng = random.Random(20260808)
    for trial in range(60):
        loops.force_tick = rng.random() >= 0.8
        params = random_params(rng)
        system = rng.choice(PVA_SYSTEMS)
        traces = (random_trace(rng), random_trace(rng))
        assert_equivalent(paths, system, params, *traces, capture_data=True)
