"""Unit tests for the closed-form window automaton's pieces.

The differential suite (tests/sim/test_window_equivalence.py) proves
the window path end-to-end; these tests pin the pieces in isolation — the
same-row run segmentation the arithmetic charges off, the kernel's bulk
ledger deposit API (and its error paths), and the system-level rule
that every fast run, ``capture_data`` and logged runs included, builds
the window automaton.
"""

from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.params import SystemParams
from repro.pva import system as system_module
from repro.pva.schedule import pairs_schedule
from repro.pva.window import WindowBankAutomaton
from repro.api import build_system
from repro.kernels import build_trace, kernel_by_name
from repro.sim.kernel import SimKernel
from repro.sim.runner import SimulationLimits, Watchdog
from repro.types import AccessType, Vector, VectorCommand


class TestRunSegmentation:
    """The run_end markers are the closed form's unit of charge: each
    element's run_end is where its maximal same-(internal bank, row)
    span ends, never past its bank's slice."""

    def _table(self, pairs):
        params = SystemParams(sim_mode="fast")
        system = build_system("pva-sdram", params)
        automaton = WindowBankAutomaton(
            system.banks,
            SimpleNamespace(
                outstanding={},
                fully_issued=[],
                commands=(),
                next_cmd=0,
                next_issue_allowed=0,
            ),
            SimpleNamespace(busy_until=0),
            params,
            kernel=None,
        )
        # Bank 0 owns nothing, bank 1 owns ``pairs``: the runs must be
        # positioned in the shared table, not from zero.
        return pairs_schedule(((), tuple(pairs)), automaton._geom)

    def _runs(self, table):
        start, end = table.offsets[1], table.offsets[2]
        runs = []
        p = start
        while p < end:
            runs.append((p, table.run_end[p]))
            p = table.run_end[p]
        return runs

    def test_partition_is_exact(self):
        table = self._table((word, word) for word in range(6))
        runs = self._runs(table)
        # Runs abut, cover the slice, and every element of a run shares
        # its run's end.
        assert runs[0][0] == table.offsets[1]
        assert runs[-1][1] == table.offsets[2]
        for (_, end), (start, _) in zip(runs, runs[1:]):
            assert end == start
        for start, end in runs:
            assert end > start
            assert table.run_end[start:end] == (end,) * (end - start)

    def test_boundaries_follow_next_same_row(self):
        # A large stride hops rows every element: all runs length 1.
        table = self._table((word * 4096, word) for word in range(5))
        for j in range(len(table)):
            same_row = j + 1 < len(table) and (
                table.ibanks[j + 1],
                table.rows[j + 1],
            ) == (table.ibanks[j], table.rows[j])
            assert (table.run_end[j] > j + 1) == same_row
        assert self._runs(table) == [(j, j + 1) for j in range(5)]

    def test_single_element(self):
        table = self._table([(7, 0)])
        assert table.run_end == (1,)
        assert table.ib_end == (1,)

    def test_empty(self):
        # A command no bank owns an element of still gets a table: its
        # slices are empty and partition into no runs.
        table = self._table([])
        assert table.offsets == (0, 0, 0)
        assert table.run_end == ()
        assert table.ib_end == ()
        assert self._runs(table) == []


def _kernel():
    return SimKernel(
        watchdog=Watchdog(
            1,
            system="test",
            limits=SimulationLimits(max_cycles_per_command=4096),
        )
    )


class _Span:
    """Minimal self-accounting component: owns one ledger entry and
    contributes nothing at finalize (bulk deposits only)."""

    name = "span-unit"
    ledger_names = ("span",)

    def tick(self, cycle):
        return False

    def next_event_cycle(self, cycle):
        from repro.sim.events import HORIZON

        return HORIZON

    def account(self, start, end):
        return (0, 0, end - start)

    def finalize_ledger(self, total_cycles):
        from repro.sim.stats import ComponentCycles

        return {"span": ComponentCycles()}

    def done(self):
        return True


class TestBulkAccount:
    def test_deposits_accumulate(self):
        kernel = _kernel()
        kernel.register(_Span())
        kernel.bulk_account("span", busy=5, stalled=2)
        kernel.bulk_account("span", busy=1, idle=3)
        entry = kernel._ledger["span"]
        assert (entry.busy, entry.stalled, entry.idle) == (6, 2, 3)

    def test_unknown_entry_rejected(self):
        kernel = _kernel()
        with pytest.raises(ConfigurationError, match="unknown ledger"):
            kernel.bulk_account("nobody", busy=1)

    def test_negative_delta_rejected(self):
        kernel = _kernel()
        kernel.register(_Span())
        with pytest.raises(ConfigurationError, match="negative delta"):
            kernel.bulk_account("span", busy=-1)

    def test_rejected_after_finalize(self):
        kernel = _kernel()
        kernel.register(_Span())
        kernel.run(lambda: True)
        kernel.finalize(kernel.cycle)
        with pytest.raises(ConfigurationError, match="finalized"):
            kernel.bulk_account("span", busy=1)


class TestBackendSelection:
    """sim_mode="fast" builds the window automaton for every run:
    capture_data reads gather their values on either of its paths, and
    a logged run's batches take the walk, which logs each command."""

    TRACE = [
        VectorCommand(
            vector=Vector(base=3, stride=19, length=16),
            access=AccessType.READ,
        )
    ]

    def _chosen(self, monkeypatch, *, capture_data=False, logs=False):
        chosen = []

        class SpyWindow(WindowBankAutomaton):
            def __init__(self, *args, **kwargs):
                chosen.append("window")
                super().__init__(*args, **kwargs)

        class SpyBank(system_module._BankComponent):
            def __init__(self, *args, **kwargs):
                chosen.append("object")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(system_module, "WindowBankAutomaton", SpyWindow)
        monkeypatch.setattr(system_module, "_BankComponent", SpyBank)
        system = build_system("pva-sdram", SystemParams(sim_mode="fast"))
        if logs:
            system.attach_command_logs()
        system.run(self.TRACE, capture_data=capture_data)
        return chosen

    def test_plain_run_uses_window(self, monkeypatch):
        assert self._chosen(monkeypatch) == ["window"]

    def test_capture_data_uses_window(self, monkeypatch):
        assert self._chosen(monkeypatch, capture_data=True) == ["window"]

    def test_logged_run_uses_window(self, monkeypatch):
        assert self._chosen(monkeypatch, logs=True) == ["window"]

    def test_fallback_matches_window_cycles(self):
        params = SystemParams(sim_mode="fast")
        a = build_system("pva-sdram", params).run(
            self.TRACE, capture_data=True
        )
        b = build_system("pva-sdram", params).run(
            self.TRACE, capture_data=False
        )
        assert a.cycles == b.cycles
        assert a.attribution == b.attribution


class TestChainResolution:
    """The override actually fires: a dense eligible run resolves at
    least one chain arithmetically (bound fast-forwarded past the event
    walk's single-step cadence)."""

    def test_dense_run_resolves_chains(self, monkeypatch):
        resolved = []
        original = WindowBankAutomaton._resolve

        def spy(self, b, now, h):
            outcome = original(self, b, now, h)
            resolved.append(outcome)
            return outcome

        monkeypatch.setattr(WindowBankAutomaton, "_resolve", spy)
        params = SystemParams(sim_mode="fast")
        trace = build_trace(
            kernel_by_name("copy"), stride=19, elements=256, params=params
        )
        build_system("pva-sdram", params).run(trace)
        assert 0 in resolved  # _RESOLVED commits happened


class TestNoReferenceCycles:
    def test_fast_run_leaves_nothing_for_the_cyclic_gc(self):
        """Every fast run's system graph (banks, devices, front end,
        automaton) is freed by reference counting: the window automaton
        drops its kernel back-reference at writeback."""
        import gc

        params = SystemParams(sim_mode="fast")
        trace = build_trace(
            kernel_by_name("copy"), stride=19, elements=128, params=params
        )
        gc.collect()
        gc.disable()
        try:
            for capture_data in (False, True):
                build_system("pva-sdram", params).run(
                    trace, capture_data=capture_data
                )
                assert gc.collect() == 0, capture_data
        finally:
            gc.enable()
