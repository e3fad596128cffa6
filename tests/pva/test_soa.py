"""Unit tests for the structure-of-arrays bank automaton internals.

The differential suites (tests/sim/test_*_equivalence.py) prove the
fast backend end-to-end; these tests pin the pieces in isolation — the
min-reduction next-event bound, the broadcast memo's lifecycle and
immutability, the bank memories a PVA system refuses to model, the
queueing math on degenerate element patterns (stride-0/1 equivalents,
single bank, non-power-of-two bank subsets the automaton itself never
rejects), the rule that a fast system's automaton is the only owner of
its bank state (no bank-controller graph and no device model is ever
built), and that a finished run leaves no reference cycle behind.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.api import build_system
from repro.errors import ConfigurationError
from repro.kernels import build_trace, kernel_by_name
from repro.params import SystemParams
from repro.pva import system as system_module
from repro.pva.bank_controller import BankController
from repro.pva.rowpolicy import (
    ClosePolicy,
    HistoryPolicy,
    OpenPolicy,
    PaperPolicy,
)
from repro.pva.schedule import (
    HitTable,
    broadcast_schedules,
    clear_schedule_cache,
    pairs_schedule,
    schedule_geometry,
)
from repro.pva.soa import SoaBankAutomaton, soa_cache_info
from repro.pva.system import PVAMemorySystem
from repro.sdram.bank import InternalBank
from repro.sdram.device import BankDevice
from repro.sdram.restimer import Restimer
from repro.sim.events import HORIZON
from repro.types import AccessType, Vector, VectorCommand


def _automaton(params=None, banks=None):
    """A fresh automaton, bound to a stub front end and bus, over a
    just-built pva-sdram system's storage and log slots (optionally a
    subset — the automaton accepts any bank count)."""
    params = params or SystemParams(sim_mode="fast")
    system = build_system("pva-sdram", params)
    front = SimpleNamespace(
        outstanding={},
        fully_issued=[],
        commands=(),
        next_cmd=0,
        next_issue_allowed=0,
    )
    bus = SimpleNamespace(busy_until=0)
    n = params.num_banks if banks is None else banks
    soa = SoaBankAutomaton(
        system.storage[:n], system.logs[:n], params, system._pla, params.sdram
    )
    soa.bind(front, bus)
    return soa


class TestNextEventBound:
    def test_min_reduction_over_bound_array(self):
        soa = _automaton()
        for b in range(soa.n):
            soa.bound[b] = 1000 + b
        assert soa.next_event_cycle(0) == 1000

    def test_bound_below_current_cycle_clamps_to_cycle(self):
        # An underestimated bound degrades to a plain tick, never a
        # backwards jump (the kernel contract).
        soa = _automaton()
        for b in range(soa.n):
            soa.bound[b] = 5
        assert soa.next_event_cycle(70) == 70

    def test_single_bank(self):
        soa = _automaton(banks=1)
        assert soa.n == 1
        soa.bound[0] = 42
        assert soa.next_event_cycle(0) == 42

    def test_non_power_of_two_bank_count(self):
        # num_banks is validated to powers of two at the params layer,
        # but the automaton's own math is count-agnostic — future
        # SALP-style models want odd internal splits.
        soa = _automaton(banks=3)
        assert soa.n == 3
        soa.bound[0], soa.bound[1], soa.bound[2] = 90, 7, 800
        assert soa.next_event_cycle(0) == 7

    def test_idle_fresh_system_bound_is_refresh_deadline(self):
        from dataclasses import replace

        base = SystemParams(sim_mode="fast")
        quiet = _automaton(base)
        # No refresh configured: nothing can ever self-wake.
        assert quiet.next_event_cycle(0) == HORIZON
        refreshing = _automaton(
            replace(base, sdram=replace(base.sdram, refresh_interval=780))
        )
        assert refreshing.next_event_cycle(0) == 780


def _only(bank, pairs):
    """A per-bank pair list (16 banks) in which only ``bank`` owns
    elements."""
    return [pairs if b == bank else () for b in range(16)]


class TestQueueMath:
    def test_stride_zero_pattern_queues_every_element(self):
        # pairs_schedule with one repeated local word — the stride-0
        # degenerate the Vector type itself rejects (stride >= 1).
        soa = _automaton()
        pairs = ((7, 0), (7, 1), (7, 2))
        queued = soa.broadcast_pairs(
            0, _only(0, pairs), False, 4, None, None, 4
        )
        assert queued == 3
        entry = soa._rqf[0][0]
        table, start, end = entry[4], entry[5], entry[6]
        assert (start, end) == (0, 3)
        assert table.local_words[start:end] == (7, 7, 7)
        # Explicit snoop timing: ready the cycle after broadcast ends,
        # and the idle bank's next-event bound drops to it.
        assert entry[0] == 5
        assert soa.bound[0] == 5

    def test_stride_one_run_marks_same_row(self):
        soa = _automaton()
        pairs = tuple((word, word) for word in range(4))
        table = pairs_schedule(_only(1, pairs), soa._geom)
        # Four consecutive words on one row: one run to the slice's end
        # — the burst fast path's precondition.
        assert table.run_end == (4, 4, 4, 4)
        queued = soa.broadcast_pairs(
            0, _only(1, pairs), False, 0, None, None, 0
        )
        assert queued == 4
        assert soa._rqf[1][0][5:] == (0, 4)

    def test_empty_schedule_queues_nothing(self):
        soa = _automaton()
        queued = soa.broadcast_pairs(
            3, _only(2, ()), False, 0, None, None, 0
        )
        assert queued == 0
        assert not soa._rqf[2]
        assert soa.bound[2] == HORIZON
        # Nor does a write queue anything on the banks that own none of
        # its elements: the automaton keeps no staging slots, and the
        # front end's transaction is its only completion state.
        soa.broadcast_pairs(4, _only(1, ((0, 0),)), True, 0, (9,), None, 0)
        assert [len(rqf) for rqf in soa._rqf] == [0, 1] + [0] * 14
        assert not any(soa._win)

    def test_pending_ledger_settles_idle_up_to_call_cycle(self):
        soa = _automaton()
        soa.broadcast_pairs(0, _only(0, ((3, 0),)), False, 9, None, None, 9)
        # Idle from the run's start to the call cycle, then no open idle
        # span: the bank is stalled until it acts.
        assert soa.idle_c[0] == 9
        assert soa.idle_since[0] == -1
        assert soa.idle_since[1] == 0

    def test_explicit_broadcast_builds_one_table_for_all_banks(self):
        soa = _automaton()
        addresses = (5, 21, 6, 5)
        queued = soa.broadcast_explicit(0, addresses, False, 2, None, 2)
        assert queued == 4
        (five,) = soa._rqf[5]
        (six,) = soa._rqf[6]
        assert five[4] is six[4]
        table = five[4]
        # Bank 5 owns indices 0, 1 and 3 (word 0 named twice), in index
        # order; bank 6 owns index 2.
        assert table.indices[five[5]:five[6]] == (0, 1, 3)
        assert table.local_words[five[5]:five[6]] == (0, 1, 0)
        assert table.indices[six[5]:six[6]] == (2,)


class TestBroadcastMemo:
    def test_memo_returns_shared_tuple(self):
        clear_schedule_cache()
        params = SystemParams()
        geometry = schedule_geometry(params.sdram)
        first = broadcast_schedules(0, 19, 64, params.num_banks, geometry)
        again = broadcast_schedules(0, 19, 64, params.num_banks, geometry)
        assert first is again
        assert soa_cache_info().hits >= 1
        assert len(first.offsets) == params.num_banks + 1

    def test_memo_entries_not_mutated_by_runs(self):
        from repro.kernels import build_trace, kernel_by_name
        from repro.api import simulate

        clear_schedule_cache()
        params = SystemParams(sim_mode="fast")
        trace = build_trace(
            kernel_by_name("copy"), stride=19, elements=64, params=params
        )
        simulate(trace, params, system="pva-sdram")
        assert soa_cache_info().currsize >= 1
        # Snapshot the cached table's contents, run again, compare: the
        # automaton must treat the shared tables as read-only.
        vector = trace[0].vector
        hits = soa_cache_info().hits
        table = broadcast_schedules(
            vector.base,
            vector.stride,
            vector.length,
            params.num_banks,
            schedule_geometry(params.sdram),
        )
        assert soa_cache_info().hits == hits + 1  # the run's own table
        fields = HitTable.__slots__
        snapshot = [getattr(table, field) for field in fields]
        simulate(trace, params, system="pva-sdram")
        assert [getattr(table, field) for field in fields] == snapshot

    def test_clear_caches_drops_soa_memo(self):
        params = SystemParams()
        geometry = schedule_geometry(params.sdram)
        broadcast_schedules(0, 5, 16, params.num_banks, geometry)
        assert soa_cache_info().currsize >= 1
        clear_schedule_cache()
        assert soa_cache_info().currsize == 0


def _copy_trace(params):
    return build_trace(
        kernel_by_name("copy"), stride=4, elements=32, params=params
    )


class TestUnmodelledSystems:
    """A PVA system models two bank memories, SDRAM and SRAM, under both
    backends: any other ``memory`` raises ConfigurationError when the
    system is built, never falls back."""

    def test_unknown_memory_raises(self):
        for mode in ("reference", "fast"):
            with pytest.raises(ConfigurationError, match="memory must be"):
                PVAMemorySystem(SystemParams(sim_mode=mode), memory="dram")

    def test_logged_run_records_its_commands(self):
        params = SystemParams(sim_mode="fast")
        system = build_system("pva-sdram", params)
        logs = system.attach_command_logs()
        result = system.run(_copy_trace(params))
        assert result.cycles > 0
        assert any(log.commands() for log in logs)


class TestBackendSelection:
    """sim_mode="fast" builds the SoA automaton once, with the system,
    and every run binds it: plain, capture_data and logged runs all take
    the same walk."""

    TRACE = [
        VectorCommand(
            vector=Vector(base=3, stride=19, length=16),
            access=AccessType.READ,
        )
    ]

    def _chosen(self, monkeypatch, *, capture_data=False, logs=False):
        chosen = []

        class SpySoa(SoaBankAutomaton):
            def __init__(self, *args, **kwargs):
                chosen.append("soa")
                super().__init__(*args, **kwargs)

            def bind(self, *args):
                chosen.append("soa run")
                super().bind(*args)

        class SpyBank(system_module._BankComponent):
            def __init__(self, *args, **kwargs):
                chosen.append("object")
                super().__init__(*args, **kwargs)

            def bind(self, *args):
                chosen.append("object run")
                super().bind(*args)

        monkeypatch.setattr(system_module, "SoaBankAutomaton", SpySoa)
        monkeypatch.setattr(system_module, "_BankComponent", SpyBank)
        system = build_system("pva-sdram", SystemParams(sim_mode="fast"))
        if logs:
            system.attach_command_logs()
        system.run(self.TRACE, capture_data=capture_data)
        return chosen

    def test_plain_run_uses_soa(self, monkeypatch):
        assert self._chosen(monkeypatch) == ["soa", "soa run"]

    def test_capture_data_uses_soa(self, monkeypatch):
        chosen = self._chosen(monkeypatch, capture_data=True)
        assert chosen == ["soa", "soa run"]

    def test_logged_run_uses_soa(self, monkeypatch):
        assert self._chosen(monkeypatch, logs=True) == ["soa", "soa run"]

    def test_capture_data_matches_plain_cycles(self):
        params = SystemParams(sim_mode="fast")
        a = build_system("pva-sdram", params).run(
            self.TRACE, capture_data=True
        )
        b = build_system("pva-sdram", params).run(
            self.TRACE, capture_data=False
        )
        assert a.cycles == b.cycles
        assert a.attribution == b.attribution


class TestOneOwner:
    """A fast system's automaton is the only owner of its bank state:
    no bank-controller graph exists beside it to copy from or to."""

    def test_fast_system_builds_no_bank_controller(self, monkeypatch):
        built = []
        original = BankController.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(BankController, "__init__", spy)
        params = SystemParams(sim_mode="fast")
        trace = _copy_trace(params)
        system = build_system("pva-sdram", params)
        system.run(trace)
        system.run(trace, capture_data=True)
        system.attach_command_logs()
        system.run(trace)
        system.reset()
        system.run(trace)
        assert built == []
        assert not hasattr(system, "banks")
        # The spy does see the reference backend build its graph.
        reference = build_system(
            "pva-sdram", replace(params, sim_mode="reference")
        )
        assert built == reference.banks
        assert len(built) == params.num_banks

    def test_fast_system_builds_no_device_model(self, monkeypatch):
        built = {}
        for model in (BankDevice, InternalBank, Restimer):
            built[model] = []

            def spy(self, *args, _model=model, _init=model.__init__, **kwargs):
                built[_model].append(self)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(model, "__init__", spy)
        params = SystemParams(sim_mode="fast")
        trace = _copy_trace(params)
        for name in ("pva-sdram", "pva-sram"):
            system = build_system(name, params)
            system.run(trace)
            system.run(trace, capture_data=True)
            system.attach_command_logs()
            system.run(trace)
            system.reset()
            system.run(trace)
            assert not any(built.values()), name
            with pytest.raises(AttributeError):
                system.devices
        # The spies do see a reference system build one device per
        # bank, each over the system's own storage dict and timed by its
        # memory's record; only the SDRAM devices build internal banks.
        reference = replace(params, sim_mode="reference")
        for name, timing in (
            ("pva-sdram", params.sdram),
            ("pva-sram", params.sram),
        ):
            del built[BankDevice][:]
            system = build_system(name, reference)
            assert built[BankDevice] == system.devices
            assert len(system.devices) == params.num_banks
            for bank, device in enumerate(system.devices):
                assert device.storage is system.storage[bank]
                assert device.timing is timing
        assert len(built[InternalBank]) == (
            params.num_banks * params.sdram.internal_banks
        )

    def test_fast_system_builds_only_the_policy_state_its_walk_reads(
        self, monkeypatch
    ):
        """Only the history policy is asked through policy objects, one
        per bank; the paper policy's predictor lives in the automaton,
        open and close have fixed answers, and a rowless memory never
        auto-precharges."""
        built = []
        for policy in (PaperPolicy, ClosePolicy, OpenPolicy, HistoryPolicy):
            def spy(self, *args, _init=policy.__init__, **kwargs):
                built.append(type(self))
                _init(self, *args, **kwargs)

            monkeypatch.setattr(policy, "__init__", spy)
        trace = _copy_trace(SystemParams())
        for row_policy in ("paper", "open", "close", "history"):
            params = SystemParams(sim_mode="fast", row_policy=row_policy)
            for name in ("pva-sdram", "pva-sram"):
                expected = []
                if name == "pva-sdram" and row_policy == "history":
                    expected = [HistoryPolicy] * params.num_banks
                del built[:]
                system = build_system(name, params)
                system.run(trace)
                assert built == expected, (name, row_policy)
                del built[:]
                system.reset()
                system.run(trace)
                assert built == expected, (name, row_policy)
        # The spies do see the reference scheduler build one per bank.
        del built[:]
        reference = SystemParams(sim_mode="reference", row_policy="history")
        build_system("pva-sram", reference)
        assert built == [HistoryPolicy] * reference.num_banks

    def test_reset_builds_the_bank_side_of_the_current_mode(self):
        system = build_system(
            "pva-sdram", SystemParams(sim_mode="reference")
        )
        assert [bank.device for bank in system.banks] == system.devices
        system.params = replace(system.params, sim_mode="fast")
        system.reset()
        assert not hasattr(system, "banks")
        assert not hasattr(system, "devices")
        assert system.run(_copy_trace(system.params)).cycles > 0


class TestNoReferenceCycles:
    def test_fast_run_leaves_nothing_for_the_cyclic_gc(self, monkeypatch):
        """Every fast system graph (devices, automaton, and each run's
        front end, bus and kernel) is freed by reference counting: the
        automaton holds no reference back to the kernel, and it drops
        the run's front end and bus on every exit from the run, a
        raised one included."""
        import gc

        import repro.sim.runner
        from repro.errors import SimulationTimeout

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
            system = build_system("pva-sdram", params)
            system.attach_command_logs()
            system.run(trace)
            system.run(trace)
            monkeypatch.setattr(repro.sim.runner, "CYCLES_PER_COMMAND", 1)
            with pytest.raises(SimulationTimeout):
                system.run(trace)
            del system
            assert gc.collect() == 0
        finally:
            gc.enable()
