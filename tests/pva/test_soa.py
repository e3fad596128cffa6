"""Unit tests for the structure-of-arrays bank automaton internals.

The differential suites (tests/sim/test_*_equivalence.py) prove the
fast backend end-to-end; these tests pin the pieces in isolation — the
min-reduction next-event bound, the broadcast memo's lifecycle and
immutability, the systems the automaton refuses to model, and the
queueing math on degenerate element patterns (stride-0/1 equivalents,
single bank, non-power-of-two bank subsets the automaton itself never
rejects).
"""

from dataclasses import replace
from itertools import count
from types import SimpleNamespace

import pytest

from repro.api import build_system, clear_caches
from repro.errors import ConfigurationError
from repro.kernels import build_trace, kernel_by_name
from repro.params import SystemParams
from repro.pva.schedule import (
    HitTable,
    broadcast_schedules,
    clear_schedule_cache,
    pairs_schedule,
)
from repro.pva.soa import SoaBankAutomaton, soa_cache_info
from repro.pva.system import PVAMemorySystem
from repro.sdram.device import SDRAMDevice
from repro.sim.events import HORIZON
from repro.sram.device import SRAMDevice
from repro.types import Vector


def _automaton(params=None, banks=None):
    """A fresh automaton over a just-built pva-sdram system's banks
    (optionally a subset — the automaton accepts any bank count)."""
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
    selected = system.banks if banks is None else system.banks[:banks]
    return SoaBankAutomaton(selected, front, bus, params)


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
        # Nor does any bank open a staging slot, for reads or writes:
        # the front end's transaction is the automaton's only
        # completion state.
        soa.broadcast_pairs(4, _only(1, ((0, 0),)), True, 0, (9,), None, 0)
        for bank in soa.banks:
            assert len(bank.read_staging) == 0
            assert len(bank.write_staging) == 0

    def test_pending_ledger_settles_idle_up_to_call_cycle(self):
        soa = _automaton()
        soa.broadcast_pairs(0, _only(0, ((3, 0),)), False, 9, None, None, 9)
        assert soa.pending[0]
        assert soa.idle_c[0] == 9
        assert soa.acct[0] == 9

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
        system = build_system("pva-sdram", params)
        geometry = system.banks[0].device.schedule_geometry
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
        system = build_system("pva-sdram", params)
        geometry = system.banks[0].device.schedule_geometry
        vector = trace[0].vector
        table = broadcast_schedules(
            vector.base,
            vector.stride,
            vector.length,
            params.num_banks,
            geometry,
        )
        fields = HitTable.__slots__
        snapshot = [getattr(table, field) for field in fields]
        simulate(trace, params, system="pva-sdram")
        assert [getattr(table, field) for field in fields] == snapshot

    def test_clear_caches_drops_soa_memo(self):
        params = SystemParams()
        system = build_system("pva-sdram", params)
        geometry = system.banks[0].device.schedule_geometry
        broadcast_schedules(0, 5, 16, params.num_banks, geometry)
        assert soa_cache_info().currsize >= 1
        clear_caches()
        assert soa_cache_info().currsize == 0


def _copy_trace(params):
    return build_trace(
        kernel_by_name("copy"), stride=4, elements=32, params=params
    )


class TestUnmodelledSystems:
    """sim_mode="fast" never falls back: a system the automaton does
    not model raises ConfigurationError before the run starts."""

    def test_custom_device_model_raises(self):
        class Custom(SDRAMDevice):
            pass

        params = SystemParams(sim_mode="fast")
        system = PVAMemorySystem(
            params,
            device_factory=lambda p: Custom(
                p.sdram, bus_turnaround=p.bus_turnaround
            ),
        )
        trace = _copy_trace(params)
        with pytest.raises(ConfigurationError, match='sim_mode="reference"'):
            system.run(trace)
        # The reference backend drives any device model, and this one
        # behaves exactly like the stock SDRAM.
        system.params = replace(params, sim_mode="reference")
        stock = build_system("pva-sdram", system.params).run(trace)
        assert system.run(trace).cycles == stock.cycles

    def test_mixed_device_models_raise(self):
        banks = count()

        def factory(p):
            # Bank 0 gets an SRAM, every other bank the stock SDRAM.
            if next(banks) == 0:
                return SRAMDevice()
            return SDRAMDevice(p.sdram)

        params = SystemParams(sim_mode="fast")
        system = PVAMemorySystem(params, device_factory=factory)
        with pytest.raises(ConfigurationError, match="one device model"):
            system.run(_copy_trace(params))

    def test_queued_work_raises_until_reset(self):
        params = SystemParams(sim_mode="fast")
        system = build_system("pva-sdram", params)
        trace = _copy_trace(params)
        system.banks[0].broadcast(
            txn_id=0,
            vector=Vector(base=0, stride=1, length=8),
            is_write=False,
            cycle=0,
        )
        with pytest.raises(ConfigurationError, match=r"reset\(\)"):
            system.run(trace)
        system.reset()
        fresh = build_system("pva-sdram", params).run(trace)
        assert system.run(trace) == fresh

    def test_logged_run_records_its_commands(self):
        params = SystemParams(sim_mode="fast")
        system = build_system("pva-sdram", params)
        logs = system.attach_command_logs()
        result = system.run(_copy_trace(params))
        assert result.cycles > 0
        assert any(log.commands() for log in logs)
