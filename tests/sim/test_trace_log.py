"""Tests for the SDRAM command log: both the log object itself and the
sequences it captures from real runs."""

from dataclasses import replace

import pytest

from repro.params import SDRAMTiming, SystemParams
from repro.pva.system import PVAMemorySystem
from repro.sdram.commands import SDRAMCommand
from repro.sim.trace_log import CommandEvent, CommandLog
from repro.types import AccessType, Vector, VectorCommand

SMALL = SystemParams(
    num_banks=4, cache_line_words=8, sdram=SDRAMTiming(row_words=64)
)


class TestCommandLogObject:
    def test_record_and_filter(self):
        log = CommandLog()
        log.record(CommandEvent(0, SDRAMCommand.ACTIVATE, 0, row=1))
        log.record(CommandEvent(2, SDRAMCommand.READ, 0, row=1, column=5))
        log.record(CommandEvent(3, SDRAMCommand.READ_AP, 0, row=1, column=6))
        log.record(CommandEvent(6, SDRAMCommand.PRECHARGE, 1))
        assert len(log) == 4
        assert len(log.activates()) == 1
        assert len(log.columns()) == 2
        assert len(log.auto_precharges()) == 1
        assert len(log.precharges()) == 1

    def test_busy_cycles_counts_distinct(self):
        log = CommandLog()
        log.record(CommandEvent(0, SDRAMCommand.ACTIVATE, 0, row=0))
        log.record(CommandEvent(0, SDRAMCommand.ACTIVATE, 1, row=0))
        log.record(CommandEvent(5, SDRAMCommand.READ, 0, column=0))
        assert log.busy_cycles() == 2

    def test_render(self):
        log = CommandLog()
        log.record(CommandEvent(0, SDRAMCommand.ACTIVATE, 0, row=7))
        text = log.render()
        assert "activate" in text
        assert "row 7" in text

    def test_render_limit(self):
        log = CommandLog()
        for c in range(10):
            log.record(CommandEvent(c, SDRAMCommand.READ, 0, column=c))
        text = log.render(limit=3)
        assert "7 more" in text

    def test_verify_monotone(self):
        log = CommandLog()
        log.record(CommandEvent(5, SDRAMCommand.READ, 0, column=0))
        log.record(CommandEvent(3, SDRAMCommand.READ, 0, column=1))
        with pytest.raises(AssertionError):
            log.verify_monotone()


class TestCapturedSequences:
    def run_with_logs(self, trace):
        system = PVAMemorySystem(SMALL)
        logs = system.attach_command_logs()
        system.run(trace)
        return logs

    def test_activate_precedes_first_column(self):
        trace = [
            VectorCommand(
                vector=Vector(base=0, stride=1, length=8),
                access=AccessType.READ,
            )
        ]
        for log in self.run_with_logs(trace):
            if not log.events:
                continue
            log.verify_monotone()
            assert log.events[0].command is SDRAMCommand.ACTIVATE
            first_column = log.columns()[0]
            t_rcd = SMALL.sdram.t_rcd
            assert first_column.cycle >= log.events[0].cycle + t_rcd

    def test_every_element_appears_once(self):
        v = Vector(base=3, stride=5, length=8)
        trace = [VectorCommand(vector=v, access=AccessType.READ)]
        logs = self.run_with_logs(trace)
        total_columns = sum(len(log.columns()) for log in logs)
        assert total_columns == 8

    def test_write_columns_logged_as_writes(self):
        trace = [
            VectorCommand(
                vector=Vector(base=0, stride=4, length=4),
                access=AccessType.WRITE,
                data=(1, 2, 3, 4),
            )
        ]
        logs = self.run_with_logs(trace)
        commands = [c for log in logs for c in log.commands()]
        assert all(
            not c.is_read for c in commands if c.is_column
        )

    def test_log_detached_by_default(self):
        assert PVAMemorySystem(SMALL).logs == [None] * SMALL.num_banks
        # A reference run hands each device its bank's empty slot.
        reference = PVAMemorySystem(replace(SMALL, sim_mode="reference"))
        reference.run(
            [
                VectorCommand(
                    vector=Vector(base=0, stride=1, length=8),
                    access=AccessType.READ,
                )
            ]
        )
        assert all(device.log is None for device in reference.devices)

    def test_row_conflict_shows_precharge_or_ap(self):
        """Two requests to conflicting rows of the same internal bank must
        leave a precharge (explicit or auto) in the log between the two
        activates."""
        a = VectorCommand(
            vector=Vector(base=0, stride=4, length=4),
            access=AccessType.READ,
        )
        b = VectorCommand(
            vector=Vector(base=4096, stride=4, length=4),
            access=AccessType.READ,
        )
        logs = self.run_with_logs([a, b])
        log = logs[0]  # both vectors live in bank 0
        assert len(log.activates()) == 2
        closes = len(log.precharges()) + len(log.auto_precharges())
        assert closes >= 1
