"""Tests for the exception hierarchy."""

import pytest

from repro import errors

from .engine.injectors import fault_systems  # noqa: F401 (fixture)


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in errors.__all__:
            if name == "ReproError":
                continue
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name

    def test_timing_violation_is_scheduling_error(self):
        assert issubclass(errors.TimingViolation, errors.SchedulingError)

    def test_catch_all(self):
        """A single except clause covers every library failure."""
        with pytest.raises(errors.ReproError):
            raise errors.VectorSpecError("bad vector")
        with pytest.raises(errors.ReproError):
            raise errors.TimingViolation("tRP violated")

    def test_exports_are_complete(self):
        declared = set(errors.__all__)
        defined = {
            name
            for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, Exception)
        }
        assert declared == defined

    def test_engine_errors_are_engine_errors(self):
        assert issubclass(errors.PointFailedError, errors.EngineError)
        assert issubclass(errors.IncompleteBatchError, errors.EngineError)


class TestRaiseSites:
    """Every public error class is raised by at least one documented
    library site, and each is catchable as ReproError (asserted by the
    ``pytest.raises(errors.ReproError)`` outer check in each test)."""

    def _raises(self, expected):
        # The specific class *and* the base must both catch it.
        assert issubclass(expected, errors.ReproError)
        return pytest.raises(expected)

    def test_configuration_error_from_invalid_params(self):
        from repro.params import SystemParams

        with self._raises(errors.ConfigurationError):
            SystemParams(num_banks=3)  # not a power of two

    def test_vector_spec_error_from_bit_reverse(self):
        from repro.extensions.bitreversal import bit_reverse

        with self._raises(errors.VectorSpecError):
            bit_reverse(1, bits=-1)

    def test_address_error_from_shadow_translate(self):
        from repro.extensions.shadow import ShadowRegion

        region = ShadowRegion(
            shadow_base=0, target_base=0, stride=2, length=8
        )
        with self._raises(errors.AddressError):
            region.translate(8)  # one past the end

    def test_protocol_error_from_busy_vector_bus(self):
        from repro.bus.vector_bus import VectorBus
        from repro.params import SystemParams

        bus = VectorBus(SystemParams())
        bus.broadcast_request(0, request_cycles=4)
        with self._raises(errors.ProtocolError):
            bus.broadcast_request(1)  # claimed while busy

    def test_scheduling_error_from_column_without_open_row(self):
        from repro.params import SDRAMTiming
        from repro.sdram.bank import InternalBank

        bank = InternalBank(0, SDRAMTiming())
        with self._raises(errors.SchedulingError):
            bank.column(0, is_write=False, auto_precharge=False)

    def test_timing_violation_from_busy_restimer(self):
        from repro.sdram.restimer import Restimer

        timer = Restimer("t_rcd")
        timer.hold_until(10)
        with self._raises(errors.TimingViolation):
            timer.check(5)

    def test_tlb_miss_error_from_unmapped_address(self):
        from repro.vm import MMCTLB

        tlb = MMCTLB.identity(total_words=1024, page_words=256)
        with self._raises(errors.TLBMissError):
            tlb.lookup(4096)

    def test_capacity_error_from_full_staging_unit(self):
        from repro.pva.staging import ReadStagingUnit

        unit = ReadStagingUnit(capacity=1)
        unit.open(0, expected=4)
        with self._raises(errors.CapacityError):
            unit.open(1, expected=4)

    def test_simulation_timeout_from_watchdog(self, monkeypatch):
        import repro.sim.runner
        from repro.params import SystemParams
        from repro.sim.runner import Watchdog

        monkeypatch.setattr(repro.sim.runner, "CYCLES_PER_COMMAND", 4)
        dog = Watchdog(1, SystemParams(), system="test")
        with self._raises(errors.SimulationTimeout):
            dog.check(5)

    def test_point_failed_error_from_dead_worker(self, fault_systems):
        from repro.engine import (
            ExperimentEngine,
            ExperimentPoint,
            KernelTraceSpec,
        )

        points = [
            ExperimentPoint(
                system=system,
                trace=KernelTraceSpec(kernel="copy", stride=1, elements=64),
            )
            for system in ("pva-sdram", fault_systems["killer-once"])
        ]
        with self._raises(errors.PointFailedError):
            ExperimentEngine(jobs=2).run(points)

    def test_incomplete_batch_error_from_lost_point(self, monkeypatch):
        from repro.engine import (
            ExperimentEngine,
            ExperimentPoint,
            KernelTraceSpec,
        )

        engine = ExperimentEngine(jobs=1)
        monkeypatch.setattr(engine, "_execute", lambda pending: iter(()))
        with self._raises(errors.IncompleteBatchError):
            engine.run(
                [
                    ExperimentPoint(
                        system="pva-sdram",
                        trace=KernelTraceSpec(
                            kernel="copy", stride=1, elements=64
                        ),
                    )
                ]
            )

    def test_cache_integrity_error_from_invalid_put(self, tmp_path):
        from repro.engine import ResultCache

        with self._raises(errors.CacheIntegrityError):
            ResultCache(tmp_path).put("ab" + "0" * 62, {"cycles": -1})
