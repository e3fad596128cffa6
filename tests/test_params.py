"""Tests for the configuration dataclasses."""

import pytest

from repro.errors import ConfigurationError
from repro.params import (
    SDRAMTiming,
    SRAMTiming,
    SystemParams,
    is_power_of_two,
    log2_exact,
)


class TestHelpers:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(1024)
        assert not is_power_of_two(0)
        assert not is_power_of_two(-4)
        assert not is_power_of_two(12)

    def test_log2_exact(self):
        assert log2_exact(1) == 0
        assert log2_exact(16) == 4
        with pytest.raises(ConfigurationError):
            log2_exact(12)


class TestSDRAMTiming:
    def test_paper_defaults(self):
        timing = SDRAMTiming()
        assert timing.t_rcd == 2
        assert timing.cas_latency == 2
        assert timing.internal_banks == 4
        assert timing.row_words == 512

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SDRAMTiming(t_rcd=0)
        with pytest.raises(ConfigurationError):
            SDRAMTiming(internal_banks=3)
        with pytest.raises(ConfigurationError):
            SDRAMTiming(row_words=500)
        with pytest.raises(ConfigurationError):
            SDRAMTiming(t_wr=-1)


class TestSRAMTiming:
    def test_default(self):
        assert SRAMTiming().access_cycles == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SRAMTiming(access_cycles=0)


class TestSystemParams:
    def test_prototype_defaults(self):
        params = SystemParams()
        assert params.num_banks == 16
        assert params.bank_bits == 4
        assert params.cache_line_words == 32
        assert params.line_bytes == 128
        assert params.max_transactions == 8
        assert params.num_vector_contexts == 4
        assert params.stage_cycles == 16
        assert params.max_vector_length == 32
        assert params.row_policy == "paper"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SystemParams(num_banks=12)
        with pytest.raises(ConfigurationError):
            SystemParams(cache_line_words=33)
        with pytest.raises(ConfigurationError):
            SystemParams(max_transactions=0)
        with pytest.raises(ConfigurationError):
            SystemParams(max_transactions=9)  # 3-bit transaction id
        with pytest.raises(ConfigurationError):
            SystemParams(num_vector_contexts=0)
        with pytest.raises(ConfigurationError):
            SystemParams(request_fifo_depth=4)  # < max_transactions
        with pytest.raises(ConfigurationError):
            SystemParams(fhc_latency=0)
        with pytest.raises(ConfigurationError):
            SystemParams(bus_turnaround=-1)
        with pytest.raises(ConfigurationError):
            SystemParams(issue_interval=-1)

    def test_issue_interval_defaults_to_infinitely_fast_cpu(self):
        assert SystemParams().issue_interval == 0

    def test_refresh_validation(self):
        with pytest.raises(ConfigurationError):
            SDRAMTiming(refresh_interval=-1)
        with pytest.raises(ConfigurationError):
            SDRAMTiming(t_rfc=0)

    def test_describe(self):
        description = SystemParams().describe()
        assert description["num_banks"] == 16
        assert description["stage_cycles"] == 16
        assert description["sdram.t_rcd"] == 2

    def test_describe_covers_every_config_knob(self):
        """The summary is derived from the canonical to_dict() — the
        knobs it historically omitted must all be present."""
        description = SystemParams().describe()
        for key, value in {
            "row_policy": "paper",
            "bypass_paths": True,
            "bus_turnaround": 1,
            "issue_interval": 0,
            "sdram.t_wr": 1,
            "sdram.refresh_interval": 0,
            "sdram.t_rfc": 8,
            "num_channels": 1,
            "sram.access_cycles": 1,
            "channel_stage_cycles": 16,
        }.items():
            assert description[key] == value, key

    def test_describe_distinguishes_formerly_invisible_variants(self):
        base = SystemParams()
        for variant in (
            SystemParams(row_policy="close"),
            SystemParams(bypass_paths=False),
            SystemParams(bus_turnaround=2),
            SystemParams(issue_interval=7),
        ):
            assert variant.describe() != base.describe()

    def test_topology_validation(self):
        with pytest.raises(ConfigurationError):
            SystemParams(num_channels=3)
        with pytest.raises(ConfigurationError):
            # 32 channels cannot divide 16 banks.
            SystemParams(num_banks=16, num_channels=32)
        with pytest.raises(ConfigurationError):
            # 8 channels cannot split an 8-word line's 4 stage cycles.
            SystemParams(cache_line_words=8, num_banks=8, num_channels=8)

    def test_channel_stage_cycles(self):
        assert SystemParams().channel_stage_cycles == 16
        assert SystemParams(num_channels=2).channel_stage_cycles == 8
        assert SystemParams(num_channels=4).channel_stage_cycles == 4


class TestSimMode:
    """The validated two-mode sim_mode field."""

    def test_default_resolves_to_fast(self):
        assert SystemParams().sim_mode == "fast"

    def test_only_reference_and_fast_exist(self):
        from repro.params import SIM_MODES

        assert SIM_MODES == ("reference", "fast")
        for mode in SIM_MODES:
            assert SystemParams(sim_mode=mode).sim_mode == mode

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemParams(sim_mode="warp")

    def test_legacy_aliases_and_mode_names_raise(self):
        with pytest.raises(TypeError):
            SystemParams(time_skip=True)
        with pytest.raises(TypeError):
            SystemParams(precompute=False)
        for mode in ("tick", "skip", "precompute", "soa", "window"):
            with pytest.raises(ConfigurationError):
                SystemParams(sim_mode=mode)

    def test_boolean_alias_plus_sim_mode_is_a_contradiction(self):
        # The aliases are gone, so pairing one with sim_mode cannot
        # silently pick a side: the constructor rejects the keyword.
        with pytest.raises(TypeError):
            SystemParams(sim_mode="fast", time_skip=False)
        with pytest.raises(TypeError):
            SystemParams(sim_mode="reference", precompute=True)

    def test_replace_round_trip_is_stable(self):
        from dataclasses import replace

        for mode in ("reference", "fast"):
            params = SystemParams(sim_mode=mode)
            again = replace(params, num_banks=8)
            assert again.sim_mode == mode
            assert replace(params, sim_mode="reference").sim_mode == "reference"

    def test_hashable_and_equal(self):
        a = SystemParams(sim_mode="reference")
        b = SystemParams(sim_mode="reference")
        assert a == b
        assert hash(a) == hash(b)
        assert a != SystemParams(sim_mode="fast")

    def test_describe_reports_mode(self):
        assert SystemParams(sim_mode="reference").describe()["sim_mode"] == (
            "reference"
        )
