"""One rejection test per validation rule of the config layer."""

from dataclasses import fields

import pytest

from repro.config import SDRAMTiming, SRAMTiming, Topology
from repro.errors import ConfigurationError
from repro.params import SystemParams


class TestTopologyRules:
    def test_channels_must_be_a_power_of_two(self):
        with pytest.raises(ConfigurationError):
            Topology(num_channels=3)

    def test_ranks_must_be_a_power_of_two(self):
        with pytest.raises(ConfigurationError):
            Topology(ranks_per_channel=0)

    def test_banks_per_rank_must_be_a_power_of_two(self):
        with pytest.raises(ConfigurationError):
            Topology(banks_per_rank=12)

    def test_channel_rank_bits_must_fit_the_bank_bits(self):
        # 32 channel/rank ways over 16 total banks: the select bits
        # overlap — SystemParams rejects before building a Topology.
        with pytest.raises(ConfigurationError):
            SystemParams(num_banks=16, num_channels=32)
        with pytest.raises(ConfigurationError):
            SystemParams(num_banks=16, num_channels=4, ranks_per_channel=8)

    def test_channels_cannot_outnumber_stage_cycles(self):
        with pytest.raises(ConfigurationError):
            SystemParams(cache_line_words=8, num_banks=8, num_channels=8)


class TestGenParamsRules:
    def test_banks_power_of_two(self):
        with pytest.raises(ConfigurationError):
            SystemParams(num_banks=12)

    def test_line_words_power_of_two(self):
        with pytest.raises(ConfigurationError):
            SystemParams(cache_line_words=33)

    def test_transaction_id_field_width(self):
        with pytest.raises(ConfigurationError):
            SystemParams(max_transactions=0)
        with pytest.raises(ConfigurationError):
            SystemParams(max_transactions=9)

    def test_contexts_positive(self):
        with pytest.raises(ConfigurationError):
            SystemParams(num_vector_contexts=0)

    def test_fifo_holds_all_outstanding_transactions(self):
        with pytest.raises(ConfigurationError):
            SystemParams(request_fifo_depth=4, max_transactions=8)

    def test_fhc_latency_positive(self):
        with pytest.raises(ConfigurationError):
            SystemParams(fhc_latency=0)

    def test_bus_turnaround_non_negative(self):
        with pytest.raises(ConfigurationError):
            SystemParams(bus_turnaround=-1)

    def test_issue_interval_non_negative(self):
        with pytest.raises(ConfigurationError):
            SystemParams(issue_interval=-1)

    def test_row_policy_membership(self):
        with pytest.raises(ConfigurationError):
            SystemParams(row_policy="mru")

    def test_bypass_paths_must_be_bool(self):
        with pytest.raises(ConfigurationError):
            SystemParams(bypass_paths="yes")

    def test_sim_mode_membership(self):
        with pytest.raises(ConfigurationError):
            SystemParams(sim_mode="warp")

    @pytest.mark.parametrize("value", ["8", 2.5, None, True])
    @pytest.mark.parametrize(
        "name",
        [f.name for f in fields(SystemParams) if f.type == "int"],
    )
    def test_int_fields_reject_non_ints(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            SystemParams(**{name: value})


class TestDeviceTimingRules:
    def test_sdram_rules(self):
        for bad in (
            dict(t_rcd=0),
            dict(cas_latency=0),
            dict(t_rp=0),
            dict(t_wr=-1),
            dict(internal_banks=3),
            dict(row_words=500),
            dict(refresh_interval=-1),
            dict(t_rfc=0),
        ):
            with pytest.raises(ConfigurationError):
                SDRAMTiming(**bad)

    def test_sram_rules(self):
        with pytest.raises(ConfigurationError):
            SRAMTiming(access_cycles=0)


class TestDocumentRules:
    def test_unknown_top_level_key_rejected(self):
        doc = SystemParams().to_dict()
        doc["turbo"] = True
        with pytest.raises(ConfigurationError):
            SystemParams.from_dict(doc)

    def test_unknown_nested_key_rejected(self):
        doc = SystemParams().to_dict()
        doc["sdram"]["t_magic"] = 1
        with pytest.raises(ConfigurationError):
            SystemParams.from_dict(doc)
        doc = SystemParams().to_dict()
        doc["topology"]["num_dimms"] = 2
        with pytest.raises(ConfigurationError):
            SystemParams.from_dict(doc)

    def test_schema_version_mismatch_rejected(self):
        doc = SystemParams().to_dict()
        doc["schema_version"] = 3
        with pytest.raises(ConfigurationError):
            SystemParams.from_dict(doc)

    def test_non_dict_sub_document_rejected(self):
        doc = SystemParams().to_dict()
        doc["sdram"] = "fast"
        with pytest.raises(ConfigurationError):
            SystemParams.from_dict(doc)

    def test_non_dict_document_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemParams.from_dict("prototype")
