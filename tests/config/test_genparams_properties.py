"""Property-based contracts for the canonical ``SystemParams`` document.

The config layer's whole value is that one frozen, validated object and
its ``to_dict()``/``config_key()`` pair identify a configuration
everywhere (engine cache, explore reports).  Hypothesis sweeps the valid
parameter space and checks the identities hold on all of it, not just
the prototype point.
"""

from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st

import repro.config
from repro.config import ROW_POLICIES, SIM_MODES
from repro.errors import ConfigurationError
from repro.params import SDRAMTiming, SRAMTiming, SystemParams


@st.composite
def system_params(draw):
    """A valid SystemParams drawn from the whole supported space."""
    num_banks = draw(st.sampled_from([1, 2, 4, 8, 16, 32]))
    cache_line_words = draw(st.sampled_from([8, 16, 32, 64]))
    stage_cycles = cache_line_words // 2
    num_channels = draw(
        st.sampled_from(
            [c for c in (1, 2, 4) if c <= num_banks and c <= stage_cycles]
        )
    )
    max_transactions = draw(st.integers(min_value=1, max_value=8))
    sdram = SDRAMTiming(
        t_rcd=draw(st.integers(1, 4)),
        cas_latency=draw(st.integers(1, 4)),
        t_rp=draw(st.integers(1, 4)),
        t_wr=draw(st.integers(1, 3)),
        internal_banks=draw(st.sampled_from([1, 2, 4, 8])),
        row_words=draw(st.sampled_from([64, 128, 512])),
        refresh_interval=draw(st.sampled_from([0, 150, 700])),
        t_rfc=draw(st.integers(2, 10)),
    )
    return SystemParams(
        num_banks=num_banks,
        cache_line_words=cache_line_words,
        max_transactions=max_transactions,
        num_vector_contexts=draw(st.integers(1, 8)),
        request_fifo_depth=draw(st.integers(max_transactions, 16)),
        sdram=sdram,
        fhc_latency=draw(st.integers(1, 4)),
        bus_turnaround=draw(st.integers(0, 3)),
        bypass_paths=draw(st.booleans()),
        row_policy=draw(st.sampled_from(ROW_POLICIES)),
        issue_interval=draw(st.sampled_from([0, 17, 256])),
        sim_mode=draw(st.sampled_from(SIM_MODES)),
        num_channels=num_channels,
        sram=SRAMTiming(access_cycles=draw(st.integers(1, 3))),
    )


def one_field_changes(a, b):
    """Every valid ``a`` with one field, or one field of a timing
    record, taken from ``b``."""
    for f in fields(a):
        mine, theirs = getattr(a, f.name), getattr(b, f.name)
        values = (
            [replace(mine, **{g.name: getattr(theirs, g.name)})
             for g in fields(mine)]
            if is_dataclass(mine)
            else [theirs]
        )
        for value in values:
            try:
                yield replace(a, **{f.name: value})
            except ConfigurationError:
                pass


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(system_params(), system_params())
    def test_document_carries_every_field(self, a, b):
        """A one-field change moves the document exactly when it moves
        the configuration: ``to_dict`` drops no field."""
        for c in one_field_changes(a, b):
            assert (c == a) == (c.to_dict() == a.to_dict())

    @settings(max_examples=60, deadline=None)
    @given(system_params())
    def test_replace_is_stable(self, params):
        # No-op replace re-validates to the same object.
        again = replace(params)
        assert again == params
        flipped = replace(
            params,
            sim_mode="reference" if params.sim_mode == "fast" else "fast",
        )
        assert replace(flipped, sim_mode=params.sim_mode) == params

    @settings(max_examples=60, deadline=None)
    @given(system_params(), system_params())
    def test_config_key_injective_on_documents(self, a, b):
        """Equal keys exactly when the canonical documents are equal."""
        assert (a.config_key() == b.config_key()) == (
            a.to_dict() == b.to_dict()
        )

    @settings(max_examples=60, deadline=None)
    @given(system_params())
    def test_describe_is_a_flat_view_of_the_document(self, params):
        description = params.describe()
        doc = params.to_dict()
        for name, value in doc.items():
            if isinstance(value, dict):
                for key, item in value.items():
                    assert description[f"{name}.{key}"] == item
            else:
                assert description[name] == value


class TestPolicyRegistryAgreement:
    def test_row_policies_match_the_simulator_registry(self):
        from repro.pva.rowpolicy import _POLICIES

        assert set(ROW_POLICIES) == set(_POLICIES)


@pytest.mark.parametrize("mode", SIM_MODES)
def test_sim_modes_construct(mode):
    assert SystemParams(sim_mode=mode).sim_mode == mode


def test_gen_params_is_system_params():
    # One configuration class: the old name is an alias, not a twin.
    assert repro.config.GenParams is SystemParams
