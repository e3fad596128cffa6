"""Shared hypothesis strategies: random PVA systems and programs."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.params import ROW_POLICIES, SDRAMTiming, SRAMTiming, SystemParams
from repro.workloads.random_traces import RandomTraceConfig, random_trace


@st.composite
def random_params(draw):
    """A random system: 2..64 banks on 1..4 channels, any row policy,
    a front end that issues every cycle or is throttled by
    ``issue_interval``, and random timings for both bank memories:
    every SDRAM field within its validation (refresh off, short or
    long) and an SRAM access time of one to four cycles."""
    num_banks = draw(st.sampled_from([2, 4, 8, 16, 32, 64]))
    return SystemParams(
        num_banks=num_banks,
        num_channels=draw(
            st.sampled_from([c for c in (1, 2, 4) if c <= num_banks])
        ),
        row_policy=draw(st.sampled_from(ROW_POLICIES)),
        issue_interval=draw(st.sampled_from([0, 0, 5, 17])),
        sdram=SDRAMTiming(
            t_rcd=draw(st.integers(1, 4)),
            cas_latency=draw(st.integers(1, 4)),
            t_rp=draw(st.integers(1, 4)),
            t_wr=draw(st.integers(0, 3)),
            internal_banks=draw(st.sampled_from([1, 2, 4, 8])),
            row_words=draw(st.sampled_from([16, 64, 512])),
            refresh_interval=draw(st.sampled_from([0, 97, 780])),
            t_rfc=draw(st.integers(1, 10)),
        ),
        sram=SRAMTiming(access_cycles=draw(st.integers(1, 4))),
    )


@st.composite
def random_systems(draw):
    """A random system (:func:`random_params`) and a random program for
    it: vector commands with or without explicit ones, full or partial
    lines."""
    params = draw(random_params())
    config = RandomTraceConfig(
        commands=draw(st.integers(1, 8)),
        explicit_fraction=draw(st.sampled_from([0.0, 0.25])),
        full_lines=draw(st.booleans()),
    )
    return params, random_trace(draw(st.integers(0, 2**32 - 1)), params, config)
