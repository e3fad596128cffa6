"""Closed-form performance models used to sanity-check the simulators."""

from repro.analysis.model import (
    bus_bound_cycles,
    cacheline_serial_cycles,
    gathering_serial_cycles,
    per_bank_column_bound,
    pva_lower_bound,
)

__all__ = [
    "bus_bound_cycles",
    "cacheline_serial_cycles",
    "gathering_serial_cycles",
    "per_bank_column_bound",
    "pva_lower_bound",
]
