"""The configuration names under their historical import path.

Everything here is defined in :mod:`repro.config`; the repo and
downstream scripts import :class:`SystemParams` and the device timings
from this module, so it re-exports them.
"""

from repro.config import (
    CONFIG_SCHEMA_VERSION,
    ROW_POLICIES,
    SDRAMTiming,
    SIM_MODES,
    SRAMTiming,
    SystemParams,
    is_power_of_two,
    log2_exact,
)

__all__ = [
    "CONFIG_SCHEMA_VERSION",
    "ROW_POLICIES",
    "SDRAMTiming",
    "SIM_MODES",
    "SRAMTiming",
    "SystemParams",
    "is_power_of_two",
    "log2_exact",
]
