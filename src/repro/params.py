"""Compatibility façade over the configuration composition root.

The canonical configuration container is :class:`repro.config.GenParams`
(which composes :class:`~repro.config.Topology`,
:class:`~repro.config.SDRAMTiming`/:class:`~repro.config.SRAMTiming`,
the bank-controller microarchitecture, ``row_policy`` and ``sim_mode``,
and owns ``to_dict``/``from_dict``/``config_key``).  This module keeps
the historical flat-field :class:`SystemParams` API that the rest of the
repo (and downstream scripts) construct everywhere; every instance
validates by building its :class:`~repro.config.GenParams` — available
as :attr:`SystemParams.gen` — so the two can never disagree.

Both classes are frozen; experiments derive variants with
:func:`dataclasses.replace`.
"""

from __future__ import annotations

from functools import cached_property
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping

from repro.config import (
    CONFIG_SCHEMA_VERSION,
    ENV_SIM_MODE,
    GenParams,
    ROW_POLICIES,
    SDRAMTiming,
    SIM_MODES,
    SRAMTiming,
    Topology,
    canonical_sim_mode,
    is_power_of_two,
    log2_exact,
)
from repro.errors import ConfigurationError
from repro.types import WORD_BYTES

__all__ = [
    "CONFIG_SCHEMA_VERSION",
    "ENV_SIM_MODE",
    "GenParams",
    "ROW_POLICIES",
    "SDRAMTiming",
    "SIM_MODES",
    "SRAMTiming",
    "SystemParams",
    "Topology",
    "is_power_of_two",
    "log2_exact",
]

@dataclass(frozen=True)
class SystemParams:
    """Memory-system geometry and bank-controller microarchitecture.

    Defaults reproduce the paper's prototype (section 5.1): 16 banks of
    word-interleaved 32-bit SDRAM on one channel, 128-byte L2 lines
    (32-word vector commands), a split-transaction bus with 8 outstanding
    transactions, and bank controllers with 4 vector contexts.

    ``num_banks`` is the **total** bank count across the whole topology;
    with ``num_channels``/``ranks_per_channel`` above one it must be an
    exact multiple so every rank hosts a power-of-two bank count
    (``banks_per_rank = num_banks // (channels * ranks)``).
    """

    num_banks: int = 16
    cache_line_words: int = 32
    max_transactions: int = 8
    num_vector_contexts: int = 4
    request_fifo_depth: int = 8
    sdram: SDRAMTiming = field(default_factory=SDRAMTiming)
    #: Cycles the FirstHit-Calculate multiply-add needs for a non-power-of-
    #: two stride (29.5 ns FPGA critical path -> 2 cycles at 100 MHz).
    fhc_latency: int = 2
    #: One dead cycle whenever the data-bus direction reverses (5.2.5).
    bus_turnaround: int = 1

    #: Data cycles to stage one cache line over the 128-bit BC bus
    #: (128 bytes at 8 bytes per cycle = 16, section 5.2.6) — summed
    #: over all channels.
    @property
    def stage_cycles(self) -> int:
        return (self.cache_line_words * WORD_BYTES) // 8

    #: Enable the latency-reduction bypass paths of section 5.2.3.
    bypass_paths: bool = True
    #: Row-management policy: "paper" (the prototype's ManageRow),
    #: "close", "open", or "history" (Alpha 21174-style) — see
    #: :mod:`repro.pva.rowpolicy`.
    row_policy: str = "paper"
    #: Minimum cycles between vector-command issues from the front end.
    #: 0 models the paper's infinitely fast CPU (section 6.2); larger
    #: values model a processor that produces commands at a finite rate.
    issue_interval: int = 0
    #: Which simulation backend steps the machine — one of
    #: :data:`SIM_MODES` (``"reference"`` or the default ``"fast"``).  The
    #: ``REPRO_SIM_MODE`` environment variable, when set to a mode name,
    #: overrides this field wholesale; after construction the field
    #: always holds the concrete label.
    sim_mode: str = "fast"
    #: Memory channels; the bank-select bits of a word address are
    #: channel-interleaved (see :class:`repro.config.Topology`).
    num_channels: int = 1
    #: Ranks per channel (organizational: capacity, not timing).
    ranks_per_channel: int = 1
    #: Timing of the idealized SRAM device used by the PVA-SRAM system.
    sram: SRAMTiming = field(default_factory=SRAMTiming)

    def __post_init__(self) -> None:
        # The frozen-dataclass write goes through object.__setattr__
        # (standard __post_init__ idiom).
        object.__setattr__(self, "sim_mode", canonical_sim_mode(self.sim_mode))
        if not is_power_of_two(self.num_banks):
            raise ConfigurationError(
                f"num_banks must be a power of two, got {self.num_banks}"
            )
        ways = self.num_channels * self.ranks_per_channel
        if not is_power_of_two(self.num_channels):
            raise ConfigurationError(
                f"num_channels must be a power of two, got {self.num_channels!r}"
            )
        if not is_power_of_two(self.ranks_per_channel):
            raise ConfigurationError(
                "ranks_per_channel must be a power of two, got "
                f"{self.ranks_per_channel!r}"
            )
        if self.num_banks % ways != 0 or self.num_banks < ways:
            raise ConfigurationError(
                "channel/rank select bits overflow the bank bits: "
                f"num_channels*ranks_per_channel={ways} does not divide "
                f"num_banks={self.num_banks}"
            )
        # Build (and cache) the canonical container eagerly: its
        # validation is the single source of truth for every remaining
        # cross-field rule.
        self.gen

    @cached_property
    def gen(self) -> GenParams:
        """The canonical :class:`~repro.config.GenParams` this façade
        forwards to (built once; ``cached_property`` writes through the
        instance ``__dict__``, which frozen dataclasses allow and
        equality/hash ignore)."""
        return GenParams.from_system_params(self)

    @property
    def topology(self) -> Topology:
        return self.gen.topology

    @cached_property
    def bank_bits(self) -> int:
        """``m`` such that ``num_banks == 2**m`` (cached: read on every
        broadcast and local-address computation)."""
        return log2_exact(self.num_banks, "num_banks")

    @property
    def line_bytes(self) -> int:
        return self.cache_line_words * WORD_BYTES

    @property
    def channel_stage_cycles(self) -> int:
        """Data cycles one *channel* is occupied staging its share of a
        cache line (= ``stage_cycles // num_channels``)."""
        return self.stage_cycles // self.num_channels

    @property
    def max_vector_length(self) -> int:
        """Longest vector one bus command may carry (one cache line)."""
        return self.cache_line_words

    def with_banks(self, num_banks: int) -> "SystemParams":
        """A copy of these parameters with a different bank count."""
        return replace(self, num_banks=num_banks)

    # ---------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        """The canonical config document (:meth:`GenParams.to_dict`)."""
        return self.gen.to_dict()

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "SystemParams":
        """Rebuild a façade from a canonical config document."""
        return GenParams.from_dict(doc).to_system_params()

    def config_key(self) -> str:
        """Stable content hash of the canonical config document."""
        return self.gen.config_key()

    def describe(self) -> Dict[str, object]:
        """Flat summary used by reports and benchmarks.

        Derived by flattening the canonical :meth:`to_dict` document —
        every config field appears exactly once (so the summary can
        never silently omit a knob again) plus the handful of derived
        geometry values reports historically relied on.
        """
        doc = self.to_dict()
        flat: Dict[str, object] = {"sim_mode": doc["sim_mode"]}
        flat["num_banks"] = self.num_banks
        for name, value in doc["topology"].items():
            flat[name] = value
        for name, value in doc.items():
            if name in ("schema_version", "topology", "sdram", "sram", "sim_mode"):
                continue
            flat[name] = value
        for name, value in doc["sdram"].items():
            flat[name] = value
        flat["sram_access_cycles"] = doc["sram"]["access_cycles"]
        flat["stage_cycles"] = self.stage_cycles
        flat["channel_stage_cycles"] = self.channel_stage_cycles
        return flat


# The canonical prototype configuration used throughout the evaluation.
PROTOTYPE = SystemParams()
