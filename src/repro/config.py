"""The configuration composition root.

Everything the simulators, analytic models and complexity estimators
need to know about the machine lives in one frozen, validated, hashable
object: :class:`SystemParams` (the coreblocks-style *generation
parameters* idiom: one params object handed to every unit).  Its flat
fields cover

* the geometry: ``num_banks`` word-interleaved banks spread over
  ``num_channels`` channels,
* device timing — :class:`SDRAMTiming` / :class:`SRAMTiming`,
* the bank-controller microarchitecture knobs (vector contexts, FIFO
  depth, bypass paths, FirstHit-Calculate latency),
* the scheduler's ``row_policy``, and
* the ``sim_mode`` backend selector (``"reference"`` or ``"fast"``),

and it owns the **canonical serialization**:
:meth:`SystemParams.to_dict` writes the configuration document (one
entry per field, the two timing records as sub-documents), and
:meth:`SystemParams.config_key` is its stable content hash, used by the
engine result cache and the explore reports.  Nothing reads a document
back.  Bumping :data:`CONFIG_SCHEMA_VERSION` is the single switch that
retires every stale cached document.

Channels
--------
Word addresses are bank-interleaved: the low ``log2(num_banks)`` bits
of a word address select the bank, whatever the channel count.  No
simulation step reads a channel coordinate.  Channels each carry their
own 8-byte-per-cycle data path, so a cache line staged to the CPU
splits evenly across channels — ``channel_stage_cycles ==
stage_cycles // num_channels`` data cycles of occupancy per channel,
the only effect a channel has.  Because every vector broadcast
addresses all banks and the staging split is uniform, the channels
advance in lock-step and one bus timeline models all of them; this is
what keeps both ``sim_mode`` backends bit-identical for multi-channel
configs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cached_property
from typing import Any, Dict

from repro.errors import ConfigurationError
from repro.types import WORD_BYTES

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

#: Version stamp of the canonical config document.  The engine adopts it
#: twice: in the salt of every point key
#: (:data:`repro.engine.spec.CACHE_SCHEMA_VERSION`) and as the stamp on
#: every stored result (:data:`repro.engine.cache.SCHEMA_VERSION`).
#: History: v2: point keys canonicalize the ``precompute`` parameter and
#: stored documents carry ``schema_version``.  v3: keys canonicalize the
#: resolved ``sim_mode`` label and documents record the producing mode.
#: v4: nested device/topology documents — ``sram`` timing and
#: channel/rank geometry join the identity, the legacy
#: ``time_skip``/``precompute`` aliases leave it, and documents carry
#: ``config``/``config_key``.  v5: ``"window"`` joins the ``sim_mode``
#: ladder.  v6: the ladder collapses to ``"reference"``/``"fast"``
#: (default ``"fast"``) — every stored mode label changes meaning.
#: v7: the document is flat — ``num_banks`` and ``num_channels`` are
#: top-level fields, and ``ranks_per_channel`` leaves with the
#: ``topology`` sub-document that carried it.
CONFIG_SCHEMA_VERSION = 7

#: The two simulation backends.  Both are bit-exact with each other
#: (``RunResult`` equality is held by the differential suites
#: ``tests/sim/test_*_equivalence.py``); they differ only in the bank
#: model a PVA system runs (the serial baselines ignore the field):
#:
#: * ``"reference"`` — the paper's hardware modelled literally: the
#:   bank-controller object graph and live FirstHit/NextHit expansion,
#:   whose banks make the run loop visit every cycle.
#: * ``"fast"`` (the default) — every bank stepped as one
#:   structure-of-arrays automaton (:mod:`repro.pva.soa`), whose bounds
#:   let the run loop jump idle cycles, for plain, ``capture_data`` and
#:   logged runs alike, and which builds no device model: it takes every
#:   timing from ``sdram`` or ``sram``.
SIM_MODES = ("reference", "fast")

#: Valid scheduler row-management policies.  Kept in lock-step with
#: :mod:`repro.pva.rowpolicy` (a unit test cross-checks the registry) —
#: listed here so the composition root validates without importing the
#: simulator packages.
ROW_POLICIES = ("close", "history", "open", "paper")


def is_power_of_two(value: int) -> bool:
    """True iff ``value`` is a positive power of two."""
    return isinstance(value, int) and value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int, what: str = "value") -> int:
    """Return ``log2(value)`` for an exact power of two, else raise."""
    if not is_power_of_two(value):
        raise ConfigurationError(f"{what} must be a power of two, got {value}")
    return value.bit_length() - 1


@dataclass(frozen=True)
class SDRAMTiming:
    """Timing and geometry of one SDRAM bank (a 32-bit wide module built
    from x16 parts, per section 5.1).

    All latencies are in memory-bus clock cycles (100 MHz in the prototype).

    Attributes
    ----------
    t_rcd:
        RAS-to-CAS delay: cycles between a bank-activate (row open) and the
        first column command to that row.  Paper: 2.
    cas_latency:
        Cycles between a READ command and its data appearing on the device
        data pins.  Paper: 2.
    t_rp:
        Precharge period: cycles after a PRECHARGE before the internal bank
        can be activated again.  Paper models 2.
    t_wr:
        Write recovery: cycles after the last write datum before a
        precharge of the same internal bank may be issued.
    internal_banks:
        Independent banks (row buffers) inside one device.  Paper: 4.
    row_words:
        Row (page) size per internal bank in machine words.  A 2 KB page of
        a 32-bit module is 512 words.
    """

    t_rcd: int = 2
    cas_latency: int = 2
    t_rp: int = 2
    t_wr: int = 1
    internal_banks: int = 4
    row_words: int = 512
    #: Auto-refresh period in cycles; 0 disables refresh, which is what
    #: the paper's evaluation implicitly assumes.  A realistic 100 MHz
    #: part refreshing 8192 rows every 64 ms needs one refresh per ~780
    #: cycles.
    refresh_interval: int = 0
    #: Cycles one auto-refresh occupies the whole device (rows close,
    #: no activates until it completes).
    t_rfc: int = 8

    def __post_init__(self) -> None:
        for name in ("t_rcd", "cas_latency", "t_rp"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.t_wr < 0:
            raise ConfigurationError("t_wr must be >= 0")
        if self.refresh_interval < 0:
            raise ConfigurationError("refresh_interval must be >= 0")
        if self.t_rfc < 1:
            raise ConfigurationError("t_rfc must be >= 1")
        if not is_power_of_two(self.internal_banks):
            raise ConfigurationError(
                f"internal_banks must be a power of two, got {self.internal_banks}"
            )
        if not is_power_of_two(self.row_words):
            raise ConfigurationError(
                f"row_words must be a power of two, got {self.row_words}"
            )

    #: Rows open and close: the bank has internal banks with row
    #: buffers, restimers and refresh.
    has_rows = True

    @property
    def read_latency(self) -> int:
        """Cycles from a read column to its datum on the pins."""
        return self.cas_latency

    @property
    def write_latency(self) -> int:
        """Cycles from a write column to its data landing."""
        return self.t_wr


@dataclass(frozen=True)
class SRAMTiming:
    """Timing of the idealized SRAM used by the PVA-SRAM comparison system:
    every access completes in ``access_cycles`` with no row state."""

    access_cycles: int = 1

    #: No rows: every local word is its own column, and only the shared
    #: data pins constrain an access.
    has_rows = False

    def __post_init__(self) -> None:
        if self.access_cycles < 1:
            raise ConfigurationError("access_cycles must be >= 1")

    @property
    def read_latency(self) -> int:
        """Cycles from an access to its data, read or write."""
        return self.access_cycles

    write_latency = read_latency


def _fields_dict(value: Any) -> Dict[str, Any]:
    return {f.name: getattr(value, f.name) for f in fields(value)}


#: Annotation -> the type a field must hold (``bool`` is an ``int``
#: subclass, so ``__post_init__`` rejects it on int fields explicitly).
_FIELD_TYPES = {
    t.__name__: t for t in (int, bool, str, SDRAMTiming, SRAMTiming)
}


@dataclass(frozen=True)
class SystemParams:
    """The validated, hashable configuration of one simulated machine.

    Frozen; experiments derive variants with :func:`dataclasses.replace`.
    Defaults reproduce the paper's prototype (section 5.1): 16 banks of
    word-interleaved 32-bit SDRAM on one channel, 128-byte L2 lines
    (32-word vector commands), a split-transaction bus with 8
    outstanding transactions, and bank controllers with 4 vector
    contexts.

    ``num_banks`` is the **total** bank count across all channels, and
    ``num_channels`` must divide it.
    """

    num_banks: int = 16
    #: Memory channels, each staging its share of a cache line (see
    #: the module docstring).
    num_channels: int = 1
    cache_line_words: int = 32
    max_transactions: int = 8
    num_vector_contexts: int = 4
    request_fifo_depth: int = 8
    sdram: SDRAMTiming = field(default_factory=SDRAMTiming)
    #: Timing of the idealized SRAM device used by the PVA-SRAM system.
    sram: SRAMTiming = field(default_factory=SRAMTiming)
    #: Cycles the FirstHit-Calculate multiply-add needs for a non-power-of-
    #: two stride (29.5 ns FPGA critical path -> 2 cycles at 100 MHz).
    fhc_latency: int = 2
    #: One dead cycle whenever the data-bus direction reverses (5.2.5).
    bus_turnaround: int = 1
    #: Enable the latency-reduction bypass paths of section 5.2.3.
    bypass_paths: bool = True
    #: Row-management policy — one of :data:`ROW_POLICIES`
    #: (:mod:`repro.pva.rowpolicy`).
    row_policy: str = "paper"
    #: Minimum cycles between vector-command issues from the front end.
    #: 0 models the paper's infinitely fast CPU (section 6.2); larger
    #: values model a processor that produces commands at a finite rate.
    issue_interval: int = 0
    #: Simulation backend — one of :data:`SIM_MODES`.
    sim_mode: str = "fast"

    def __post_init__(self) -> None:
        for f in fields(self):
            kind = _FIELD_TYPES[f.type]
            value = getattr(self, f.name)
            if not isinstance(value, kind) or (
                kind is int and isinstance(value, bool)
            ):
                raise ConfigurationError(
                    f"{f.name} must be of type {kind.__name__}, got {value!r}"
                )
        # The channel check comes first: the divisibility check below
        # divides by it.
        for name in ("num_banks", "num_channels"):
            value = getattr(self, name)
            if not is_power_of_two(value):
                raise ConfigurationError(
                    f"{name} must be a power of two, got {value!r}"
                )
        if self.num_banks % self.num_channels != 0:
            raise ConfigurationError(
                f"num_channels={self.num_channels} does not divide "
                f"num_banks={self.num_banks}"
            )
        if not is_power_of_two(self.cache_line_words):
            raise ConfigurationError(
                "cache_line_words must be a power of two, got "
                f"{self.cache_line_words}"
            )
        if self.max_transactions < 1:
            raise ConfigurationError("max_transactions must be >= 1")
        if self.max_transactions > 8:
            raise ConfigurationError(
                "the vector bus carries a three-bit transaction id; "
                f"max_transactions must be <= 8, got {self.max_transactions}"
            )
        if self.num_vector_contexts < 1:
            raise ConfigurationError("num_vector_contexts must be >= 1")
        if self.request_fifo_depth < self.max_transactions:
            raise ConfigurationError(
                "the register file must hold as many entries as the bus "
                "allows outstanding transactions (section 5.2.2): depth "
                f"{self.request_fifo_depth} < {self.max_transactions}"
            )
        if self.fhc_latency < 1:
            raise ConfigurationError("fhc_latency must be >= 1")
        if self.bus_turnaround < 0:
            raise ConfigurationError("bus_turnaround must be >= 0")
        if self.issue_interval < 0:
            raise ConfigurationError("issue_interval must be >= 0")
        if self.row_policy not in ROW_POLICIES:
            raise ConfigurationError(
                f"row_policy must be one of {ROW_POLICIES}, "
                f"got {self.row_policy!r}"
            )
        if self.num_channels > self.stage_cycles:
            raise ConfigurationError(
                "a cache line stages to the CPU in "
                f"{self.stage_cycles} data cycles, which cannot split "
                f"evenly across num_channels={self.num_channels}; "
                "grow cache_line_words or shrink the channel count"
            )
        if self.sim_mode not in SIM_MODES:
            raise ConfigurationError(
                f"sim_mode must be one of {SIM_MODES}, got {self.sim_mode!r}"
            )

    # ---------------------------------------------------------- derived
    # ``cached_property`` writes through the instance ``__dict__``, which
    # frozen dataclasses allow and equality/hash ignore.

    @cached_property
    def bank_bits(self) -> int:
        """``m`` such that ``num_banks == 2**m`` (cached: read on every
        broadcast and local-address computation)."""
        return log2_exact(self.num_banks, "num_banks")

    @property
    def line_bytes(self) -> int:
        return self.cache_line_words * WORD_BYTES

    @property
    def stage_cycles(self) -> int:
        """Data cycles to stage one cache line over the 128-bit BC bus
        (128 bytes at 8 bytes per cycle = 16, section 5.2.6) — summed
        over all channels."""
        return (self.cache_line_words * WORD_BYTES) // 8

    @property
    def channel_stage_cycles(self) -> int:
        """Data cycles one *channel* is occupied staging its share of a
        cache line — the line splits evenly across channels."""
        return self.stage_cycles // self.num_channels

    @property
    def max_vector_length(self) -> int:
        """Longest vector one bus command may carry (one cache line)."""
        return self.cache_line_words

    # ---------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        """The canonical, JSON-ready document for this configuration.

        Complete by construction: one entry per field (no drift-prone
        hand-listing), the device timings as their own sub-documents,
        stamped with :data:`CONFIG_SCHEMA_VERSION`.
        """
        doc: Dict[str, Any] = {"schema_version": CONFIG_SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            doc[f.name] = _fields_dict(value) if is_dataclass(value) else value
        return doc

    def config_key(self) -> str:
        """Stable SHA-256 content address of the canonical document —
        the identity the engine cache and explore reports key on."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> Dict[str, object]:
        """Flat summary used by reports and benchmarks.

        The canonical :meth:`to_dict` document, flattened — a timing
        record's fields read ``sdram.t_rcd`` — so the summary can never
        silently omit a knob, plus the derived staging cycles reports
        rely on.
        """
        flat: Dict[str, object] = {}
        for name, value in self.to_dict().items():
            if isinstance(value, dict):
                for key, item in value.items():
                    flat[f"{name}.{key}"] = item
            else:
                flat[name] = value
        flat["stage_cycles"] = self.stage_cycles
        flat["channel_stage_cycles"] = self.channel_stage_cycles
        return flat


GenParams = SystemParams  # perfbench/trace.py wraps GenParams.config_key
