"""The simulation facade: one front door for building and running systems.

Callers historically imported :class:`~repro.pva.system.PVAMemorySystem`
and the baseline classes directly and wired them up by hand.  This module
replaces that with a single **registry of system names** and two
keyword-only entry points:

* :func:`build_system` — construct any registered memory system from a
  :class:`~repro.params.SystemParams`;
* :func:`simulate` — run a command trace through a named system and
  return its :class:`~repro.sim.stats.RunResult`.

The four paper systems are pre-registered::

    from repro import simulate, SystemParams
    from repro.kernels import build_trace, kernel_by_name

    params = SystemParams()
    trace = build_trace(kernel_by_name("copy"), stride=4, params=params)
    result = simulate(trace, params, system="pva-sdram")

New systems (alternative DRAM technologies, research variants) register
through :func:`register_system` and immediately become available to the
experiment engine, the grid runner and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.baselines import (
    CacheLineSerialSDRAM,
    GatheringSerialSDRAM,
    make_pva_sram,
)
from repro.errors import ConfigurationError
from repro.params import SystemParams
from repro.pva import PVAMemorySystem
from repro.sim import RunResult

__all__ = [
    "SystemEntry",
    "available_systems",
    "system_entry",
    "register_system",
    "unregister_system",
    "build_system",
    "simulate",
    "clear_caches",
]


def clear_caches() -> None:
    """Release every process-wide simulation memo.

    Two live today: the compiled FirstHit PLAs
    (:func:`repro.core.pla.shared_k1_pla`) and the hit tables of strided
    broadcasts (:func:`repro.pva.schedule.broadcast_schedules`, bounded
    in table elements and bank offsets).  Both are pure value caches —
    dropping them can never change results, only cost the next call a
    recompute — so this is safe at any point.  The experiment engine
    calls it when a worker pool shuts down, bounding memory growth of
    long-lived sweep processes.
    """
    from repro.core.pla import shared_k1_pla
    from repro.pva.schedule import clear_schedule_cache

    shared_k1_pla.cache_clear()
    clear_schedule_cache()


@dataclass(frozen=True)
class SystemEntry:
    """One registered memory system.

    ``alignment_free`` marks systems whose cycle counts do not depend on
    the relative vector alignment (the serial baselines: their cost
    models see only addresses-per-command).  The experiment engine uses
    the flag to evaluate such systems once per (kernel, stride) and share
    the result across alignments.
    """

    name: str
    factory: Callable[[SystemParams], object]
    description: str = ""
    alignment_free: bool = False


_REGISTRY: Dict[str, SystemEntry] = {}


def register_system(
    name: str,
    factory: Callable[[SystemParams], object],
    *,
    description: str = "",
    alignment_free: bool = False,
    overwrite: bool = False,
) -> SystemEntry:
    """Register a memory-system factory under ``name``.

    The factory takes a :class:`SystemParams` and returns an object with
    the :class:`~repro.sim.runner.MemorySystem` protocol (``run(trace,
    capture_data=...) -> RunResult``).
    """
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(
            f"system {name!r} is already registered; pass overwrite=True "
            "to replace it"
        )
    entry = SystemEntry(
        name=name,
        factory=factory,
        description=description,
        alignment_free=alignment_free,
    )
    _REGISTRY[name] = entry
    return entry


def unregister_system(name: str, *, missing_ok: bool = False) -> None:
    """Remove ``name`` from the registry.

    Unknown names raise ``ConfigurationError`` unless ``missing_ok`` is
    set.
    """
    if name not in _REGISTRY:
        if missing_ok:
            return
        raise ConfigurationError(
            f"unknown memory system {name!r}; available: "
            f"{sorted(_REGISTRY)}"
        )
    del _REGISTRY[name]


def available_systems() -> Tuple[str, ...]:
    """Names of every registered memory system, in registration order."""
    return tuple(_REGISTRY)


def system_entry(name: str) -> SystemEntry:
    """The registry entry for ``name``; raises ``ConfigurationError`` for
    unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown memory system {name!r}; available: "
            f"{sorted(_REGISTRY)}"
        ) from None


def build_system(name: str = "pva-sdram", params: Optional[SystemParams] = None):
    """Construct a registered memory system.

    >>> system = build_system("pva-sdram", SystemParams())
    >>> system.run(trace).cycles  # doctest: +SKIP
    """
    return system_entry(name).factory(params or SystemParams())


def simulate(
    trace: Sequence,
    params: Optional[SystemParams] = None,
    *,
    system: str = "pva-sdram",
    capture_data: bool = False,
) -> RunResult:
    """Run ``trace`` through a named memory system.

    A fresh system instance is built per call, so repeated calls are
    independent (no carried-over row state or statistics).
    """
    instance = build_system(system, params)
    return instance.run(trace, capture_data=capture_data)


# --------------------------------------------------------------------- #
# The paper's four systems (section 6.1).
# --------------------------------------------------------------------- #

register_system(
    "pva-sdram",
    lambda p: PVAMemorySystem(p),
    description="the paper's prototype: PVA unit over interleaved SDRAM",
)
register_system(
    "pva-sram",
    lambda p: make_pva_sram(p),
    description="the PVA controller over idealized single-cycle SRAM",
)
register_system(
    "cacheline-serial",
    lambda p: CacheLineSerialSDRAM(p),
    description="conventional cache-line-fill memory system",
    alignment_free=True,
)
register_system(
    "gathering-serial",
    lambda p: GatheringSerialSDRAM(p),
    description="pipelined gathering vector unit (CVMS-class)",
    alignment_free=True,
)
