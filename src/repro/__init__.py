"""repro — a reproduction of *Design of a Parallel Vector Access Unit for
SDRAM Memory Systems* (Mathew, McKee, Carter, Davis — HPCA 2000).

The library provides:

* the PVA mathematics (``repro.core``): closed-form FirstHit/NextHit for
  word-interleaved memories, the general cache-line-interleave algorithm,
  PLA implementation models and SplitVector;
* a cycle-level simulator of the PVA memory controller (``repro.pva``)
  over one parametric bank device model for SDRAM and SRAM;
* the paper's comparison systems (``repro.baselines``), kernels and trace
  generation (``repro.kernels``), and the experiment harness
  (``repro.experiments``) regenerating every figure and table;
* the simulation facade (``repro.api``) and the parallel experiment
  engine with result caching (``repro.engine``).

Quick start::

    from repro import simulate, SystemParams, kernel_by_name, build_trace

    params = SystemParams()                      # the paper's prototype
    trace = build_trace(kernel_by_name("copy"), stride=4, params=params)
    result = simulate(trace, params, system="pva-sdram")
    print(result.cycles, result.summary())

Memory-system classes are not exported from the top level: build
systems through :func:`repro.api.build_system` / :func:`repro.api.simulate`
(or import a class from its home module, e.g. ``repro.pva``).
"""

from repro.api import (
    available_systems,
    build_system,
    register_system,
    simulate,
    system_entry,
    unregister_system,
)
from repro.core import (
    NO_HIT,
    bank_subvector,
    first_hit,
    hit_count,
    next_hit,
    split_vector,
    subvectors_by_bank,
)
from repro.errors import ConfigurationError, ReproError, SimulationTimeout
from repro.kernels import ALIGNMENTS, KERNELS, build_trace, kernel_by_name
from repro.params import SDRAMTiming, SRAMTiming, SystemParams
from repro.sim import RunResult
from repro.types import AccessType, Vector, VectorCommand
from repro.vm import MMCTLB, PageMapping

__version__ = "1.0.0"

__all__ = [
    "AccessType",
    "Vector",
    "VectorCommand",
    "SystemParams",
    "SDRAMTiming",
    "SRAMTiming",
    "simulate",
    "build_system",
    "register_system",
    "unregister_system",
    "available_systems",
    "system_entry",
    "RunResult",
    "first_hit",
    "next_hit",
    "hit_count",
    "bank_subvector",
    "subvectors_by_bank",
    "split_vector",
    "NO_HIT",
    "KERNELS",
    "ALIGNMENTS",
    "kernel_by_name",
    "build_trace",
    "MMCTLB",
    "PageMapping",
    "ReproError",
    "ConfigurationError",
    "SimulationTimeout",
    "__version__",
]
