"""Closed-form performance models.

Section 6.3.1 explains the PVA's performance in terms of three effects:
fewer SDRAM accesses, bank parallelism (``M / 2**s`` banks active for a
stride ``sigma * 2**s``), and bus compaction.  This module captures that
reasoning as explicit formulas:

* exact cycle counts for the two serial baselines (their cost models are
  analytic by construction — the test suite pins the simulators to these
  formulas);
* *lower bounds* for the PVA systems: the vector-bus occupancy bound and
  the per-bank column-throughput bound.  The cycle-level simulator can
  approach but never beat these, which makes them powerful invariants —
  any "too fast" simulation result is a scheduling bug, not a win.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.pla import shared_k1_pla
from repro.params import SystemParams
from repro.types import ExplicitCommand, VectorCommand

__all__ = [
    "bus_bound_cycles",
    "per_bank_column_bound",
    "pva_lower_bound",
    "cacheline_serial_cycles",
    "gathering_serial_cycles",
]


def bus_bound_cycles(
    commands: Sequence, params: SystemParams
) -> int:
    """Vector-bus occupancy lower bound (per channel).

    Every read costs its request plus a STAGE_READ command and the line
    transfer; every write costs STAGE_WRITE, the transfer, and its
    VEC_WRITE request.  A request is one broadcast cycle, or
    ``broadcast_cycles`` for an explicit-address command.  Commands and
    broadcasts occupy every channel simultaneously, while the line
    transfer splits evenly across channels (``channel_stage_cycles``);
    each channel's timeline serializes all of it.
    """
    total = len(commands) * (1 + params.channel_stage_cycles)
    for command in commands:
        if isinstance(command, ExplicitCommand):
            total += command.broadcast_cycles
        else:
            total += 1
    return total


def per_bank_column_bound(
    commands: Sequence, params: SystemParams
) -> int:
    """Column-throughput lower bound: the busiest bank must issue one CAS
    per element it owns, at most one per cycle.

    Priced from the compiled K1 PLA rather than by evaluating FirstHit
    per bank per command.  Only ``S mod M`` shapes the bank pattern
    (lemma 4.1) and ``K_i`` depends only on the bank's distance from the
    base bank (theorem 4.3), so vector commands that agree on
    ``(S mod M, L, B mod M)`` add identical per-bank counts.  Each
    ``(S mod M, L)`` class reads its ``M`` per-distance counts once;
    each bucket adds them rotated by its base bank.
    """
    num_banks = params.num_banks
    mask = num_banks - 1
    totals = [0] * num_banks
    buckets: Dict[Tuple[int, int, int], int] = {}
    for command in commands:
        if isinstance(command, ExplicitCommand):
            for address in command.addresses:
                totals[address & mask] += 1
        else:
            vector = command.vector
            key = (vector.stride & mask, vector.length, vector.base & mask)
            buckets[key] = buckets.get(key, 0) + 1
    pla = shared_k1_pla(num_banks)
    classes: Dict[Tuple[int, int], List[int]] = {}
    for (s_mod, length, base_bank), times in buckets.items():
        per_distance = classes.get((s_mod, length))
        if per_distance is None:
            delta = pla.entry(s_mod).delta
            hits = [pla.first_hit_index(s_mod, d) for d in range(num_banks)]
            # K_i < delta, so a count floors to 0 when K_i >= L.
            per_distance = [
                0 if k is None else (length - 1 - k) // delta + 1 for k in hits
            ]
            classes[(s_mod, length)] = per_distance
        for d, count in enumerate(per_distance):
            totals[(base_bank + d) & mask] += times * count
    return max(totals)


def pva_lower_bound(commands: Sequence, params: SystemParams) -> int:
    """A PVA run can finish no sooner than the larger of the bus bound
    and the busiest bank's column bound."""
    return max(
        bus_bound_cycles(commands, params),
        per_bank_column_bound(commands, params),
    )


def cacheline_serial_cycles(
    commands: Sequence[VectorCommand], params: SystemParams
) -> int:
    """Exact analytic cost of the cache-line serial baseline: 20 cycles
    per distinct line per command, serially (the line burst splits
    across channels)."""
    shift = params.cache_line_words.bit_length() - 1
    fill = params.sdram.t_rcd + params.sdram.cas_latency + (
        params.channel_stage_cycles
    )
    total = 0
    for command in commands:
        lines = {a >> shift for a in command.vector.addresses()}
        total += len(lines) * fill
    return total


def gathering_serial_cycles(
    commands: Sequence[VectorCommand], params: SystemParams
) -> int:
    """Exact analytic cost of the gathering serial baseline."""
    timing = params.sdram
    total = 0
    for command in commands:
        total += (
            1
            + timing.t_rp
            + timing.t_rcd
            + timing.cas_latency
            + command.vector.length
            + params.channel_stage_cycles
        )
    return total
