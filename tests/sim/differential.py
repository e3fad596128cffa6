"""Shared harness of the reference-vs-fast differential suites.

``sim_mode="reference"`` models the paper's hardware literally: the
bank-controller object graph (``"object"``) and live FirstHit/NextHit
expansion, whose banks make the run loop visit every cycle.
``sim_mode="fast"`` steps every PVA bank as one structure-of-arrays
automaton (``"soa"``, :mod:`repro.pva.soa`), whose bounds let the loop
jump idle cycles.  The suites split the fast backend's runs:

* plain runs (``test_window_equivalence.py``);
* ``capture_data`` runs, whose reads gather values
  (``test_soa_equivalence.py``);
* runs with command logs attached, whose walk records every command it
  issues (``test_time_skip_equivalence.py``), which also checks that
  ``sim_mode`` does not change a serial baseline's run.

:func:`assert_equivalent` runs the same traces under both modes, each on
one fresh system object (several traces run back to back on it), and
asserts they agree on every :class:`~repro.sim.stats.RunResult` field —
total cycles, per-command latencies, device and bus statistics, captured
payloads, the per-component attribution ledger — on the memory image the
runs leave behind and on any logged command streams.  The spy installed
by :func:`spy_on_bank_paths` checks that every fast PVA system built
the SoA automaton as its bank side.
"""

from __future__ import annotations

from dataclasses import replace

from repro.api import available_systems, build_system
from repro.kernels import ALIGNMENTS, build_trace, kernel_by_name
from repro.params import SDRAMTiming, SRAMTiming, SystemParams
from repro.pva import system as system_module
from repro.pva.system import PVAMemorySystem
from repro.sim.kernel import SimKernel
from repro.types import AccessType, ExplicitCommand, Vector, VectorCommand

ALL_SYSTEMS = available_systems()
PVA_SYSTEMS = ("pva-sdram", "pva-sram")
PAPER_STRIDES = (1, 2, 4, 8, 16, 19)
ROW_POLICIES = ("paper", "open", "close", "history")


def spy_on_bank_paths(monkeypatch):
    """Record the bank side each PVA system builds: ``"soa"`` or
    ``"object"``."""
    taken = []
    for name, label in (
        ("SoaBankAutomaton", "soa"),
        ("_BankComponent", "object"),
    ):
        original = getattr(system_module, name)

        def spy_init(self, *args, _init=original.__init__, _label=label, **kw):
            taken.append(_label)
            _init(self, *args, **kw)

        monkeypatch.setattr(
            system_module, name, type(name, (original,), {"__init__": spy_init})
        )
    return taken


class Metronome:
    """A component that never acts and bounds the kernel at the current
    cycle, so a kernel it joins visits every cycle.  It reports no
    ledger entry: a run's results cannot show it."""

    name = "metronome"
    visits = 0

    def tick(self, cycle):
        self.visits += 1
        return False

    def next_event_cycle(self, cycle):
        return cycle

    def account(self, total_cycles):
        return {}


class RunLoopSpy:
    """Record how every PVA kernel advances (``"jump"`` or ``"tick"``).
    With :attr:`force_tick` set, every kernel gets a :class:`Metronome`
    as its last component and visits every cycle whatever the backend —
    the automata must not care."""

    def __init__(self, monkeypatch):
        self.loops = []
        self.force_tick = False
        spy = self

        class Kernel(SimKernel):
            def __init__(self, components, *, watchdog):
                spy.loops.append("tick" if spy.force_tick else "jump")
                if spy.force_tick:
                    components = [*components, Metronome()]
                super().__init__(components, watchdog=watchdog)

        monkeypatch.setattr(system_module, "SimKernel", Kernel)


def _memory_image(instance):
    if isinstance(instance, PVAMemorySystem):
        return [dict(bank) for bank in instance.storage]
    return dict(instance._storage)


def _run(mode, system, params, traces, capture_data, interleave, logs):
    """Run ``traces`` back to back on one fresh system under ``mode``;
    return the results, the memory image and the command logs."""
    params = replace(params, sim_mode=mode)
    if interleave is not None:
        instance = PVAMemorySystem(params, interleave=interleave)
    else:
        instance = build_system(system, params)
    attached = instance.attach_command_logs() if logs else []
    results = [instance.run(trace, capture_data=capture_data) for trace in traces]
    return results, _memory_image(instance), [log.events for log in attached]


def assert_equivalent(
    paths,
    system,
    params,
    *traces,
    capture_data=False,
    interleave=None,
    logs=False,
):
    """Run ``traces`` under both backends; assert equal results, memory
    image and command logs, and that fast took the expected path.
    Returns the reference results."""
    reference = _run(
        "reference", system, params, traces, capture_data, interleave, logs
    )
    del paths[:]
    fast = _run("fast", system, params, traces, capture_data, interleave, logs)
    for ref, got in zip(reference[0], fast[0]):
        assert got.cycles == ref.cycles, (system, ref.cycles, got.cycles)
        assert got.attribution == ref.attribution, system
        assert got == ref, system
    assert fast[1] == reference[1], f"{system}: memory images differ"
    assert fast[2] == reference[2], f"{system}: command logs differ"
    if system in PVA_SYSTEMS or interleave is not None:
        assert set(paths) == {"soa"}, (system, sorted(set(paths)))
    else:
        assert paths == []
    return reference[0]


def kernel_trace(params, kernel="copy", stride=19, elements=256, alignment=None):
    return build_trace(
        kernel_by_name(kernel),
        stride=stride,
        params=params,
        elements=elements,
        alignment=alignment or ALIGNMENTS[0],
    )


#: An explicit scatter then gather over the same scattered addresses.
SCATTER_GATHER = [
    ExplicitCommand(
        addresses=(3, 19, 64, 64 + 16, 5, 1000),
        access=AccessType.WRITE,
        broadcast_cycles=3,
        data=(10, 20, 30, 40, 50, 60),
    ),
    ExplicitCommand(
        addresses=(3, 19, 64, 64 + 16, 5, 1000),
        access=AccessType.READ,
        broadcast_cycles=3,
    ),
]

#: Two strided writes that leave a non-trivial memory image behind.
WRITE_HEAVY = [
    VectorCommand(
        vector=Vector(base=7, stride=19, length=32),
        access=AccessType.WRITE,
        data=tuple(range(100, 132)),
    ),
    VectorCommand(
        vector=Vector(base=3, stride=1, length=32),
        access=AccessType.WRITE,
        data=tuple(range(200, 232)),
    ),
]


def random_trace(rng):
    """Two to ten random vector and explicit commands, reads and writes."""
    commands = []
    for _ in range(rng.randint(2, 10)):
        write = rng.random() < 0.5
        access = AccessType.WRITE if write else AccessType.READ
        if rng.random() < 0.25:
            n = rng.randint(1, 20)
            commands.append(
                ExplicitCommand(
                    addresses=tuple(rng.randrange(0, 1 << 16) for _ in range(n)),
                    access=access,
                    broadcast_cycles=(n + 1) // 2,
                    data=(
                        tuple(rng.randrange(0, 1000) for _ in range(n))
                        if write
                        else None
                    ),
                )
            )
        else:
            length = rng.randint(1, 32)
            commands.append(
                VectorCommand(
                    vector=Vector(
                        base=rng.randrange(0, 1 << 14),
                        stride=rng.choice([1, 1, rng.randint(1, 64)]),
                        length=length,
                    ),
                    access=access,
                    data=(
                        tuple(rng.randrange(0, 1000) for _ in range(length))
                        if write
                        else None
                    ),
                )
            )
    return commands


def random_params(rng):
    """Randomized timings of both bank memories, policies, refresh
    cadences that can expire mid-chain, and context and FIFO depths."""
    max_transactions = rng.randint(1, 8)
    return SystemParams(
        num_banks=rng.choice([1, 2, 4, 8, 16]),
        max_transactions=max_transactions,
        num_vector_contexts=rng.randint(1, 4),
        request_fifo_depth=max(max_transactions, rng.randint(1, 10)),
        fhc_latency=rng.randint(1, 4),
        bus_turnaround=rng.randint(0, 3),
        bypass_paths=rng.random() < 0.5,
        row_policy=rng.choice(ROW_POLICIES),
        issue_interval=rng.choice([0, 0, 17, 256]),
        sdram=SDRAMTiming(
            t_rcd=rng.randint(1, 4),
            cas_latency=rng.randint(1, 4),
            t_rp=rng.randint(1, 4),
            t_wr=rng.randint(1, 3),
            internal_banks=rng.choice([1, 2, 4, 8]),
            row_words=rng.choice([64, 128, 512]),
            refresh_interval=rng.choice([0, 40, 150, 700]),
            t_rfc=rng.randint(2, 10),
        ),
        sram=SRAMTiming(access_cycles=rng.randint(1, 4)),
    )

