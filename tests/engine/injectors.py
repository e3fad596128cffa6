"""Deterministic fault injectors for the engine's resilience tests.

Each injector is a memory system (or a wrapper around one) that
misbehaves in exactly one reproducible way:

* :class:`RaisingSystem` — raises :class:`InjectedFault` on every run;
* :class:`TransientFaultSystem` — fails the *first* execution only and
  delegates every later attempt (attempt state lives in a marker file,
  so it survives the process boundary to pool workers and retries);
* :class:`CycleBurnerSystem` — ignores its trace and burns simulated
  cycles until the simulation watchdog trips
  (:class:`~repro.errors.SimulationTimeout`);
* :class:`WorkerKillerSystem` — hard-kills the first executing process
  with ``os._exit``, like an OOM-killed pool worker, then heals;
* :class:`CacheCorruptor` — vandalizes a :class:`ResultCache` directory
  with torn, garbage and stray entries.

The :func:`fault_systems` fixture registers the system injectors with
:mod:`repro.api` under ``fault-*`` names so engine batches can run them.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Sequence

import pytest

from repro.api import build_system, register_system, unregister_system
from repro.engine.cache import ResultCache
from repro.errors import ReproError
from repro.sim.runner import Watchdog
from repro.sim.stats import RunResult


class InjectedFault(ReproError):
    """The deliberate failure raised by the injectors."""


def _claim_marker(marker: Path) -> bool:
    """Atomically create ``marker``; True if this call created it.

    ``O_CREAT | O_EXCL`` makes the first-attempt check race-free across
    pool workers sharing a filesystem.
    """
    try:
        fd = os.open(str(marker), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


class RaisingSystem:
    """A memory system whose every run raises :class:`InjectedFault`."""

    name = "raising"

    def run(self, commands: Sequence, capture_data: bool = False) -> RunResult:
        raise InjectedFault("injected fault")


class TransientFaultSystem:
    """Wrap a memory system; fail the first execution, then heal.

    The first ``run`` (in any process) claims the marker file and raises
    :class:`InjectedFault`; every later call runs the wrapped system.
    This is the transient fault a one-retry policy must absorb.
    """

    def __init__(self, inner, marker: Path):
        self.inner = inner
        self.name = inner.name
        self.marker = marker

    def run(self, commands: Sequence, capture_data: bool = False) -> RunResult:
        if _claim_marker(self.marker):
            raise InjectedFault("injected transient fault (first attempt)")
        return self.inner.run(commands, capture_data=capture_data)


class CycleBurnerSystem:
    """A memory system that never finishes: it spins the simulated clock
    until the watchdog's cycle budget (``4096 x len(trace)`` ticks, a few
    milliseconds of host time) raises :class:`SimulationTimeout`."""

    name = "cycle-burner"

    def run(self, commands: Sequence, capture_data: bool = False) -> RunResult:
        watchdog = Watchdog(len(commands), system=self.name)
        cycle = 0
        while True:  # SimulationTimeout is the only exit
            watchdog.check(cycle)
            cycle += 1


class WorkerKillerSystem:
    """Hard-kill the process that claims ``marker``; delegate afterwards.

    ``os._exit`` skips all cleanup, like an OOM kill or a segfault: the
    pool worker vanishes and its task's result never arrives, so the
    engine's per-point timeout is the recovery path.  Never run the
    first attempt inline — it takes the caller down with it.
    """

    def __init__(self, inner, marker: Path):
        self.inner = inner
        self.name = inner.name
        self.marker = marker

    def run(self, commands: Sequence, capture_data: bool = False) -> RunResult:
        if _claim_marker(self.marker):
            os._exit(17)
        return self.inner.run(commands, capture_data=capture_data)


class CacheCorruptor:
    """Vandalize a result-cache directory in reproducible ways.

    Every method returns the path(s) it wrote, so tests can assert the
    cache's reaction entry by entry.
    """

    def __init__(self, cache: ResultCache):
        self.cache = cache

    def _write(self, key: str, text: str) -> Path:
        path = self.cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return path

    def torn_entry(self, key: str) -> Path:
        """A write that died mid-flight: truncated JSON."""
        return self._write(key, '{"cycles": 12')

    def garbage_entry(self, key: str) -> Path:
        """Valid JSON, nonsense document (negative cycle count)."""
        return self._write(key, '{"cycles": -7}')

    def non_dict_entry(self, key: str) -> Path:
        """Valid JSON of the wrong shape entirely."""
        return self._write(key, "[1, 2, 3]")

    def strays(self) -> list:
        """Non-entry droppings maintenance paths must ignore: an
        orphaned atomic-write temp file, a note, and a mismatched
        fan-out name."""
        fan = self.cache.root / "ab"
        fan.mkdir(parents=True, exist_ok=True)
        paths = [
            fan / ".tmp-orphaned.json",
            self.cache.root / "README",
            fan / "zz-wrong-fanout.json",
        ]
        for path in paths:
            path.write_text("not a cache entry", encoding="utf-8")
        return paths


@pytest.fixture
def fault_systems(tmp_path):
    """Register the system injectors for one test; yield role -> name.

    The transient and kill-once injectors wrap ``pva-sdram`` and keep
    their markers under ``tmp_path``.  Pool workers fork from the test
    process, so they inherit the registrations.
    """
    factories = {
        "raising": lambda params: RaisingSystem(),
        "burner": lambda params: CycleBurnerSystem(),
        "transient": lambda params: TransientFaultSystem(
            build_system("pva-sdram", params),
            marker=tmp_path / "transient.attempted",
        ),
        "killer-once": lambda params: WorkerKillerSystem(
            build_system("pva-sdram", params),
            marker=tmp_path / "killer.fired",
        ),
    }
    names = {}
    for role, factory in factories.items():
        names[role] = f"fault-{role}"
        register_system(names[role], factory, overwrite=True)
    yield names
    for name in names.values():
        unregister_system(name, missing_ok=True)
