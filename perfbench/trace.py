"""Per-layer span tracing of repro, installed from outside the program.

:class:`Tracer` patches public entry points of repro with timing
wrappers, *where the program calls them*: a function imported with
``from x import f`` is replaced in the importing module, a method on its
class.  Each wrapper records one span per call.  A span's **self time**
is its duration minus the time of the spans it caused, minus a
per-span cost calibrated before installation, so the self times of all
layers plus the unattributed remainder add up to the traced wall time.

The simulation kernel's components are traced through proxies: while
``SimKernel.run`` executes, its component list is swapped for stand-ins
whose ``tick`` / ``next_event_cycle`` / ``account`` are wrapped bound
methods.  Proxies work on components that use ``__slots__``, because
nothing is set on the components themselves.

A wrap point the program no longer has is recorded in
:attr:`Tracer.absent` and skipped; installing never raises for it.
End-to-end runs install nothing.  Forked pool workers restore the
originals at fork time, so only the parent process is traced.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

__all__ = ["WRAP_POINTS", "SPAN_LAYERS", "Tracer"]

_clock = time.perf_counter
_MISSING = object()

#: (layer key, module, attribute path, records inclusive time).
WRAP_POINTS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("engine", "repro.engine.engine", "ExperimentEngine.run", True),
    ("engine.point_key", "repro.engine.engine", "point_key", False),
    ("engine.cache_get", "repro.engine.cache", "ResultCache.get", False),
    ("engine.cache_put", "repro.engine.cache", "ResultCache.put", False),
    ("kernels.point_trace", "repro.engine.engine", "build_point_trace", False),
    ("kernels.build_trace", "repro.engine.spec", "build_trace", False),
    ("kernels.build_trace", "repro.explore", "build_trace", False),
    ("api.build_system", "repro.engine.engine", "build_system", False),
    ("explore.run", "repro.explore", "run_explore", False),
    ("explore.enumerate", "repro.explore", "enumerate_candidates", True),
    ("analysis.bound", "repro.explore", "pva_lower_bound", False),
    ("config.config_key", "repro.config", "GenParams.config_key", False),
    ("pva.run", "repro.pva.system", "PVAMemorySystem.run", False),
    (
        "baselines.run",
        "repro.baselines.cacheline_serial",
        "CacheLineSerialSDRAM.run",
        False,
    ),
    (
        "baselines.run",
        "repro.baselines.gathering_serial",
        "GatheringSerialSDRAM.run",
        False,
    ),
    ("pva.broadcast", "repro.pva.bank_controller", "BankController.broadcast", False),
    (
        "pva.broadcast",
        "repro.pva.bank_controller",
        "BankController.broadcast_explicit",
        False,
    ),
    (
        "pva.broadcast",
        "repro.pva.bank_controller",
        "BankController.broadcast_pairs",
        False,
    ),
    ("pva.broadcast", "repro.pva.soa", "SoaBankAutomaton.broadcast_vector", False),
    ("pva.broadcast", "repro.pva.soa", "SoaBankAutomaton.broadcast_explicit", False),
    ("pva.broadcast", "repro.pva.soa", "SoaBankAutomaton.broadcast_pairs", False),
    ("pva.schedule", "repro.pva.bank_controller", "stride_schedule", False),
    ("pva.schedule", "repro.pva.bank_controller", "pairs_schedule", False),
    ("pva.schedule", "repro.pva.soa", "stride_schedule", False),
    ("pva.schedule", "repro.pva.soa", "pairs_schedule", False),
    ("pva.schedule", "repro.pva.soa", "broadcast_schedules", False),
    ("bus", "repro.bus.vector_bus", "VectorBus.is_free", False),
    ("bus", "repro.bus.vector_bus", "VectorBus.next_event_cycle", False),
    ("bus", "repro.bus.vector_bus", "VectorBus.broadcast_request", False),
    ("bus", "repro.bus.vector_bus", "VectorBus.stage_read", False),
    ("bus", "repro.bus.vector_bus", "VectorBus.stage_write", False),
    ("sim.kernel", "repro.sim.kernel", "SimKernel.run", False),
)

#: Self-time metric -> the span layer keys it sums.  Together with
#: ``trace.unattributed_s`` these partition the traced wall time.
SPAN_LAYERS: Dict[str, Tuple[str, ...]] = {
    "engine.self_s": ("engine",),
    "engine.point_key_s": ("engine.point_key",),
    "engine.cache_get_s": ("engine.cache_get",),
    "engine.cache_put_s": ("engine.cache_put",),
    "kernels.trace_build_s": ("kernels.point_trace", "kernels.build_trace"),
    "analysis.bound_s": ("analysis.bound",),
    "config.config_key_s": ("config.config_key",),
    "explore.self_s": ("explore.run", "explore.enumerate"),
    "api.build_system_s": ("api.build_system",),
    "pva.run_s": ("pva.run",),
    "pva.frontend_self_s": ("pva.frontend.tick", "pva.frontend.bound"),
    "pva.completion_s": ("pva.completion.tick", "pva.completion.bound"),
    "pva.broadcast_s": ("pva.broadcast",),
    "pva.schedule_s": ("pva.schedule",),
    "bus.s": ("bus", "bus.tick", "bus.bound"),
    "banks.tick_s": ("banks.tick",),
    "banks.bound_s": ("banks.bound",),
    "sim.kernel.self_s": ("sim.kernel",),
    "sim.kernel.account_s": ("sim.kernel.account",),
    "sim.other_component_s": ("sim.other.tick", "sim.other.bound"),
    "baselines.run_s": ("baselines.run", "baselines.tick", "baselines.bound"),
}

#: The self-time metrics that are the simulator proper.
_SIM_METRICS = tuple(
    name
    for name in SPAN_LAYERS
    if name.split(".")[0] in ("pva", "bus", "banks", "sim", "baselines")
)

#: Kernel component name -> layer prefix of its tick/bound spans.
_COMPONENT_LAYERS = {
    "front-end": "pva.frontend",
    "vector-bus": "bus",
    "completion": "pva.completion",
    "banks": "banks",
    "serial-engine": "baselines",
}
_TICK_KEYS = tuple(
    f"{prefix}.tick" for prefix in set(_COMPONENT_LAYERS.values())
) + ("sim.other.tick",)

#: Bank component class name -> backend label of ``banks.runs_*``.
_BANK_BACKENDS = {
    "_BankComponent": "object",
    "SoaBankAutomaton": "soa",
    "WindowBankAutomaton": "window",
}

#: The tracer whose patches forked children must undo (see _after_fork).
_active: Optional["Tracer"] = None
_fork_hook_registered = False


def _after_fork() -> None:
    if _active is not None:
        _active.uninstall()


def _make_span(fn, acc, stack, inner, outer, counted=None):
    """Wrap ``fn`` so each call adds its self time and a call count to
    ``acc`` (``[self_s, calls, inclusive_s]``).

    ``stack`` holds the child time of every open span (its bottom entry
    collects the root's).  ``inner`` is the calibrated wrapper cost
    inside a span's measured interval, ``outer`` the part its parent
    sees.  Given ``counted`` (a callable returning the total spans
    recorded so far), the span also records its inclusive duration net
    of every descendant's wrapper cost.
    """
    if counted is None:

        def span(*args, **kwargs):
            stack.append(0.0)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                acc[0] += elapsed - stack.pop() - inner
                acc[1] += 1
                stack[-1] += elapsed + outer

        return span

    per_span = inner + outer

    def coarse(*args, **kwargs):
        before = counted()
        stack.append(0.0)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _clock() - start
            acc[0] += elapsed - stack.pop() - inner
            acc[1] += 1
            acc[2] += elapsed - inner - (counted() - 1 - before) * per_span
            stack[-1] += elapsed + outer

    return coarse


def _calibrate(trials: int = 9, calls: int = 20000) -> Tuple[float, float]:
    """Median per-span wrapper cost, split into the part a span measures
    itself (``inner``) and the part only its parent sees (``outer``)."""

    def noop(_arg):
        return None

    inners: List[float] = []
    outers: List[float] = []
    for _ in range(trials):
        acc = [0.0, 0, 0.0]
        wrapped = _make_span(noop, acc, [0.0], 0.0, 0.0)
        start = _clock()
        for i in range(calls):
            noop(i)
        raw = _clock() - start
        start = _clock()
        for i in range(calls):
            wrapped(i)
        total = _clock() - start
        inner = max(0.0, (acc[0] - raw) / calls)
        inners.append(inner)
        outers.append(max(0.0, (total - raw) / calls - inner))
    return statistics.median(inners), statistics.median(outers)


def _resolve(module: str, path: str):
    """``(owner, attribute name, current value)`` of a wrap point."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Span recorder over :data:`WRAP_POINTS`; see the module docstring."""

    def __init__(self, wrap_points=WRAP_POINTS):
        self.wrap_points = wrap_points
        self.absent: List[str] = []
        self.backends: Dict[str, int] = {}
        self.inner = self.outer = 0.0
        self._layers: Dict[str, List] = {}
        self._stack: List[float] = [0.0]
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------- #
    # Installation
    # ------------------------------------------------------------- #

    def install(self) -> "Tracer":
        """Calibrate, then patch every wrap point that exists."""
        global _active, _fork_hook_registered
        self.inner, self.outer = _calibrate()
        for key, module, path, inclusive in self.wrap_points:
            try:
                owner, attr, current = _resolve(module, path)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}:{path}")
                continue
            if path == "SimKernel.run":
                wrapper = self._kernel_run(current)
            else:
                wrapper = self._span(current, key, inclusive)
                functools.update_wrapper(wrapper, current)
                # lru_cache'd functions keep their cache controls: the
                # program calls cache_info()/cache_clear() on them.
                for name in ("cache_info", "cache_clear", "cache_parameters"):
                    if hasattr(current, name):
                        setattr(wrapper, name, getattr(current, name))
            saved = owner.__dict__.get(attr, _MISSING)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, saved))
        _active = self
        if not _fork_hook_registered and hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=_after_fork)
            _fork_hook_registered = True
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        global _active
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        if _active is self:
            _active = None

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------- #
    # Wrappers
    # ------------------------------------------------------------- #

    def _acc(self, key: str) -> List:
        return self._layers.setdefault(key, [0.0, 0, 0.0])

    def _spans_recorded(self) -> int:
        return sum(acc[1] for acc in self._layers.values())

    def _span(self, fn, key: str, inclusive: bool = False):
        return _make_span(
            fn,
            self._acc(key),
            self._stack,
            self.inner,
            self.outer,
            counted=self._spans_recorded if inclusive else None,
        )

    def _proxy(self, component):
        name = getattr(component, "name", "")
        prefix = _COMPONENT_LAYERS.get(name)
        if prefix is None:
            prefix = "banks" if name.startswith("bank-") else "sim.other"
        return SimpleNamespace(
            name=name,
            tick=self._span(component.tick, f"{prefix}.tick"),
            next_event_cycle=self._span(
                component.next_event_cycle, f"{prefix}.bound"
            ),
            account=self._span(component.account, "sim.kernel.account"),
        )

    def _kernel_run(self, run):
        span = self._span(run, "sim.kernel")

        def traced_run(kernel, done):
            components = getattr(kernel, "_components", None)
            if components is None:
                if "SimKernel._components" not in self.absent:
                    self.absent.append("SimKernel._components")
                return span(kernel, done)
            backend = None
            for component in components:
                backend = _BANK_BACKENDS.get(type(component).__name__, backend)
            if backend is not None:
                self.backends[backend] = self.backends.get(backend, 0) + 1
            kernel._components = [self._proxy(c) for c in components]
            try:
                return span(kernel, done)
            finally:
                kernel._components = components

        functools.update_wrapper(traced_run, run)
        return traced_run

    # ------------------------------------------------------------- #
    # Results
    # ------------------------------------------------------------- #

    def self_s(self, *keys: str) -> float:
        return sum(self._layers.get(key, (0.0,))[0] for key in keys)

    def calls(self, *keys: str) -> int:
        return sum(self._layers.get(key, (0.0, 0))[1] for key in keys)

    def inclusive_s(self, key: str) -> float:
        return self._layers.get(key, (0.0, 0, 0.0))[2]

    def metrics(self, wall_s: float, sim_cycles: int) -> Dict[str, float]:
        """Per-layer metrics of the traced interval of ``wall_s``
        seconds, in which the program simulated ``sim_cycles`` cycles.

        Self times are clamped at zero (calibration noise can push a
        near-empty layer slightly negative); the unattributed remainder
        is computed from the clamped values, so the identity
        ``sum(SPAN_LAYERS metrics) + trace.unattributed_s == trace.wall_s``
        holds exactly.
        """
        out: Dict[str, float] = {
            name: max(0.0, self.self_s(*keys))
            for name, keys in SPAN_LAYERS.items()
        }
        attributed = sum(out.values())
        sim_host = sum(out[name] for name in _SIM_METRICS)
        ticks = self.calls(*_TICK_KEYS)
        explored = self.calls("explore.run") > 0
        out.update(
            {
                "kernels.trace_builds": self.calls("kernels.build_trace"),
                "analysis.bound_calls": self.calls("analysis.bound"),
                "config.config_key_calls": self.calls("config.config_key"),
                "explore.enumerate_s": self.inclusive_s("explore.enumerate"),
                "explore.simulate_s": (
                    self.inclusive_s("engine") if explored else 0.0
                ),
                "pva.broadcasts": self.calls("pva.broadcast"),
                "pva.schedule_calls": self.calls("pva.schedule"),
                "bus.calls": self.calls(*SPAN_LAYERS["bus.s"]),
                "banks.tick_calls": self.calls("banks.tick"),
                "banks.runs_object": self.backends.get("object", 0),
                "banks.runs_soa": self.backends.get("soa", 0),
                "banks.runs_window": self.backends.get("window", 0),
                "sim.kernel.ticks_per_sim_cycle": (
                    ticks / sim_cycles if sim_cycles else 0.0
                ),
                "sim.kernel.host_ns_per_sim_cycle": (
                    sim_host * 1e9 / sim_cycles if sim_cycles else 0.0
                ),
                "trace.wall_s": wall_s,
                "trace.unattributed_s": wall_s - attributed,
                "trace.span_cost_ns": (self.inner + self.outer) * 1e9,
                "trace.spans": self._spans_recorded(),
                "trace.absent_points": len(self.absent),
            }
        )
        return out
