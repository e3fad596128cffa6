"""Experiment-point specifications and content-addressed cache keys.

A point is the unit of work the engine schedules: one memory system, one
command trace, one parameter set.  Points must be

* **picklable** — they cross the process boundary to pool workers;
* **declarative** — the trace is described by data (a kernel recipe or a
  literal command tuple), never by a closure, so two processes given the
  same spec build the identical trace;
* **hashable to a stable key** — :func:`point_key` canonicalizes the
  spec (dataclasses to sorted-key JSON, enums to values) and SHA-256s it
  together with a code-version salt, giving the on-disk result cache its
  content address.  The same spec yields the same key in any process on
  any machine; any parameter change yields a different key.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from repro.kernels import alignment_by_name, build_trace, kernel_by_name
from repro.config import CONFIG_SCHEMA_VERSION
from repro.params import SystemParams
from repro.types import ExplicitCommand, VectorCommand

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "KernelTraceSpec",
    "CommandTraceSpec",
    "TraceSpec",
    "ExperimentPoint",
    "default_salt",
    "canonical",
    "point_key",
    "build_point_trace",
]

#: The salt folds this into every point key, so bumping
#: :data:`repro.config.CONFIG_SCHEMA_VERSION` (which keeps the history)
#: invalidates every stale cache entry.
CACHE_SCHEMA_VERSION = CONFIG_SCHEMA_VERSION


@dataclass(frozen=True)
class KernelTraceSpec:
    """A section-6.2 kernel trace, described by its recipe.

    The worker rebuilds the trace with
    :func:`repro.kernels.build_trace`, which is deterministic in these
    four fields plus the point's :class:`SystemParams` (array regions
    depend on the memory geometry).
    """

    kernel: str
    stride: int
    alignment: str = "aligned"
    elements: int = 1024


@dataclass(frozen=True)
class CommandTraceSpec:
    """A literal command tuple (ablations and micro-experiments).

    ``label`` names the trace in progress output; it is part of the cache
    key only through the commands themselves, so relabelling does not
    invalidate results.
    """

    commands: Tuple[Union[VectorCommand, ExplicitCommand], ...]
    label: str = ""


TraceSpec = Union[KernelTraceSpec, CommandTraceSpec]


@dataclass(frozen=True)
class ExperimentPoint:
    """One schedulable unit: (system, trace, params)."""

    system: str
    trace: TraceSpec
    params: SystemParams = field(default_factory=SystemParams)

    def describe(self) -> str:
        """Short human-readable label for progress output."""
        trace = self.trace
        if isinstance(trace, KernelTraceSpec):
            return (
                f"{self.system}:{trace.kernel}"
                f"/s{trace.stride}/{trace.alignment}"
            )
        label = trace.label or f"{len(trace.commands)} commands"
        return f"{self.system}:{label}"


def default_salt() -> str:
    """The code-version salt folded into every cache key."""
    from repro import __version__

    return f"repro-{__version__}/schema-{CACHE_SCHEMA_VERSION}"


#: Types :func:`canonical` returns as they are (exact types: an enum
#: that subclasses ``int`` or ``str`` still reduces to its value).
_PLAIN = frozenset((type(None), bool, int, float, str))
#: Field names per dataclass type, read once per type.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def canonical(obj):
    """Reduce a spec object to JSON-serializable primitives, stably.

    Plain values come back as they are, tuples and lists become lists,
    dataclasses become ``{field: value}`` dicts (field order is class
    definition order, but the JSON encoder sorts keys anyway), enums
    become their values.
    """
    kind = type(obj)
    if kind in _PLAIN:
        return obj
    if kind is tuple or kind is list:
        return [
            item if type(item) in _PLAIN else canonical(item) for item in obj
        ]
    names = _FIELD_NAMES.get(kind)
    if names is None and dataclasses.is_dataclass(kind):
        names = _FIELD_NAMES[kind] = tuple(
            f.name for f in dataclasses.fields(kind)
        )
    if names is not None:
        return {name: canonical(getattr(obj, name)) for name in names}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for cache keying"
    )


def point_key(point: ExperimentPoint, salt: str) -> str:
    """Content address of one point's result: SHA-256 over the canonical
    JSON of (salt, system, params, trace)."""
    material = {
        "salt": salt,
        "system": point.system,
        "params": point.params.to_dict(),
        "trace": {
            "kind": type(point.trace).__name__,
            "spec": canonical(point.trace),
        },
    }
    if isinstance(point.trace, CommandTraceSpec):
        # The label is cosmetic; keep it out of the key.
        material["trace"]["spec"].pop("label", None)
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def build_point_trace(point: ExperimentPoint) -> List:
    """Materialize the command trace a point describes (worker side)."""
    trace = point.trace
    if isinstance(trace, KernelTraceSpec):
        return build_trace(
            kernel_by_name(trace.kernel),
            stride=trace.stride,
            params=point.params,
            elements=trace.elements,
            alignment=alignment_by_name(trace.alignment),
        )
    return list(trace.commands)
