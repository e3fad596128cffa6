"""Workload generators beyond the paper's six kernels: seeded random
command streams, the programs the oracles draw."""

from repro.workloads.random_traces import RandomTraceConfig, random_trace

__all__ = [
    "RandomTraceConfig",
    "random_trace",
]
