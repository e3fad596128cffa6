"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

# The differential harness asserts outside a test module; rewrite it so
# its checks survive ``python -O`` like the test modules' own.
pytest.register_assert_rewrite("tests.sim.differential")

from repro.params import SDRAMTiming, SystemParams  # noqa: E402


@pytest.fixture
def prototype_params() -> SystemParams:
    """The paper's prototype configuration (16 banks, 32-word lines)."""
    return SystemParams()


@pytest.fixture
def small_params() -> SystemParams:
    """A reduced configuration that keeps cycle-level tests fast while
    still exercising multi-bank behaviour."""
    return SystemParams(
        num_banks=4,
        cache_line_words=8,
        sdram=SDRAMTiming(row_words=64),
    )
