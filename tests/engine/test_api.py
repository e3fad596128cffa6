"""The repro.api facade: registry, simulate() and top-level exports."""

import warnings

import pytest

import repro
from repro.api import (
    available_systems,
    build_system,
    register_system,
    simulate,
    system_entry,
    unregister_system,
)
from repro.errors import ConfigurationError
from repro.kernels import build_trace, kernel_by_name
from repro.params import SystemParams


def _trace(params, stride=1, elements=64):
    return build_trace(
        kernel_by_name("copy"), stride=stride, params=params, elements=elements
    )


def test_registry_lists_all_four_systems():
    names = available_systems()
    assert set(names) >= {
        "pva-sdram",
        "pva-sram",
        "cacheline-serial",
        "gathering-serial",
    }


def test_unknown_system_raises_configuration_error():
    with pytest.raises(ConfigurationError) as excinfo:
        build_system("no-such-system")
    # The error names the valid choices.
    assert "pva-sdram" in str(excinfo.value)
    with pytest.raises(ConfigurationError):
        system_entry("no-such-system")
    with pytest.raises(ConfigurationError):
        simulate([], system="no-such-system")


def test_simulate_matches_direct_construction():
    from repro.pva import PVAMemorySystem

    params = SystemParams()
    trace = _trace(params)
    result = simulate(trace, params)
    assert result.cycles == PVAMemorySystem(params).run(trace).cycles


def test_simulate_selects_system_by_name():
    params = SystemParams()
    trace = _trace(params, stride=19)
    pva = simulate(trace, params, system="pva-sdram").cycles
    serial = simulate(trace, params, system="cacheline-serial").cycles
    assert serial > pva


def test_simulate_keyword_only_options():
    with pytest.raises(TypeError):
        simulate([], SystemParams(), "pva-sdram")  # system must be keyword


def test_simulate_uses_fresh_instance_per_call():
    params = SystemParams()
    trace = _trace(params)
    assert simulate(trace, params).cycles == simulate(trace, params).cycles


def test_register_system_requires_overwrite_to_replace():
    with pytest.raises(ConfigurationError):
        register_system(
            "pva-sdram", lambda params: None, description="dup"
        )


def test_unregister_unknown_raises_unless_missing_ok():
    with pytest.raises(ConfigurationError):
        unregister_system("no-such-system")
    unregister_system("no-such-system", missing_ok=True)


def test_registry_entry_carries_alignment_flag():
    assert system_entry("cacheline-serial").alignment_free
    assert not system_entry("pva-sdram").alignment_free


def test_top_level_reexports():
    assert repro.simulate is simulate
    assert repro.build_system is build_system
    assert repro.available_systems is available_systems


def test_unknown_top_level_name_still_attribute_error():
    with pytest.raises(AttributeError):
        repro.definitely_not_a_name


def test_home_module_imports_stay_warning_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro.baselines import CacheLineSerialSDRAM  # noqa: F401
        from repro.pva import PVAMemorySystem  # noqa: F401
