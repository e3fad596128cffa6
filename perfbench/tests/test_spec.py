"""BENCHMARK.json against what the benchmark actually reports."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench.compare import load_spec
from perfbench.workloads import WORKLOADS

from .conftest import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_shape_and_names():
    spec = load_spec()
    assert set(spec) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["perfbench"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WORKLOADS
    names = [w["name"] for w in spec["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            names.append(metric["name"])
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(spec["per_layer"]) <= 128


def _run_cli(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_reports_exactly_the_spec_metrics(trace):
    spec = load_spec()
    result = _run_cli(
        "--workload", "gather-scatter", "--seed", "3", "--size", "tiny",
        "--repeats", "1", "--trace", trace,
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    for metric in spec[section]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


def test_cli_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and perfbench/, the benchmark exits
    non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", "paper-grid", "--seed", "1", "--seconds", "5",
            "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
