"""The reference-vs-fast benchmark harness (``python -m repro bench``)."""

from __future__ import annotations

import json

import pytest

from repro.bench import HEADLINE_STRIDE, format_bench, run_bench
from repro.cli import main
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def quick_report():
    """One tiny benchmark run shared by the assertions below."""
    return run_bench(
        elements=64, repeats=1, quick=True, systems=("pva-sdram",)
    )


class TestRunBench:
    def test_report_shape(self, quick_report):
        report = quick_report
        assert report["stride"] == HEADLINE_STRIDE
        assert report["quick"] is True
        entry = report["systems"]["pva-sdram"]
        for field in (
            "simulated_cycles",
            "reference_seconds",
            "fast_seconds",
            "reference_cycles_per_second",
            "fast_cycles_per_second",
            "speedup",
        ):
            assert field in entry, field
        assert entry["simulated_cycles"] > 0
        assert entry["reference_seconds"] > 0
        assert entry["fast_seconds"] > 0
        assert report["grid"]["reference_seconds"] > 0
        assert report["speedup"] > 0

    def test_report_carries_attribution(self, quick_report):
        entry = quick_report["systems"]["pva-sdram"]
        attribution = entry["attribution"]
        assert "front-end" in attribution
        assert any(name.startswith("bank-") for name in attribution)
        for buckets in attribution.values():
            total = buckets["busy"] + buckets["stalled"] + buckets["idle"]
            assert total == entry["simulated_cycles"]

    def test_report_is_json_serializable(self, quick_report):
        parsed = json.loads(json.dumps(quick_report))
        assert parsed["systems"]["pva-sdram"]["simulated_cycles"] > 0

    def test_format_renders_every_system(self, quick_report):
        text = format_bench(quick_report)
        assert "pva-sdram" in text
        assert "speedup" in text

    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigurationError):
            run_bench(elements=16, quick=True, systems=("no-such-system",))

    def test_serial_systems_are_not_benchmarked(self):
        """The serial baselines do not read ``sim_mode``: timing them
        under both backends would compare the same code with itself."""
        with pytest.raises(ConfigurationError):
            run_bench(
                elements=64, repeats=1, quick=True, systems=("cacheline-serial",)
            )
        with pytest.raises(SystemExit):
            main(
                ["bench", "--quick", "--elements", "64", "--repeats", "1",
                 "--out", "", "--system", "gathering-serial"]
            )

    def test_sparse_section_shape_and_cross_checks(self, quick_report):
        entry = quick_report["sparse"]
        assert entry["issue_interval"] == 256
        # The run itself is the cross-check: run_bench raises unless the
        # two backends agreed on cycles and the ledger.
        assert entry["simulated_cycles"] > 0
        for buckets in entry["attribution"].values():
            total = buckets["busy"] + buckets["stalled"] + buckets["idle"]
            assert total == entry["simulated_cycles"]
        assert entry["reference_seconds"] > 0
        assert entry["fast_seconds"] > 0
        assert entry["speedup"] > 0

    def test_backend_disagreement_refuses_to_report(self, monkeypatch):
        # The cross-check behind every section: a fast backend that
        # drifts from the reference on cycles or on the ledger is
        # refused, not timed.
        import repro.bench as bench

        timed = bench._time_mode

        for drift in ("cycles", "attribution"):

            def drifting(system, params, *args, _drift=drift, **kwargs):
                result = timed(system, params, *args, **kwargs)
                if params.sim_mode == "fast":
                    if _drift == "cycles":
                        result["cycles"] += 1
                    else:
                        result["attribution"] = {}
                return result

            monkeypatch.setattr(bench, "_time_mode", drifting)
            with pytest.raises(ConfigurationError, match="disagree"):
                run_bench(
                    elements=64, repeats=1, quick=True, systems=("pva-sdram",)
                )

    def test_report_header_records_canonical_config(self, quick_report):
        from repro.params import SystemParams

        config = quick_report["config"]
        assert config["topology"] == {
            "num_channels": 1,
            "ranks_per_channel": 1,
            "banks_per_rank": 16,
        }
        assert quick_report["config_key"] == (
            SystemParams.from_dict(config).config_key()
        )

    def test_env_overrides_suspended_during_bench(self, monkeypatch):
        # A forced global mode must not leak into the benchmark's
        # backend pair (each section times what it claims to time).
        from repro.params import ENV_SIM_MODE

        monkeypatch.setenv(ENV_SIM_MODE, "reference")
        report = run_bench(
            elements=64, repeats=1, quick=True, systems=("pva-sdram",)
        )
        assert report["config"]["sim_mode"] == "fast"
        assert report["systems"]["pva-sdram"]["fast_cycles_per_second"] > 0
        # The override is restored afterwards.
        import os

        assert os.environ[ENV_SIM_MODE] == "reference"

    def test_format_renders_sparse(self, quick_report):
        text = format_bench(quick_report)
        assert "reference" in text
        assert "throttled front end (issue_interval=256)" in text

    def test_history_record_shape(self, quick_report):
        from repro.bench import history_record

        record = history_record(quick_report)
        assert record["quick"] is True
        assert record["elements"] == 64
        assert record["stride"] == HEADLINE_STRIDE
        assert record["config_key"] == quick_report["config_key"]
        for field in (
            "reference_cycles_per_second",
            "fast_cycles_per_second",
            "sparse_speedup",
        ):
            assert record[field] > 0, field
        # One JSONL line, not a nested report.
        assert "\n" not in json.dumps(record)


class TestBenchCLI:
    def test_quick_bench_writes_report_and_history(self, tmp_path, capsys):
        out = tmp_path / "BENCH_sim.json"
        history = tmp_path / "BENCH_history.jsonl"
        code = main(
            [
                "bench",
                "--quick",
                "--elements",
                "64",
                "--repeats",
                "1",
                "--system",
                "pva-sdram",
                "--out",
                str(out),
                "--history",
                str(history),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["systems"]["pva-sdram"]["simulated_cycles"] > 0
        lines = history.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["config_key"] == report["config_key"]
        assert record["date"]
        assert "speedup" in capsys.readouterr().out

    def test_history_suppressed_without_report(self, tmp_path, monkeypatch):
        # --out '' means "test invocation": neither the report nor the
        # history line may touch the tracked files in the cwd.
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "bench",
                "--quick",
                "--elements",
                "64",
                "--repeats",
                "1",
                "--system",
                "pva-sdram",
                "--out",
                "",
            ]
        )
        assert code == 0
        assert list(tmp_path.iterdir()) == []

    def test_min_speedup_gate_fails_cleanly(self, tmp_path):
        code = main(
            [
                "bench",
                "--quick",
                "--elements",
                "64",
                "--repeats",
                "1",
                "--system",
                "pva-sdram",
                "--out",
                "",
                "--min-speedup",
                "1000",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flag",
        (
            "--min-precompute-speedup",
            "--min-soa-speedup",
            "--min-window-speedup",
        ),
    )
    def test_removed_rung_gates_are_rejected(self, flag):
        # The per-rung gates left with the rungs; --min-speedup is the
        # one reference-vs-fast gate.
        with pytest.raises(SystemExit):
            main(["bench", "--quick", "--out", "", flag, "1.0"])

    def test_profile_writes_per_section_summaries(self, tmp_path):
        out = tmp_path / "report.json"
        prof = tmp_path / "prof"
        code = main(
            [
                "bench",
                "--quick",
                "--elements",
                "64",
                "--repeats",
                "1",
                "--system",
                "pva-sdram",
                "--out",
                str(out),
                "--history",
                "",
                "--profile",
                str(prof),
            ]
        )
        assert code == 0
        names = {p.name for p in prof.iterdir()}
        for section in ("reference", "fast", "sparse-reference", "sparse-fast"):
            assert f"{section}-pva-sdram.txt" in names, section
        text = (prof / "fast-pva-sdram.txt").read_text()
        assert "cumulative" in text
