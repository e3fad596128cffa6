"""The design-space exploration driver (``python -m repro explore``)."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.explore import (
    QUICK_SPEC,
    SweepSpec,
    enumerate_candidates,
    format_explore,
    run_explore,
)


@pytest.fixture(scope="module")
def quick_report():
    return run_explore(QUICK_SPEC)


class TestSweepSpec:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(axes={"clock_ghz": [1, 2]})

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(axes={})
        with pytest.raises(ConfigurationError):
            SweepSpec(axes={"num_banks": []})

    def test_non_pva_system_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(axes={"num_banks": [8]}, system="cacheline-serial")

    def test_negative_slack_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(axes={"num_banks": [8]}, prune_slack=-0.1)
        # NaN is not negative either, but it fails every bound test and
        # so turns pruning off; a JSON spec may carry it.
        with pytest.raises(ConfigurationError):
            SweepSpec.from_dict(
                json.loads('{"axes": {"num_banks": [8]}, "prune_slack": NaN}')
            )

    @pytest.mark.parametrize(
        "workload",
        [
            {"elements": "64"},
            {"stride": 2.5},
            {"prune_slack": "x"},
            {"elements": True},
            {"stride": True},
        ],
        ids=["elements-str", "stride-float", "slack-str", "elements-bool",
             "stride-bool"],
    )
    def test_mistyped_workload_fields_rejected(self, workload):
        with pytest.raises(ConfigurationError):
            SweepSpec.from_dict({"axes": {"num_banks": [8]}, **workload})

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec.from_dict({"axes": {"num_banks": [8]}, "turbo": True})

    def test_round_trips_through_dict(self):
        spec = SweepSpec.from_dict(QUICK_SPEC.to_dict())
        assert spec == QUICK_SPEC


class TestEnumeration:
    def test_invalid_combos_are_counted_not_dropped(self):
        spec = SweepSpec(
            axes={"num_banks": [8, 16], "num_channels": [1, 32]},
            elements=64,
        )
        candidates, invalid = enumerate_candidates(spec)
        # num_channels=32 cannot fit either bank count.
        assert len(candidates) == 2
        assert len(invalid) == 2
        assert all("reason" in record for record in invalid)

    def test_elements_round_up_to_the_line_size(self):
        spec = SweepSpec(axes={"cache_line_words": [16, 64]}, elements=100)
        candidates, _ = enumerate_candidates(spec)
        by_line = {
            c.params.cache_line_words: c.elements for c in candidates
        }
        assert by_line == {16: 112, 64: 128}


class TestRunExplore:
    def test_quick_sweep_acceptance(self, quick_report):
        report = quick_report
        assert report["invalid"] == 0
        assert report["enumerated"] == 12
        # Pre-filtering measurably bites: >= 30% of the sweep skipped.
        assert report["prune_fraction"] >= 0.30
        assert report["pruned"] + report["simulated"] == report["candidates"]
        assert report["pareto"], "Pareto frontier must be non-empty"

    def test_every_simulated_point_respects_its_bound(self, quick_report):
        for record in quick_report["points"]:
            if record["status"] == "simulated":
                assert record["cycles"] >= record["lower_bound"]
            else:
                assert record["cycles"] is None

    def test_pareto_frontier_is_minimal_and_sorted(self, quick_report):
        frontier = quick_report["pareto"]
        simulated = [
            r for r in quick_report["points"] if r["status"] == "simulated"
        ]
        complexities = [p["complexity"] for p in frontier]
        cycles = [p["cycles"] for p in frontier]
        assert complexities == sorted(complexities)
        assert cycles == sorted(cycles, reverse=True)
        # No simulated point strictly dominates a frontier member.
        for member in frontier:
            assert not any(
                other["complexity"] <= member["complexity"]
                and other["cycles"] < member["cycles"]
                for other in simulated
            )

    def test_points_carry_canonical_config_keys(self, quick_report):
        from repro.params import SystemParams

        record = quick_report["points"][0]
        rebuilt = SystemParams(**record["settings"])
        assert rebuilt.config_key() == record["config_key"]

    def test_report_is_json_serializable(self, quick_report):
        parsed = json.loads(json.dumps(quick_report))
        assert parsed["spec"]["kernel"] == "copy"

    def test_slack_prunes_at_least_as_much_as_exact(self, quick_report):
        slack_doc = QUICK_SPEC.to_dict()
        slack_doc["prune_slack"] = 0.5
        slacked = run_explore(SweepSpec.from_dict(slack_doc))
        assert slacked["pruned"] >= quick_report["pruned"]

    def test_format_renders_summary(self, quick_report):
        text = format_explore(quick_report)
        assert "Pareto frontier" in text
        assert "pruned by analytic bound" in text


class TestExploreCLI:
    def test_quick_writes_report_and_passes_gate(self, tmp_path, capsys):
        out = tmp_path / "EXPLORE.json"
        code = main(
            [
                "explore",
                "--quick",
                "--min-prune-fraction",
                "0.3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pareto"]
        assert "Pareto" in capsys.readouterr().out

    def test_spec_file_round_trip(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "axes": {"num_banks": [4, 8]},
                    "kernel": "copy",
                    "stride": 1,
                    "elements": 64,
                }
            )
        )
        assert main(["explore", "--spec", str(spec_path)]) == 0

    def test_axis_flags_build_a_sweep(self, capsys):
        assert (
            main(
                [
                    "explore",
                    "--banks",
                    "8,16",
                    "--contexts",
                    "1,4",
                    "--row-policy",
                    "paper,close",
                    "--kernel",
                    "copy",
                    "--stride",
                    "1",
                    "--elements",
                    "64",
                    "--prune-slack",
                    "0.1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "row_policy" in out and "8 enumerated" in out

    def test_unreachable_gate_fails_cleanly(self):
        code = main(
            [
                "explore",
                "--quick",
                "--min-prune-fraction",
                "0.99",
            ]
        )
        assert code == 1

    def test_bad_spec_file_fails_cleanly(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"axes": {"warp_factor": [9]}}')
        assert main(["explore", "--spec", str(spec_path)]) == 2

    @pytest.mark.parametrize(
        "axes",
        [
            {"num_banks": [8], "max_transactions": ["8"]},
            {"num_banks": [8], "num_vector_contexts": [2.5]},
            {"num_banks": [True]},
        ],
    )
    def test_non_int_axis_values_are_invalid_combos(
        self, tmp_path, capsys, axes
    ):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"axes": axes, "elements": 64}))
        out = tmp_path / "EXPLORE.json"
        code = main(["explore", "--spec", str(spec_path), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["invalid"] == 1
        assert report["simulated"] == 0 and report["pareto"] == []
        assert "must be of type int" in report["invalid_combos"][0]["reason"]
        assert "1 invalid" in capsys.readouterr().out
