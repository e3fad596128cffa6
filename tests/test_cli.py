"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

from .engine.injectors import CacheCorruptor


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_kernel(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--kernel", "nope"])

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "12"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["parameter", "value"]
        rows = [tuple(line.split()) for line in lines[2:]]
        # Every describe() key, in order: a reordered or dropped row fails.
        assert rows == [
            ("schema_version", "7"),
            ("num_banks", "16"),
            ("num_channels", "1"),
            ("cache_line_words", "32"),
            ("max_transactions", "8"),
            ("num_vector_contexts", "4"),
            ("request_fifo_depth", "8"),
            ("sdram.t_rcd", "2"),
            ("sdram.cas_latency", "2"),
            ("sdram.t_rp", "2"),
            ("sdram.t_wr", "1"),
            ("sdram.internal_banks", "4"),
            ("sdram.row_words", "512"),
            ("sdram.refresh_interval", "0"),
            ("sdram.t_rfc", "8"),
            ("sram.access_cycles", "1"),
            ("fhc_latency", "2"),
            ("bus_turnaround", "1"),
            ("bypass_paths", "True"),
            ("row_policy", "paper"),
            ("issue_interval", "0"),
            ("sim_mode", "fast"),
            ("stage_cycles", "16"),
            ("channel_stage_cycles", "16"),
        ]

    def test_run_point(self, capsys):
        code = main(
            [
                "run",
                "--kernel",
                "scale",
                "--stride",
                "19",
                "--elements",
                "128",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pva-sdram" in out
        assert "cacheline-serial" in out
        assert "vs best" in out

    def test_run_subset_of_systems(self, capsys):
        code = main(
            [
                "run",
                "--kernel",
                "copy",
                "--stride",
                "4",
                "--elements",
                "64",
                "--system",
                "pva-sdram",
                "--system",
                "gathering-serial",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pva-sdram" in out
        assert "cacheline-serial" not in out

    def test_run_invalid_elements(self, capsys):
        code = main(
            ["run", "--kernel", "copy", "--stride", "1", "--elements", "100"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_figure_9_small(self, capsys):
        assert main(["figure", "9", "--elements", "64"]) == 0
        out = capsys.readouterr().out
        assert "cacheline norm" in out
        assert "tridiag" in out

    def test_ablation_bypass(self, capsys):
        assert main(["ablation", "bypass"]) == 0
        out = capsys.readouterr().out
        assert "saved cycles" in out

    def test_complexity(self, capsys):
        assert main(["complexity"]) == 0
        out = capsys.readouterr().out
        assert "Paper Table 1" in out
        assert "2048" in out

    def test_sweep(self, capsys):
        assert main(
            ["sweep", "--kernel", "scale", "--max-stride", "4",
             "--elements", "64"]
        ) == 0
        out = capsys.readouterr().out
        assert "banks hit" in out
        assert out.count("\n") >= 5  # header + rule + 4 strides

    def test_sweep_invalid_elements(self, capsys):
        assert main(["sweep", "--elements", "65"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--elements", "0"],
            ["grid", "--elements", "-32", "--kernel", "copy", "--stride", "1",
             "--alignment", "aligned", "--system", "pva-sdram"],
            ["figure", "9", "--elements", "0"],
            ["sweep", "--elements", "0"],
            ["all", "--elements", "0"],
            ["sweep", "--max-stride", "0"],
            ["explore", "--banks", "x"],
            ["explore", "--fifo", ""],
            ["grid", "--jobs", "0"],
            ["ablation", "bypass", "--jobs", "-3"],
            ["explore", "--quick", "--prune-slack", "nan"],
            ["explore", "--stride", "0"],
            ["explore", "--elements", "0"],
            ["explore", "--spec", "missing.json"],
            ["explore", "--spec", "invalid.json"],
            ["explore", "--spec", "list.json"],
            ["explore", "--quick", "--min-prune-fraction", "nan"],
            ["explore", "--quick", "--min-prune-fraction", "1.5"],
        ],
        ids=[
            "run", "grid", "figure", "sweep", "all", "sweep-max-stride",
            "explore-banks", "explore-empty-fifo", "grid-jobs-0",
            "ablation-negative-jobs", "explore-nan-slack", "explore-stride",
            "explore-elements", "explore-missing-spec",
            "explore-invalid-json-spec", "explore-list-spec",
            "explore-nan-min-prune", "explore-min-prune-above-1",
        ],
    )
    def test_non_positive_sizes_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "invalid.json").write_text("{")
        (tmp_path / "list.json").write_text("[]")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_grid_reports_quarantined_cache_entries(self, tmp_path, capsys):
        """A torn cache entry is moved to quarantine/, re-simulated, and
        counted on the [engine] line."""
        from repro.engine import ResultCache

        argv = [
            "grid", "--kernel", "copy", "--stride", "1", "--alignment",
            "aligned", "--system", "pva-sdram", "--elements", "64",
            "--cache", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        cache = ResultCache(tmp_path)
        (entry,) = cache.root.glob("*/*.json")
        CacheCorruptor(cache).torn_entry(entry.stem)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == cold
        assert "1 simulated" in captured.err
        assert "1 quarantined" in captured.err
        quarantine = tmp_path / ResultCache.QUARANTINE_DIR
        assert (quarantine / f"{entry.name}.quarantined").exists()

    def test_grid_reports_merged_points(self, capsys):
        """``aligned`` and ``row-conflict`` place the arrays whole row
        periods apart, so each PVA point of one alignment merges into
        the other's class, and the [engine] line counts it."""
        argv = [
            "grid", "--kernel", "copy", "--stride", "1", "--stride", "19",
            "--alignment", "aligned", "--alignment", "row-conflict",
            "--elements", "64",
        ]
        assert main(argv) == 0
        err = capsys.readouterr().err
        (line,) = [line for line in err.splitlines() if "simulated" in line]
        merged = int(line.split(" merged")[0].rsplit(" ", 1)[-1])
        assert merged > 0
        assert "coalesced" in line

    def test_all_artifacts(self, tmp_path, capsys):
        assert main(
            ["all", "--out", str(tmp_path), "--elements", "64"]
        ) == 0
        out = capsys.readouterr().out
        assert "artifacts" in out
        names = {p.name for p in tmp_path.glob("*.txt")}
        assert "figure7.txt" in names
        assert "headline.txt" in names
        assert "ablation_row_policy.txt" in names
        assert len(names) >= 12
