"""compare.py applies BENCHMARK.json's bounds and spreads."""

from __future__ import annotations

import json

import pytest

from perfbench import compare

SPEC = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "points_per_s", "unit": "points/s", "better": "higher", "bound": 0.1},
    ]
}


def _doc(wall, rate):
    return {
        "workloads": {
            "w": {
                "end_to_end": {
                    "wall_s": {"values": wall},
                    "points_per_s": {"values": rate},
                }
            }
        }
    }


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([10.0, 10.1, 10.2], [10.5, 10.6, 10.7], "lower", "ok"),
        ([10.0, 10.1, 10.2], [11.5, 11.6, 11.7], "lower", "regressed"),
        ([10.0, 10.1, 10.2], [8.5, 8.6, 8.7], "lower", "improved"),
        ([10.0, 10.1, 10.2], [8.5, 8.6, 8.7], "higher", "regressed"),
        ([8.0, 10.0, 12.0], [8.1, 10.1, 12.1], "lower", "unresolved"),
        ([8.0, 10.0, 12.0], [6.0, 6.5, 7.0], "lower", "improved"),
        ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], "higher", "ok"),
        ([0.0, 0.0], [0.0, 0.0], "lower", "ok"),
        ([0.0, 0.0], [1.0, 1.0], "lower", "regressed"),
    ],
)
def test_verdict(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.1) == expected


def test_setup_is_judged_on_medians_alone():
    a, b = [0.15, 0.16, 0.25], [0.15, 0.16, 0.17]
    assert compare.verdict(a, b, "lower", 0.25) == "unresolved"
    assert compare.verdict(a, b, "lower", 0.25, judge_spread=False) == "ok"
    assert compare.verdict(a, [0.3, 0.3, 0.3], "lower", 0.25, judge_spread=False) == (
        "regressed"
    )


def test_compare_rows_and_exit_status(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(compare, "load_spec", lambda: SPEC)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(_doc([10.0, 10.1, 10.2], [100.0, 99.0, 98.0])))
    b.write_text(json.dumps(_doc([10.1, 10.2, 10.3], [99.0, 98.0, 97.0])))
    assert compare.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert out.count(" ok") == 2

    b.write_text(json.dumps(_doc([12.0, 12.1, 12.2], [99.0, 98.0, 97.0])))
    assert compare.main([str(a), str(b)]) == 1
    assert "regressed" in capsys.readouterr().out


def test_quartiles_match_statistics_quantiles():
    assert compare.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    stats = compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert stats["median"] == 3.0
    assert compare.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (stats["q3"] - stats["q1"]) / 3.0
    )
