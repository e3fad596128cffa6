"""Corrupted output must raise the failure count."""

from __future__ import annotations

import dataclasses

import pytest

from perfbench.checks import check


def test_clean_repeat_passes(tiny_repeat):
    repeat = tiny_repeat("paper-grid")
    verdict = check(repeat, {}, reference=True)
    assert verdict["failed"] == 0, verdict["notes"]
    assert verdict["attempted"] == repeat.points > 0
    assert verdict["reference"]["checked"] >= 1
    assert verdict["reference"]["mismatched"] == 0


@pytest.mark.parametrize("name", ["paper-grid", "explore-sweep", "gather-scatter"])
def test_corrupted_golden_fails_every_point(tiny_repeat, name):
    repeat = tiny_repeat(name)
    wrong = {"digest": "0" * 16}
    golden = {
        "tiny": {
            "paper-grid": wrong,
            "explore-sweep": wrong,
            "gather-scatter": {"1": wrong},
        }
    }
    verdict = check(repeat, golden)
    assert verdict["failed"] == verdict["attempted"] > 0
    assert any("differs from the pinned" in note for note in verdict["notes"])


def test_matching_golden_passes(tiny_repeat):
    repeat = tiny_repeat("gather-scatter", seed=2)
    golden = {"tiny": {"gather-scatter": {"2": {"digest": repeat.digests()[0]}}}}
    assert check(repeat, golden)["failed"] == 0


def test_corrupted_cycle_count_fails_that_point(tiny_repeat):
    repeat = tiny_repeat("gather-scatter")
    outcomes = repeat.hooks.outcomes
    outcomes[1] = dataclasses.replace(outcomes[1], cycles=outcomes[1].cycles + 1)
    verdict = check(repeat, {})
    assert verdict["failed"] == 1
    assert "attribution sums to" in verdict["notes"][0]


def test_cycles_below_the_lower_bound_fail(tiny_repeat):
    repeat = tiny_repeat("paper-grid")
    outcomes = repeat.hooks.outcomes
    index = next(i for i, o in enumerate(outcomes) if o.point.system == "pva-sdram")
    original = outcomes[index]
    attribution = {
        name: {"busy": 0, "stalled": 0, "idle": 1}
        for name in original.attribution
    }
    outcomes[index] = dataclasses.replace(original, cycles=1, attribution=attribution)
    verdict = check(repeat, {})
    assert verdict["failed"] == 1
    assert "beat the bound" in verdict["notes"][0]


def test_program_error_fails_every_point(tiny_repeat):
    repeat = tiny_repeat("gather-scatter")
    repeat.error = "ProtocolError: injected"
    verdict = check(repeat, {})
    assert verdict["failed"] == verdict["attempted"] == repeat.points
    assert verdict["digests"] == repeat.digests()


def test_replay_miss_fails_the_missed_points(tiny_repeat):
    repeat = tiny_repeat("paper-grid-pool")
    outcomes = repeat.hooks.outcomes
    last = len(outcomes) - 1
    outcomes[last] = dataclasses.replace(outcomes[last], cached=False)
    verdict = check(repeat, {})
    assert verdict["failed"] == 1
    assert "replay missed the cache" in verdict["notes"][0]
