"""Cache-key stability and on-disk result cache behavior."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import (
    CommandTraceSpec,
    ExperimentPoint,
    KernelTraceSpec,
    ResultCache,
    canonical,
    default_salt,
    point_key,
)
from repro.params import SDRAMTiming, SystemParams
from repro.types import AccessType, Vector, VectorCommand

from .injectors import CacheCorruptor


def _point(**overrides):
    spec = dict(kernel="copy", stride=4, alignment="aligned", elements=256)
    spec.update(overrides)
    return ExperimentPoint(system="pva-sdram", trace=KernelTraceSpec(**spec))


SRC = Path(__file__).resolve().parents[2] / "src"

KEY_SCRIPT = """
import json, sys
from repro.engine import ExperimentPoint, KernelTraceSpec, point_key
from repro.params import SystemParams
spec = json.loads(sys.argv[1])
point = ExperimentPoint(
    system=spec["system"],
    trace=KernelTraceSpec(**spec["trace"]),
    params=SystemParams(**spec["params"]),
)
print(point_key(point, spec["salt"]))
"""


def test_key_is_deterministic_within_process():
    assert point_key(_point(), "salt") == point_key(_point(), "salt")


def test_key_stable_across_processes():
    """The content address must be reproducible in a fresh interpreter —
    no id()/hash-randomization/closure leakage into the key material."""
    point = _point(stride=19, alignment="element")
    spec = {
        "system": point.system,
        "trace": dataclasses.asdict(point.trace),
        "params": {"num_banks": point.params.num_banks},
        "salt": "cross-process-salt",
    }
    out = subprocess.run(
        [sys.executable, "-c", KEY_SCRIPT, json.dumps(spec)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "random"},
        check=True,
    )
    assert out.stdout.strip() == point_key(point, "cross-process-salt")


def test_key_changes_with_params():
    base = point_key(_point(), "s")
    changed = ExperimentPoint(
        system="pva-sdram",
        trace=KernelTraceSpec(
            kernel="copy", stride=4, alignment="aligned", elements=256
        ),
        params=SystemParams(sdram=SDRAMTiming(t_rcd=3)),
    )
    assert point_key(changed, "s") != base


@pytest.mark.parametrize(
    "override",
    [
        dict(kernel="scale"),
        dict(stride=5),
        dict(alignment="element"),
        dict(elements=512),
    ],
)
def test_key_changes_with_trace_spec(override):
    assert point_key(_point(**override), "s") != point_key(_point(), "s")


def test_key_changes_with_salt():
    assert point_key(_point(), "a") != point_key(_point(), "b")


def test_key_changes_with_sim_mode():
    """The resolved backend label is part of the point key: a document
    produced by one backend can never be served for another."""
    keys = {
        point_key(
            ExperimentPoint(
                system="pva-sdram",
                trace=KernelTraceSpec(
                    kernel="copy", stride=4, alignment="aligned", elements=256
                ),
                params=SystemParams(sim_mode=mode),
            ),
            "s",
        )
        for mode in ("reference", "fast")
    }
    assert len(keys) == 2


def test_default_salt_carries_version_and_schema():
    import repro
    from repro.engine.spec import CACHE_SCHEMA_VERSION

    salt = default_salt()
    assert repro.__version__ in salt
    assert str(CACHE_SCHEMA_VERSION) in salt


def test_command_trace_label_is_cosmetic():
    command = VectorCommand(
        vector=Vector(base=3, stride=1, length=16), access=AccessType.READ
    )
    a = ExperimentPoint(
        system="pva-sdram",
        trace=CommandTraceSpec(commands=(command,), label="one"),
    )
    b = ExperimentPoint(
        system="pva-sdram",
        trace=CommandTraceSpec(commands=(command,), label="two"),
    )
    assert point_key(a, "s") == point_key(b, "s")


def test_canonical_rejects_unkeyable_objects():
    with pytest.raises(TypeError):
        canonical(object())


def test_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    key = point_key(_point(), "s")
    assert cache.get(key) is None
    cache.put(key, {"cycles": 145, "point": "copy/s4"})
    assert key in cache
    assert cache.get(key)["cycles"] == 145
    assert len(cache) == 1
    assert cache.clear() == 1
    assert cache.get(key) is None


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = point_key(_point(), "s")
    cache.put(key, {"cycles": 145})
    path = cache._path(key)
    path.write_text("{not json")
    assert cache.get(key) is None
    assert not path.exists()  # dropped for recomputation


def test_cache_entry_without_cycles_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = "ab" + "0" * 62
    path = cache._path(key)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"note": "no cycle count"}))
    assert cache.get(key) is None


class TestPutValidation:
    """put() rejects documents without a non-negative integer cycles
    field, so garbage never enters the cache in the first place."""

    @pytest.mark.parametrize(
        "document",
        [
            {"note": "no cycle count"},
            {"cycles": -1},
            {"cycles": 3.5},
            {"cycles": "145"},
            {"cycles": True},
            {"cycles": None},
        ],
    )
    def test_rejects_invalid_documents(self, tmp_path, document):
        from repro.errors import CacheIntegrityError, ReproError

        cache = ResultCache(tmp_path)
        with pytest.raises(CacheIntegrityError):
            cache.put("ab" + "0" * 62, document)
        assert len(cache) == 0
        # and the error is catchable as the library base class
        with pytest.raises(ReproError):
            cache.put("ab" + "0" * 62, document)

    def test_accepts_zero_cycles(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, {"cycles": 0})
        assert cache.get("ab" + "0" * 62)["cycles"] == 0


class TestPollutedDirectory:
    """Maintenance paths skip stray files, so a polluted cache
    directory cannot crash (or be damaged by) __len__/clear."""

    def _polluted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, {"cycles": 145})
        strays = CacheCorruptor(cache).strays()
        return cache, strays

    def test_len_counts_entries_only(self, tmp_path):
        cache, _ = self._polluted(tmp_path)
        assert len(cache) == 1

    def test_clear_removes_entries_and_spares_strays(self, tmp_path):
        cache, strays = self._polluted(tmp_path)
        assert cache.clear() == 1
        assert len(cache) == 0
        for stray in strays:
            assert stray.exists()

    def test_corrupted_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        corruptor = CacheCorruptor(cache)
        keys = ["aa" + "0" * 62, "bb" + "0" * 62, "cc" + "0" * 62]
        corruptor.torn_entry(keys[0])
        corruptor.garbage_entry(keys[1])
        corruptor.non_dict_entry(keys[2])
        for key in keys:
            assert cache.get(key) is None


class TestQuarantine:
    """Corrupt entries are moved aside — evidence preserved, lookup
    path cleared — and never served or recounted."""

    KEY = "ab" + "0" * 62

    def _corrupted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.KEY, {"cycles": 145})
        cache._path(self.KEY).write_text("{torn", encoding="utf-8")
        return cache

    def test_corrupt_entry_moves_to_quarantine_dir(self, tmp_path):
        cache = self._corrupted(tmp_path)
        assert cache.get(self.KEY) is None
        quarantine = tmp_path / ResultCache.QUARANTINE_DIR
        assert (quarantine / f"{self.KEY}.json.quarantined").exists()
        assert cache.quarantined == 1

    def test_quarantined_entry_leaves_len_and_put_usable(self, tmp_path):
        cache = self._corrupted(tmp_path)
        cache.get(self.KEY)
        assert len(cache) == 0  # quarantine files are not entries
        cache.put(self.KEY, {"cycles": 99})  # slot is reusable
        assert cache.get(self.KEY)["cycles"] == 99
        assert len(cache) == 1

    def test_wrong_shape_document_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache._path(self.KEY)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"cycles": "not-an-int"}))
        assert cache.get(self.KEY) is None
        assert cache.quarantined == 1
        assert not path.exists()

    def test_stale_schema_is_a_miss_but_not_quarantined(self, tmp_path):
        from repro.engine.cache import SCHEMA_VERSION

        cache = ResultCache(tmp_path)
        path = cache._path(self.KEY)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"cycles": 145, "schema_version": SCHEMA_VERSION - 1})
        )
        assert cache.get(self.KEY) is None
        # The entry is well-formed, just old: no quarantine, and a
        # fresh put overwrites it in place.
        assert cache.quarantined == 0
        assert path.exists()

    def test_counter_accumulates_across_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        corruptor = CacheCorruptor(cache)
        keys = ["aa" + "0" * 62, "bb" + "0" * 62]
        corruptor.torn_entry(keys[0])
        corruptor.garbage_entry(keys[1])
        for key in keys:
            cache.get(key)
        assert cache.quarantined == 2

    def test_engine_metrics_report_quarantined_entries(self, tmp_path):
        """A torn entry under a warm engine run is quarantined and
        re-simulated, and the engine's metrics count it."""
        from repro.engine import ExperimentEngine

        points = [_point(), _point(stride=19)]
        cold = ExperimentEngine(cache_dir=tmp_path).run(points)
        warm = ExperimentEngine(cache_dir=tmp_path)
        key = warm.key_of(points[1])
        CacheCorruptor(warm.cache).torn_entry(key)
        assert warm.run(points) == cold
        assert warm.metrics.simulated == 1
        assert warm.metrics.cache_quarantined == 1
        quarantine = tmp_path / ResultCache.QUARANTINE_DIR
        assert (quarantine / f"{key}.json.quarantined").exists()


def _hammer_cache(root, seed):
    """One stress worker: interleaved put/get rounds over shared keys.

    Runs in a child process; any assertion failure surfaces as a
    nonzero exit code in the parent's join."""
    cache = ResultCache(root)
    keys = [f"{index:02x}" + "0" * 62 for index in range(8)]
    for round_number in range(40):
        for key in keys:
            cache.put(key, {"cycles": seed * 1000 + round_number})
            document = cache.get(key)
            assert document is not None, "own write must be visible"
            assert isinstance(document["cycles"], int)
            assert document["cycles"] >= 0


class TestConcurrentWriters:
    def test_multiprocess_stress_leaves_only_valid_entries(self, tmp_path):
        """Many processes hammering the same keys: every read returns a
        complete document (atomic replace — no torn reads), and the
        directory afterwards holds exactly the entry files, all valid,
        with no orphaned temp files."""
        import multiprocessing

        from repro.engine.cache import SCHEMA_VERSION

        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(target=_hammer_cache, args=(tmp_path, seed))
            for seed in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0

        cache = ResultCache(tmp_path)
        assert len(cache) == 8
        for entry in cache.root.glob("*/*.json"):
            document = json.loads(entry.read_text(encoding="utf-8"))
            assert document["schema_version"] == SCHEMA_VERSION
            assert isinstance(document["cycles"], int)
        assert list(tmp_path.glob("*/.tmp-*")) == []
        assert cache.quarantined == 0
