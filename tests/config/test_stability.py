"""Cross-release stability of the canonical configuration identity.

``config_key()`` addresses the engine's on-disk result cache and links
bench documents across processes, so the prototype's
key is pinned here verbatim: it may only change together with a
deliberate ``CONFIG_SCHEMA_VERSION`` bump (which is what retires stale
caches), never by accident.
"""

from repro.config import CONFIG_SCHEMA_VERSION
from repro.engine.cache import SCHEMA_VERSION as CACHE_STAMP
from repro.engine.spec import CACHE_SCHEMA_VERSION
from repro.params import SystemParams

#: sha256 of the prototype's canonical sorted-key JSON document under
#: schema version 6.
PROTOTYPE_CONFIG_KEY = (
    "4c61434a24e1b4747af429ecde7f646264f98648e74336059f76a47bb63a163c"
)


def test_prototype_config_key_is_pinned():
    assert SystemParams().config_key() == PROTOTYPE_CONFIG_KEY


def test_environment_does_not_change_identity(monkeypatch):
    # The document (and so the cache key) depends on the fields alone:
    # a variable named like the old backend override changes nothing.
    monkeypatch.setenv("REPRO_SIM_MODE", "reference")
    params = SystemParams()
    assert params.sim_mode == "fast"
    assert params.config_key() == PROTOTYPE_CONFIG_KEY


def test_schema_version_is_six():
    assert CONFIG_SCHEMA_VERSION == 6
    assert SystemParams().to_dict()["schema_version"] == 6


def test_engine_cache_schema_tracks_config_schema():
    # The point-key salt and the stamp on stored documents both adopt
    # the config schema, so one bump retires every stale entry.
    assert CACHE_SCHEMA_VERSION == CONFIG_SCHEMA_VERSION
    assert CACHE_STAMP == CONFIG_SCHEMA_VERSION


def test_document_shape_is_nested_and_sorted():
    doc = SystemParams().to_dict()
    assert set(doc) == {
        "schema_version",
        "topology",
        "sdram",
        "sram",
        "cache_line_words",
        "max_transactions",
        "num_vector_contexts",
        "request_fifo_depth",
        "fhc_latency",
        "bus_turnaround",
        "bypass_paths",
        "row_policy",
        "issue_interval",
        "sim_mode",
    }
    assert doc["topology"] == {
        "num_channels": 1,
        "ranks_per_channel": 1,
        "banks_per_rank": 16,
    }
