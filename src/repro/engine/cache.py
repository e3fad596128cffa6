"""Content-addressed on-disk result cache.

Layout: ``<root>/<key[:2]>/<key>.json``, one JSON document per executed
point holding the measured cycle count, the worker's wall clock, the
per-component cycle-attribution ledger, and a human-readable point
description for debugging.  Older entries without the newer fields stay
readable — consumers treat the extras as optional.  The two-character
fan-out keeps directories small on full-evaluation caches (hundreds of
entries).

Writes are atomic (temp file + ``os.replace``), so a cache directory
shared by concurrent writers — pool workers, parallel engine runs —
never serves a torn entry and never interleaves two writers' bytes.
Corrupt or unreadable entries are treated as misses and
**quarantined**: moved aside into ``<root>/quarantine/`` (preserving
the evidence for debugging) rather than deleted or re-served, so a
vandalized entry costs one recompute and nothing else; the engine
reports the count as ``EngineMetrics.cache_quarantined``.  Documents
are validated on both sides of the disk: :meth:`ResultCache.put`
rejects records without a non-negative integer ``cycles``
(:class:`~repro.errors.CacheIntegrityError`) and stamps each stored
document with :data:`SCHEMA_VERSION`; :meth:`ResultCache.get` treats
invalid records and stale schema stamps — e.g. written by a corruptor
or an older tool — as misses, so format changes cause a recompute,
never a misread.  Maintenance paths (``__len__``, ``clear``) skip stray files
(editor droppings, orphaned temp files), so a polluted directory cannot
crash them.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from repro.config import CONFIG_SCHEMA_VERSION
from repro.errors import CacheIntegrityError

__all__ = ["ResultCache", "SCHEMA_VERSION"]

#: Document-format version stamped into every stored entry: the config
#: schema (:data:`repro.config.CONFIG_SCHEMA_VERSION`, which keeps the
#: history).  Entries stamped differently — or not at all — are
#: recomputed rather than reinterpreted, even if a key collision ever
#: served one across versions.
SCHEMA_VERSION = CONFIG_SCHEMA_VERSION


def _valid_document(document) -> bool:
    """A stored result must carry a non-negative integer cycle count
    (bools are ints in Python; they are not cycle counts)."""
    return (
        isinstance(document, dict)
        and isinstance(document.get("cycles"), int)
        and not isinstance(document.get("cycles"), bool)
        and document["cycles"] >= 0
    )


class ResultCache:
    """A directory of content-addressed experiment results."""

    #: Subdirectory corrupt entries are moved into by :meth:`get`.
    QUARANTINE_DIR = "quarantine"

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.quarantined = 0  #: corrupt entries moved aside by get()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Move an unreadable entry aside instead of serving or
        deleting it.  Best-effort: a concurrent reader may quarantine
        the same entry first, and losing that race is fine — the entry
        is gone from the lookup path either way."""
        target_dir = self.root / self.QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / f"{path.name}.quarantined")
        except OSError:
            try:  # fall back to plain removal on exotic filesystems
                path.unlink()
            except OSError:
                pass
        self.quarantined += 1

    def get(self, key: str) -> Optional[Dict]:
        """The stored document for ``key``, or None on a miss.

        Never raises on a bad entry: torn JSON, wrong-shape documents
        and stale schema stamps are quarantined and reported as misses,
        so one corrupt file costs one recompute — not a crashed batch.
        """
        path = self._path(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                document = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(path)
            return None
        if not _valid_document(document):
            self._quarantine(path)
            return None
        if document.get("schema_version") != SCHEMA_VERSION:
            return None  # stale format: recompute, don't misread
        return document

    def put(self, key: str, document: Dict) -> None:
        """Atomically store ``document`` under ``key``.

        Raises :class:`CacheIntegrityError` unless the document carries
        a non-negative integer ``cycles`` — garbage must not enter the
        cache in the first place.
        """
        if not _valid_document(document):
            raise CacheIntegrityError(
                "cache documents require a non-negative integer 'cycles' "
                f"field, got {document!r:.120}"
            )
        document = {**document, "schema_version": SCHEMA_VERSION}
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle, sort_keys=True)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def _entries(self) -> Iterator[Path]:
        """Entry files only: ``<2-hex>/<key>.json`` with a hex-prefixed
        name.  Orphaned ``.tmp-*`` files, editor droppings and other
        strays in a polluted directory are not entries."""
        for path in self.root.glob("*/*.json"):
            if path.name.startswith(".") or not path.is_file():
                continue
            if not path.name.startswith(path.parent.name):
                continue
            yield path

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every entry; return the number removed.

        Only entry files are touched; stray files are left alone so a
        mis-pointed cache directory cannot lose unrelated data.
        """
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
