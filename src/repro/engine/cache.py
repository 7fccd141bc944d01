"""The result cache: content-addressed job records on disk.

Finished job records are stored keyed by their SHA-256 content
fingerprint.  Two implementations share one small surface — ``get``,
``put``, ``stats``, ``prune``, ``describe`` — whose contract is
executable as ``tests/engine/test_backends.py``:

``DirCache``
    The ``.repro-cache/`` layout, one file per record,
    ``<root>/<fingerprint>.json``.  ``get`` returns
    the stored record or ``None`` on *any* miss — absent, torn,
    corrupt, written under another ``RECORD_SCHEMA``, or with a
    ``result`` block missing a field readers index or holding it with
    the wrong type.  ``put`` is
    atomic (tmp file + ``os.replace``: a concurrent reader sees the old
    record, the new record, or a clean miss — never a partial document)
    and best-effort (a storage failure never fails the run that produced
    the result, and never leaves its temp file behind).  ``stats`` and
    ``prune`` make a stale multi-gigabyte store inspectable and
    reclaimable without deleting it by hand; they also count and remove
    the records older trees stored under ``<root>/<aa>/`` (the first two
    hex digits), which ``get`` misses, so their jobs rerun and store
    flat.
``NullCache``
    The ``--no-cache`` cache: everything misses, nothing is stored.

:func:`make_cache` picks one from the engine knobs.  Cache traffic is
counted under ``engine.result_cache.*``: ``hit``/``miss`` in the
engine's cache partition, ``invalid``/``store``/``store_error``/
``pruned`` here.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.obs import core as obs

#: Schema version of the stored record; bump together with record shape.
#: The telemetry *envelope* (``engine.core.write_telemetry`` /
#: ``load_telemetry``) is versioned by this same constant, so a record
#: shape change can never silently outrun the document that carries it.
#: 2: records carry the optimizer's per-pass ``pipeline`` report.
#: 3: TIMING times shift by ulps (epoch-rebased clocks) and results
#: carry the ``fastpath`` counter block.
RECORD_SCHEMA = 3

DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_root() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


@dataclass
class CacheStats:
    """What a cache holds: entry/byte totals and a per-schema census."""

    backend: str
    location: Optional[str]
    entries: int = 0
    bytes: int = 0
    schemas: Dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "location": self.location,
            "entries": self.entries,
            "bytes": self.bytes,
            "schemas": {str(k): v for k, v in sorted(self.schemas.items())},
        }

    def describe(self) -> str:
        schemas = ", ".join(
            f"schema {k}: {v}" for k, v in sorted(self.schemas.items())
        ) or "empty"
        where = f" at {self.location}" if self.location else ""
        return (
            f"{self.backend} backend{where}: {self.entries} entries, "
            f"{self.bytes} bytes ({schemas})"
        )


class NullCache:
    """The ``--no-cache`` cache: everything misses, nothing is stored."""

    kind = "null"
    root: Optional[Path] = None

    def get(self, fingerprint: str) -> Optional[dict]:
        return None

    def put(self, fingerprint: str, record: dict) -> None:
        pass

    def stats(self) -> CacheStats:
        return CacheStats(backend=self.kind, location=None)

    def prune(
        self,
        *,
        older_than: Optional[float] = None,
        schema: Optional[int] = None,
    ) -> int:
        return 0

    def describe(self) -> dict:
        return {"backend": self.kind, "location": None}


def _stored_schema(path: Path) -> Optional[int]:
    """The ``schema`` field of a stored document; None when unreadable."""
    try:
        schema = json.loads(path.read_text()).get("schema")
    except (OSError, ValueError, AttributeError):
        return None
    return schema if isinstance(schema, int) else None


def _unlink(path: Path) -> bool:
    try:
        path.unlink()
    except OSError:
        return False
    return True


#: the ``result`` fields every reader indexes, and their JSON types
_RESULT_FIELDS = (
    ("static_count", int),
    ("dynamic_count", int),
    ("total_messages", int),
    ("total_bytes", int),
    ("execution_time", (int, float)),
)


def _usable_result(result: object) -> bool:
    """Whether a stored ``result`` block has every field a reader
    indexes, with the type it needs (bools are not counts)."""
    if not isinstance(result, dict):
        return False
    for name, kind in _RESULT_FIELDS:
        value = result.get(name)
        if isinstance(value, bool) or not isinstance(value, kind):
            return False
    warnings = result.get("warnings", [])
    if not isinstance(warnings, list) or not all(
        isinstance(w, str) for w in warnings
    ):
        return False
    fastpath = result.get("fastpath")
    return fastpath is None or (
        isinstance(fastpath, dict)
        and all(
            isinstance(v, int) and not isinstance(v, bool)
            for v in fastpath.values()
        )
    )


class DirCache:
    """A directory of fingerprint-addressed job records, one file each."""

    kind = "dir"

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()

    def _path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[dict]:
        """The stored record for a fingerprint, or None on any miss
        (absent, unreadable, corrupt, written by another schema, or with
        a ``result`` block readers cannot use).  A document that is
        present but unusable counts as ``invalid``; its job reruns and
        overwrites it."""
        path = self._path(fingerprint)
        try:
            record = json.loads(path.read_text())
        except OSError:
            return None
        except ValueError:
            record = None
        if (
            isinstance(record, dict)
            and record.get("schema") == RECORD_SCHEMA
            and record.get("fingerprint") == fingerprint
            and _usable_result(record.get("result"))
        ):
            return record
        obs.add("engine.result_cache.invalid")
        return None

    def put(self, fingerprint: str, record: dict) -> None:
        """Store a record atomically (best-effort: cache write failures
        never fail the run that produced the result)."""
        path = self._path(fingerprint)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(record, sort_keys=True, indent=1))
            os.replace(tmp, path)
        except OSError:
            obs.add("engine.result_cache.store_error")
            _unlink(tmp)
            return
        obs.add("engine.result_cache.store")

    def _entries(
        self, pattern: str = "*.json"
    ) -> Iterator[Tuple[Path, os.stat_result]]:
        if not self.root.is_dir():
            return
        for path in self.root.rglob(pattern):
            try:
                yield path, path.stat()
            except OSError:
                continue

    def stats(self) -> CacheStats:
        stats = CacheStats(backend=self.kind, location=str(self.root))
        for path, st in self._entries():
            stats.entries += 1
            stats.bytes += st.st_size
            schema = _stored_schema(path)
            key = -1 if schema is None else schema
            stats.schemas[key] = stats.schemas.get(key, 0) + 1
        return stats

    def prune(
        self,
        *,
        older_than: Optional[float] = None,
        schema: Optional[int] = None,
    ) -> int:
        """Remove records matching every given filter (age in seconds,
        stored schema version); no filters removes everything.  Temp
        files orphaned by an interrupted ``put`` go too, under the same
        age filter, and so does each legacy ``<aa>/`` shard directory the
        pruning emptied.  Returns the number of records removed."""
        cutoff = time.time() - older_than if older_than is not None else None
        removed = 0
        emptied = set()
        for path, st in list(self._entries()):
            if cutoff is not None and st.st_mtime > cutoff:
                continue
            if schema is not None and _stored_schema(path) != schema:
                continue
            if _unlink(path):
                removed += 1
                emptied.add(path.parent)
        for path, st in list(self._entries("*.tmp.*")):
            if (cutoff is None or st.st_mtime <= cutoff) and _unlink(path):
                emptied.add(path.parent)
        emptied.discard(self.root)
        for shard in emptied:
            try:
                shard.rmdir()  # fails while the directory holds anything
            except OSError:
                pass
        obs.add("engine.result_cache.pruned", removed)
        return removed

    def describe(self) -> dict:
        return {"backend": self.kind, "location": str(self.root)}


#: Either cache the engine can run against.
CacheBackend = Union[DirCache, NullCache]


def make_cache(
    enabled: bool = True, root: Union[str, Path, None] = None
) -> CacheBackend:
    """The engine's result cache: a :class:`DirCache` under ``root``
    (default ``.repro-cache/``, or ``$REPRO_CACHE_DIR``), or a
    :class:`NullCache` when caching is off."""
    return DirCache(root) if enabled else NullCache()
