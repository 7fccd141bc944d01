"""The result-cache contract: :class:`DirCache` and :class:`NullCache`.

The directory cache must give fingerprint-addressed round trips, read
schema/fingerprint mismatches as misses, keep ``put`` atomic under
concurrent writers (a reader sees an old record, a new record, or a
clean miss — never a torn document), never leave a temp file behind,
and support ``stats``/``prune`` maintenance.  The concurrency test
hammers one shared directory from multiple *processes*, which is
exactly how two engine runs share a cache.
"""

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.engine import RECORD_SCHEMA, DirCache, NullCache, make_cache
from repro.obs import MemorySink, recording
from repro.obs import core as obs

FP_A = "ab" * 32
FP_B = "cd" * 32


#: a well-formed result block: every field readers index, typed
RESULT = {
    "static_count": 4,
    "dynamic_count": 6,
    "execution_time": 1.25e-3,
    "total_messages": 48,
    "total_bytes": 3072,
    "warnings": [],
    "fastpath": {"extrapolated_trips": 0, "extrapolated_loops": 0, "fallbacks": 1},
}


def _record(fingerprint, payload="x", size=1):
    return {
        "schema": RECORD_SCHEMA,
        "fingerprint": fingerprint,
        "result": dict(RESULT),
        "payload": payload * size,
    }


def _temp_files(root):
    return list(root.rglob("*.tmp.*"))


def test_make_cache_selection(tmp_path, monkeypatch):
    assert make_cache(False, tmp_path).kind == "null"
    chosen = make_cache(True, tmp_path)
    assert chosen.kind == "dir" and chosen.root == tmp_path
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    assert make_cache(True).root == tmp_path / "env"


def test_null_backend_stores_nothing():
    null = NullCache()
    null.put(FP_A, _record(FP_A))
    assert null.get(FP_A) is None
    assert null.stats().entries == 0
    assert null.prune() == 0
    assert null.describe() == {"backend": "null", "location": None}


# ---------------------------------------------------------------------------
# the storage contract
# ---------------------------------------------------------------------------


def test_roundtrip_and_overwrite(tmp_path):
    cache = DirCache(tmp_path)
    assert cache.get(FP_A) is None
    record = _record(FP_A)
    cache.put(FP_A, record)
    assert cache.get(FP_A) == record
    replacement = _record(FP_A, payload="y")
    cache.put(FP_A, replacement)
    assert cache.get(FP_A) == replacement
    assert cache.describe() == {"backend": "dir", "location": str(tmp_path)}


def test_wrong_fingerprint_reads_as_miss(tmp_path):
    cache = DirCache(tmp_path)
    cache.put(FP_B, _record(FP_A))  # filed under the wrong key
    assert cache.get(FP_B) is None


def test_other_schema_reads_as_miss(tmp_path):
    cache = DirCache(tmp_path)
    cache.put(FP_A, dict(_record(FP_A), schema=RECORD_SCHEMA + 1))
    with recording(MemorySink()):
        assert cache.get(FP_A) is None
        assert obs.counters()["engine.result_cache.invalid"] == 1


def _without(field):
    return {k: v for k, v in RESULT.items() if k != field}


@pytest.mark.parametrize(
    "result",
    [
        pytest.param(None, id="no-result-block"),
        pytest.param([1, 2], id="result-not-a-mapping"),
        pytest.param(dict(RESULT, execution_time="0.00125"), id="string-time"),
        pytest.param(_without("execution_time"), id="no-time"),
        pytest.param(_without("static_count"), id="no-static-count"),
        pytest.param(dict(RESULT, dynamic_count=6.0), id="float-count"),
        pytest.param(dict(RESULT, total_bytes=True), id="bool-count"),
        pytest.param(dict(RESULT, total_messages="48"), id="string-messages"),
        pytest.param(dict(RESULT, warnings="careful"), id="warnings-not-a-list"),
        pytest.param(dict(RESULT, fastpath={"fallbacks": "1"}), id="string-fastpath"),
    ],
)
def test_unusable_result_block_reads_as_invalid_miss(tmp_path, result):
    cache = DirCache(tmp_path)
    record = _record(FP_A)
    if result is None:
        del record["result"]
    else:
        record["result"] = result
    cache.put(FP_A, record)
    with recording(MemorySink()):
        assert cache.get(FP_A) is None
        assert obs.counters()["engine.result_cache.invalid"] == 1


def test_optional_result_fields_may_be_absent(tmp_path):
    cache = DirCache(tmp_path)
    record = dict(_record(FP_A), result=_without("warnings"))
    record["result"]["fastpath"] = None
    cache.put(FP_A, record)
    assert cache.get(FP_A) == record


def test_one_file_per_record(tmp_path):
    """A fresh cache stores each record as ``<root>/<fingerprint>.json``:
    N puts leave N files and no directory."""
    root = tmp_path / "cache"
    cache = DirCache(root)
    fingerprints = [f"{i:02x}" * 32 for i in range(5)]
    for fp in fingerprints:
        cache.put(fp, _record(fp))
    assert sorted(p.name for p in root.iterdir()) == sorted(f"{fp}.json" for fp in fingerprints)
    assert not any(p.is_dir() for p in root.iterdir())


def test_legacy_sharded_record_is_counted_pruned_and_missed(tmp_path):
    """A record an older tree stored under ``<aa>/`` is still counted and
    pruned; ``get`` misses it, so its job reruns and stores flat."""
    cache = DirCache(tmp_path)
    shard = tmp_path / FP_A[:2]
    shard.mkdir()
    legacy = shard / f"{FP_A}.json"
    legacy.write_text(json.dumps(_record(FP_A)))
    assert cache.stats().entries == 1
    assert cache.get(FP_A) is None
    cache.put(FP_A, _record(FP_A))
    assert cache.get(FP_A) == _record(FP_A)
    assert cache.stats().entries == 2
    assert cache.prune() == 2
    assert not legacy.exists()
    assert cache.stats().entries == 0


def test_stats_census(tmp_path):
    cache = DirCache(tmp_path)
    assert cache.stats().entries == 0
    cache.put(FP_A, _record(FP_A))
    cache.put(FP_B, dict(_record(FP_B), schema=RECORD_SCHEMA - 1))
    stats = cache.stats()
    assert stats.entries == 2
    assert stats.bytes > 0
    assert stats.schemas[RECORD_SCHEMA] == 1
    assert stats.schemas[RECORD_SCHEMA - 1] == 1
    assert stats.backend == "dir"
    assert "2 entries" in stats.describe()


def test_prune_by_schema(tmp_path):
    cache = DirCache(tmp_path)
    cache.put(FP_A, _record(FP_A))
    cache.put(FP_B, dict(_record(FP_B), schema=RECORD_SCHEMA - 1))
    with recording(MemorySink()):
        assert cache.prune(schema=RECORD_SCHEMA - 1) == 1
        assert obs.counters()["engine.result_cache.pruned"] == 1
    assert cache.stats().entries == 1
    assert cache.get(FP_A) is not None


def test_prune_by_age(tmp_path):
    cache = DirCache(tmp_path)
    cache.put(FP_A, _record(FP_A))
    # a just-written record is younger than a day
    assert cache.prune(older_than=86400.0) == 0
    # and everything matches the no-filter prune
    assert cache.prune() == 1
    assert cache.stats().entries == 0


# ---------------------------------------------------------------------------
# temp files: a failed put cleans up, prune sweeps orphans
# ---------------------------------------------------------------------------


def test_failed_put_leaves_no_temp_file(tmp_path, monkeypatch):
    import repro.engine.cache as cache_mod

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cache_mod.os, "replace", refuse)
    cache = DirCache(tmp_path)
    with recording(MemorySink()):
        cache.put(FP_A, _record(FP_A))  # best-effort: must not raise
        counters = obs.counters()
    assert counters["engine.result_cache.store_error"] == 1
    assert "engine.result_cache.store" not in counters
    assert _temp_files(tmp_path) == []
    assert cache.get(FP_A) is None


def test_prune_removes_orphaned_temp_files(tmp_path):
    cache = DirCache(tmp_path)
    cache.put(FP_A, _record(FP_A))
    old = tmp_path / f"{FP_B}.tmp.111"
    young = tmp_path / f"{FP_B}.tmp.222"
    old.write_text('{"schema": 3, "payl')  # a write cut off mid-record
    young.write_text('{"schema": 3, "payl')
    an_hour_ago = time.time() - 3600
    os.utime(old, (an_hour_ago, an_hour_ago))
    # temp files are not entries
    assert cache.stats().entries == 1
    # the age filter applies to orphans too: the young one may be a
    # write still in flight
    assert cache.prune(older_than=60.0) == 0
    assert _temp_files(tmp_path) == [young]
    assert cache.prune() == 1
    assert _temp_files(tmp_path) == []


# ---------------------------------------------------------------------------
# concurrent writers: two engine runs sharing one cache directory
# ---------------------------------------------------------------------------


def _hammer_writer(location, fingerprint, payload, rounds):
    """One writer process: repeatedly overwrite the shared fingerprint
    with a large single-payload record."""
    cache = DirCache(location)
    record = _record(fingerprint, payload=payload, size=2000)
    for _ in range(rounds):
        cache.put(fingerprint, record)
    return payload


def _hammer_reader(location, fingerprint, rounds):
    """One reader process: every observed record must be exactly one
    writer's document — never a mixture, never a partial parse."""
    cache = DirCache(location)
    seen = set()
    for _ in range(rounds):
        record = cache.get(fingerprint)
        if record is None:
            continue  # a clean miss mid-write is within the contract
        payload = record["payload"]
        assert payload in ("a" * 2000, "b" * 2000), "torn record observed"
        assert record["schema"] == RECORD_SCHEMA
        seen.add(payload[0])
    return seen


def test_concurrent_writers_never_tear_records(tmp_path):
    location = str(tmp_path)
    rounds = 150
    with ProcessPoolExecutor(max_workers=3) as pool:
        writers = [
            pool.submit(_hammer_writer, location, FP_A, p, rounds)
            for p in ("a", "b")
        ]
        reader = pool.submit(_hammer_reader, location, FP_A, rounds)
        for f in writers:
            f.result(timeout=120)
        reader.result(timeout=120)  # raises on any torn observation
    final = DirCache(location).get(FP_A)
    assert final is not None
    assert final["payload"] in ("a" * 2000, "b" * 2000)
    assert _temp_files(tmp_path) == []


def test_telemetry_envelope_carries_backend_attribution(tmp_path):
    from repro import run_study
    from repro.programs import small_config

    out = tmp_path / "telemetry.json"
    study = run_study(
        benchmarks=("swm",),
        keys=("baseline",),
        nprocs=16,
        config_overrides={"swm": small_config("swm")},
        cache_dir=tmp_path / "store",
    )
    study.write_telemetry(out)
    doc = json.loads(out.read_text())
    assert doc["cache"] == {"backend": "dir", "location": str(tmp_path / "store")}
