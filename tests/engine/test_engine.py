"""Tests for the parallel cached experiment engine."""

import json
import subprocess
import sys

import pytest

from repro import run_study
from repro.engine import (
    RECORD_SCHEMA,
    DirCache,
    ExperimentEngine,
    Job,
    MachineSpec,
    build_matrix,
    clear_compile_cache,
    load_telemetry,
)
from repro.errors import ExperimentError
from repro.programs import small_config

SWM_SMALL = small_config("swm")


def _study(cache_dir, **kwargs):
    kwargs.setdefault("benchmarks", ("swm",))
    kwargs.setdefault("keys", ("baseline", "cc"))
    kwargs.setdefault("nprocs", 16)
    kwargs.setdefault("config_overrides", {"swm": SWM_SMALL})
    kwargs.setdefault("cache_dir", cache_dir)
    return run_study(**kwargs)


# ---------------------------------------------------------------------------
# job model and fingerprints
# ---------------------------------------------------------------------------


def test_matrix_is_benchmark_major_key_ordered():
    jobs = build_matrix(["swm", "sp"], keys=("baseline", "cc"))
    assert [(j.benchmark, j.experiment) for j in jobs] == [
        ("swm", "baseline"),
        ("swm", "cc"),
        ("sp", "baseline"),
        ("sp", "cc"),
    ]


def test_fingerprint_is_stable_and_content_sensitive():
    job = Job.make("swm", "cc", config=SWM_SMALL, machine=MachineSpec(nprocs=16))
    assert job.fingerprint() == job.fingerprint()
    # every axis of the matrix moves the fingerprint
    assert job.fingerprint() != Job.make(
        "swm", "pl", config=SWM_SMALL, machine=MachineSpec(nprocs=16)
    ).fingerprint()
    assert job.fingerprint() != Job.make(
        "swm", "cc", config=SWM_SMALL, machine=MachineSpec(nprocs=64)
    ).fingerprint()
    assert job.fingerprint() != Job.make(
        "swm", "cc", config=dict(SWM_SMALL, nsteps=99), machine=MachineSpec(nprocs=16)
    ).fingerprint()


def test_pl_and_pl_shmem_share_a_compile_but_not_a_fingerprint():
    pl = Job.make("swm", "pl", machine=MachineSpec(nprocs=16))
    sh = Job.make("swm", "pl_shmem", machine=MachineSpec(nprocs=16))
    # different cells (library differs) ...
    assert pl.fingerprint() != sh.fingerprint()
    assert pl.effective_library() == "pvm"
    assert sh.effective_library() == "shmem"


def test_engine_rejects_bad_worker_count():
    with pytest.raises(ExperimentError, match="jobs"):
        ExperimentEngine(jobs=0)


def test_fingerprint_covers_the_pass_pipeline():
    # the resolved pipeline signature is a fingerprint axis: keys whose
    # configs differ only in combining heuristic hash differently
    pl = Job.make("swm", "pl_shmem", machine=MachineSpec(nprocs=16))
    ml = Job.make("swm", "pl_maxlat", machine=MachineSpec(nprocs=16))
    assert pl.fingerprint() != ml.fingerprint()


def test_engine_does_not_import_analysis():
    """The registry split means ``repro.engine`` stands alone: importing
    it must not drag in ``repro.analysis`` (the old deferred-import
    cycle)."""
    code = (
        "import sys; import repro.engine; "
        "bad = [m for m in sys.modules if m.startswith('repro.analysis')]; "
        "assert not bad, bad"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_import_loads_no_network_or_database_modules():
    """``import repro`` stays lean: the result cache is a directory, so
    nothing on the import path may pull in a database or HTTP stack."""
    code = (
        "import sys; import repro; "
        "bad = [m for m in ('sqlite3', 'http.server', 'urllib.request') "
        "if m in sys.modules]; "
        "assert not bad, bad"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_source_sha_tracks_source_content(monkeypatch):
    """Redefining a benchmark's source inside one process must yield a
    fresh hash (the old per-name lru_cache served stale fingerprints)."""
    from repro.engine import jobs as jobs_mod

    monkeypatch.setattr(jobs_mod, "benchmark_source", lambda name: "v1")
    first = jobs_mod.source_sha("swm")
    monkeypatch.setattr(jobs_mod, "benchmark_source", lambda name: "v2")
    second = jobs_mod.source_sha("swm")
    assert first != second
    # and identical text still memoizes to the same hash
    assert second == jobs_mod.source_sha("swm")


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    cold = _study(tmp_path)
    assert cold.cache_hits == 0
    assert all(not o.cached for o in cold.outcomes)

    warm = _study(tmp_path)
    assert warm.cache_hits == len(warm.outcomes) == 2
    assert all(o.record["cache_hit"] for o in warm.outcomes)
    # cached results reconstruct the exact ExperimentResult values
    assert dict(warm.results) == dict(cold.results)


def test_no_cache_never_writes(tmp_path):
    root = tmp_path / "cache"
    study = _study(root, cache=False)
    assert study.cache_hits == 0
    assert not root.exists()
    # and a second no-cache run recomputes rather than hitting anything
    again = _study(root, cache=False)
    assert again.cache_hits == 0


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    _study(tmp_path)
    entries = list(tmp_path.rglob("*.json"))
    assert len(entries) == 2
    entries[0].write_text("{ not json")
    entries[1].write_text(json.dumps({"schema": -1}))
    study = _study(tmp_path)
    assert study.cache_hits == 0
    assert len(study.outcomes) == 2


@pytest.mark.parametrize("corrupt", ["drop-result", "string-time"])
def test_unusable_cached_result_reruns_and_is_overwritten(tmp_path, corrupt):
    """A record whose result block readers cannot use is a miss: its job
    reruns, the record is rewritten whole, and the study renders as if
    the cache were cold."""
    from repro.analysis import figures
    from repro.analysis.report import format_table
    from repro.experiments_registry import EXPERIMENT_KEYS
    from repro.obs import MemorySink, recording
    from repro.obs import core as obs

    cold = _study(tmp_path, keys=EXPERIMENT_KEYS)
    entry = sorted(tmp_path.rglob("*.json"))[0]
    doc = json.loads(entry.read_text())
    result = doc["result"]
    if corrupt == "drop-result":
        del doc["result"]
    else:
        doc["result"] = dict(result, execution_time=str(result["execution_time"]))
    entry.write_text(json.dumps(doc))
    with recording(MemorySink()):
        again = _study(tmp_path, keys=EXPERIMENT_KEYS)
        assert obs.counters()["engine.result_cache.invalid"] == 1
    assert again.cache_hits == len(EXPERIMENT_KEYS) - 1
    assert json.loads(entry.read_text())["result"] == result

    def rendered(study):
        return format_table(*figures.table_full("swm", study))

    assert rendered(again) == rendered(cold)
    assert _study(tmp_path, keys=EXPERIMENT_KEYS).cache_hits == len(EXPERIMENT_KEYS)


def test_cache_record_roundtrip(tmp_path):
    from repro.engine.cache import RECORD_SCHEMA

    cache = DirCache(tmp_path)
    assert cache.get("ab" * 32) is None
    result = {
        "static_count": 1,
        "dynamic_count": 2,
        "execution_time": 1.5,
        "total_messages": 3,
        "total_bytes": 24,
    }
    record = {"schema": RECORD_SCHEMA, "fingerprint": "ab" * 32, "result": result}
    cache.put("ab" * 32, record)
    assert cache.get("ab" * 32) == record
    # a record filed under the wrong fingerprint is rejected
    cache.put("cd" * 32, record)
    assert cache.get("cd" * 32) is None


# ---------------------------------------------------------------------------
# parallel execution
# ---------------------------------------------------------------------------


def test_parallel_matches_serial(tmp_path):
    serial = _study(tmp_path / "a", cache=False)
    parallel = _study(tmp_path / "b", cache=False, jobs=2)
    assert dict(serial.results) == dict(parallel.results)


def test_study_records_are_never_batched(tmp_path):
    """A study has one job per (benchmark, key) cell, so every job runs
    per job, serial or pooled."""
    for jobs in (1, 2):
        study = _study(tmp_path / str(jobs), cache=False, jobs=jobs)
        assert len(study.outcomes) == 2
        assert not any("batched" in o.record for o in study.outcomes)


def test_parallel_populates_shared_cache(tmp_path):
    _study(tmp_path, jobs=2)
    warm = _study(tmp_path, jobs=2)
    assert warm.cache_hits == 2


# ---------------------------------------------------------------------------
# study facade and telemetry
# ---------------------------------------------------------------------------


def test_run_study_is_keyword_only():
    with pytest.raises(TypeError):
        run_study(("swm",))  # noqa: positional on purpose


def test_study_result_behaves_like_the_suite_dict(tmp_path):
    study = _study(tmp_path)
    assert set(study) == {"swm"}
    assert len(study) == 1
    assert "swm" in study
    assert [r.experiment for r in study["swm"]] == ["baseline", "cc"]
    assert dict(study.items())["swm"] is study["swm"]
    base, cc = study["swm"]
    assert cc.execution_time < base.execution_time


def test_telemetry_records_and_file(tmp_path):
    out = tmp_path / "telemetry.json"
    study = _study(tmp_path / "cache", telemetry=out)
    assert len(study.telemetry) == 2
    rec = study.telemetry[0]
    assert rec["benchmark"] == "swm"
    assert rec["experiment"] == "baseline"
    assert rec["nprocs"] == 16
    assert rec["result"]["dynamic_count"] > 0
    assert rec["result"]["total_messages"] > 0
    assert rec["result"]["total_bytes"] > 0
    assert rec["timings"]["simulate_s"] > 0
    assert rec["timings"]["total_s"] >= rec["timings"]["simulate_s"]

    # the envelope is versioned by the same constant as the records it
    # wraps (they used to disagree: the envelope was frozen at 1)
    doc = json.loads(out.read_text())
    assert doc["schema"] == RECORD_SCHEMA
    assert [r["experiment"] for r in doc["records"]] == ["baseline", "cc"]
    assert all(r["schema"] == RECORD_SCHEMA for r in doc["records"])


def test_load_telemetry_round_trips(tmp_path):
    out = tmp_path / "telemetry.json"
    study = _study(tmp_path / "cache", telemetry=out)
    assert load_telemetry(out) == study.telemetry


def test_load_telemetry_rejects_unknown_envelope_schema(tmp_path):
    out = tmp_path / "telemetry.json"
    _study(tmp_path / "cache", telemetry=out)
    doc = json.loads(out.read_text())
    doc["schema"] = RECORD_SCHEMA + 1
    out.write_text(json.dumps(doc))
    with pytest.raises(ExperimentError, match="schema"):
        load_telemetry(out)


def test_load_telemetry_rejects_drifted_record_schema(tmp_path):
    out = tmp_path / "telemetry.json"
    _study(tmp_path / "cache", telemetry=out)
    doc = json.loads(out.read_text())
    doc["records"][0]["schema"] = RECORD_SCHEMA + 1
    out.write_text(json.dumps(doc))
    with pytest.raises(ExperimentError, match="record"):
        load_telemetry(out)


def test_load_telemetry_rejects_non_envelope_json(tmp_path):
    out = tmp_path / "telemetry.json"
    out.write_text(json.dumps([{"schema": RECORD_SCHEMA}]))
    with pytest.raises(ExperimentError, match="not a telemetry document"):
        load_telemetry(out)


def test_telemetry_carries_reconciling_pipeline_report(tmp_path):
    from repro.comm import PipelineReport

    study = _study(tmp_path)
    base_rec, cc_rec = study.telemetry
    report = PipelineReport.from_dict(cc_rec["pipeline"])
    assert report.signature == ("redundancy", "combining[max_combining]")
    assert report.reconciles()
    assert report.final == cc_rec["result"]["static_count"]
    # planned is the naive count: the baseline cell's static count
    assert report.planned == base_rec["result"]["static_count"]
    assert report.total_removed > 0 and report.total_merged > 0

    # a cache hit serves the identical report back
    warm = _study(tmp_path)
    assert warm.telemetry[1]["pipeline"] == cc_rec["pipeline"]


def test_compile_cache_shares_frontend_work(tmp_path):
    # serial run: the second key of the same benchmark reuses the lowered
    # program, and cc follows baseline so only optimize re-runs
    clear_compile_cache()
    study = _study(tmp_path, cache=False)
    first, second = study.telemetry
    assert not first["compile_cache"]["lowered_hit"]
    assert second["compile_cache"]["lowered_hit"]
    assert first["timings"]["compile_s"] > 0
    assert second["timings"]["compile_s"] == 0.0


def test_config_overrides_accept_assignment_strings(tmp_path):
    pairs = [f"{k}={v}" for k, v in SWM_SMALL.items()]
    from_strings = _study(tmp_path / "a", config_overrides={"swm": pairs})
    from_dict = _study(tmp_path / "b", config_overrides={"swm": SWM_SMALL})
    assert dict(from_strings.results) == dict(from_dict.results)


# ---------------------------------------------------------------------------
# fast path wiring
# ---------------------------------------------------------------------------


def test_jobs_have_no_walk_knob(tmp_path):
    # a job that forced the interpreted walk shared its cache entry with
    # compiled runs but wrote no fast-path counters into it; jobs always
    # run the compiled path, and the walk stays an in-process oracle
    # (SimOptions.fast)
    with pytest.raises(TypeError, match="fast"):
        Job.make("swm", "cc", fast=False)
    with pytest.raises(TypeError, match="fast"):
        _study(tmp_path, cache=False, fast=False)


def test_records_carry_fastpath_counters(tmp_path):
    study = _study(tmp_path, cache=False)
    for record in study.telemetry:
        fastpath = record["result"]["fastpath"]
        assert fastpath is not None
        assert set(fastpath) == {
            "extrapolated_trips", "extrapolated_loops", "fallbacks"
        }


def test_worker_failure_names_the_job(tmp_path):
    jobs = [Job.make("swm", "baseline", config={"no_such_knob": 1})]
    engine = ExperimentEngine(cache=False)
    with pytest.raises(ExperimentError, match=r"\(swm, baseline, pvm\)"):
        engine.run(jobs)


def test_pool_failure_names_the_job(tmp_path):
    good = Job.make("swm", "baseline", machine=MachineSpec(nprocs=16),
                    config=SWM_SMALL)
    bad = Job.make("swm", "cc", machine=MachineSpec(nprocs=16),
                   config=dict(SWM_SMALL, no_such_knob=1))
    engine = ExperimentEngine(jobs=2, cache=False)
    with pytest.raises(ExperimentError, match=r"\(swm, cc, pvm\)"):
        engine.run([good, bad])
