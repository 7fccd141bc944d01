"""The dispatch layer: inline vs pool parity and one-process traces.

A pool of workers must be invisible in the results — byte-identical
records, same fingerprints, same cache.  While tracing is on, jobs run
inline, so a trace holds exactly the work of the process recording it.
"""

import os
from collections import Counter

import pytest

from repro import run_study
from repro.engine import (
    ExperimentEngine,
    LocalDispatcher,
    MachineSpec,
    build_matrix,
    clear_compile_cache,
)
from repro.errors import ExperimentError
from repro.obs import MemorySink, recording
from repro.obs import core as obs
from repro.programs import small_config

SWM_SMALL = small_config("swm")


def _matrix(keys=("baseline", "cc")):
    return build_matrix(
        ["swm"],
        keys=keys,
        machine=MachineSpec(nprocs=16),
        config_overrides={"swm": SWM_SMALL},
    )


def _strip(record):
    """Drop the volatile host-local fields; everything else must be
    byte-identical between inline and pooled execution."""
    return {
        k: v
        for k, v in record.items()
        if k not in ("timings", "started_at", "worker_pid", "compile_cache")
    }


def test_dispatcher_rejects_bad_shape():
    with pytest.raises(ExperimentError, match="workers"):
        LocalDispatcher(workers=0)


def test_empty_dispatch():
    assert LocalDispatcher().dispatch([]) == []
    assert LocalDispatcher(workers=2).dispatch([]) == []


def test_pool_matches_inline_byte_for_byte():
    jobs = _matrix(keys=("baseline", "cc", "pl"))
    inline = LocalDispatcher().dispatch(jobs)
    pooled = LocalDispatcher(workers=2).dispatch(jobs)
    assert [_strip(r) for r in inline] == [_strip(r) for r in pooled]
    assert [r["fingerprint"] for r in pooled] == [j.fingerprint() for j in jobs]


# ---------------------------------------------------------------------------
# tracing: one process per trace
# ---------------------------------------------------------------------------


def test_traced_dispatch_runs_inline():
    jobs = _matrix(keys=("baseline", "cc", "pl"))
    sink = MemorySink()
    with recording(sink):
        traced = LocalDispatcher(workers=2).dispatch(jobs)
    assert {r["worker_pid"] for r in traced} == {os.getpid()}
    assert not [r for r in sink.records if "worker_pid" in r]
    # untraced, the same call still fans out over the pool
    untraced = LocalDispatcher(workers=2).dispatch(jobs)
    assert {r["worker_pid"] for r in untraced} - {os.getpid()}
    assert [_strip(r) for r in traced] == [_strip(r) for r in untraced]


def test_dispatch_emits_one_job_event_per_job():
    jobs = _matrix(keys=("baseline", "cc", "pl"))
    for workers in (None, 2):
        sink = MemorySink()
        with recording(sink):
            LocalDispatcher(workers=workers).dispatch(jobs)
        events = [r for r in sink.records if r.get("name") == "engine.job"]
        assert len(events) == len(jobs), workers
        assert {e["attrs"]["status"] for e in events} == {"done"}
        assert {
            (e["attrs"]["benchmark"], e["attrs"]["experiment"]) for e in events
        } == {(j.benchmark, j.experiment) for j in jobs}


def test_worker_counters_merge_into_the_coordinator_registry():
    """The simulator work of a traced dispatch that asks for workers is
    counted in the registry of the process that records it."""
    jobs = _matrix(keys=("baseline", "cc", "pl"))
    with recording(MemorySink()):
        LocalDispatcher().dispatch(jobs)
        inline = obs.counters()
    with recording(MemorySink()):
        LocalDispatcher(workers=2).dispatch(jobs)
        pooled = obs.counters()
    sim_inline = {k: v for k, v in inline.items() if k.startswith("sim.")}
    sim_pooled = {k: v for k, v in pooled.items() if k.startswith("sim.")}
    assert sim_inline and sim_inline == sim_pooled


def test_counter_parity_serial_vs_pool_on_the_paper_matrix():
    """A traced ``jobs=2`` study records exactly what a traced serial
    one does, across the paper matrix: the same spans, every counter,
    one warning event per job, one trace id, one span tree."""
    from repro.programs import BENCHMARKS

    cfg = {b: small_config(b) for b in BENCHMARKS}

    def traced(jobs):
        clear_compile_cache()
        sink = MemorySink()
        with recording(sink) as rec:
            with rec.span("root") as root:
                study = run_study(
                    benchmarks=BENCHMARKS,
                    nprocs=16,
                    config_overrides=cfg,
                    cache=False,
                    jobs=jobs,
                )
        (metrics,) = sink.of_type("metrics")
        spans = sink.spans()
        warnings = sorted(r["attrs"]["message"] for r in sink.events("warning"))
        assert sorted(
            w for record in study.telemetry for w in record["result"]["warnings"]
        ) == warnings
        assert len(warnings) == len(study.outcomes)
        assert {r["trace"] for r in sink.records} == {rec.trace_id}
        by_id = {r["id"]: r for r in spans}
        for span in spans:
            seen = set()
            while "parent" in span:
                assert span["parent"] not in seen
                seen.add(span["parent"])
                span = by_id[span["parent"]]
            assert span["id"] == root.id
        return Counter(r["name"] for r in spans), metrics["metrics"]["counters"]

    serial_spans, serial_counters = traced(1)
    pooled_spans, pooled_counters = traced(2)
    assert serial_spans == pooled_spans
    assert serial_counters and serial_counters == pooled_counters


def test_dispatch_counters_flow_through_the_engine(tmp_path):
    engine = ExperimentEngine(cache_dir=tmp_path, jobs=2)
    with recording(MemorySink()):
        engine.run(_matrix())
        counters = obs.counters()
    assert counters["engine.dispatch.jobs"] == 2
    assert counters["engine.result_cache.miss"] == 2
    assert counters["engine.result_cache.store"] == 2
