"""The dispatch layer: inline vs pool parity and worker observability.

A pool of workers must be invisible in the results — byte-identical
records, same fingerprints, same cache — while the coordinator's trace
still sees every worker's spans and counters.
"""

import pytest

from repro import run_study
from repro.engine import (
    ExperimentEngine,
    LocalDispatcher,
    MachineSpec,
    build_matrix,
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
# pool observability: worker capture, job events, counter parity
# ---------------------------------------------------------------------------


def test_pool_worker_spans_are_stitched_into_the_coordinator_trace():
    jobs = _matrix(keys=("baseline", "cc", "pl"))
    sink = MemorySink()
    with recording(sink) as rec:
        records = LocalDispatcher(workers=2).dispatch(jobs)
    # the worker capture payload is popped before records reach anyone
    assert all("obs" not in r for r in records)
    worker_spans = [
        r
        for r in sink.records
        if r["type"] == "span" and "worker_pid" in r
    ]
    assert worker_spans, "worker-side spans must ship back to the coordinator"
    assert {r["trace"] for r in worker_spans} == {rec.trace_id}
    # every job runs under a worker-side "job" span (compile spans only
    # appear when the forked worker's compile cache is cold)
    assert {r["name"] for r in worker_spans} >= {"job"}
    assert sum(r["name"] == "job" for r in worker_spans) == len(jobs)
    # worker span ids are globally unique: no id collides across pids
    ids = [r["id"] for r in sink.records if r["type"] == "span"]
    assert len(ids) == len(set(ids))


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
    """The regression gate: the same simulator work happens (and is
    counted) whether one process or a pool ran it, across the full
    paper matrix.  Only ``sim.*`` counters are comparable — compile-cache
    counters legitimately differ per worker process."""
    from repro.programs import BENCHMARKS

    cfg = {b: small_config(b) for b in BENCHMARKS}

    def sim_counters(jobs):
        with recording(MemorySink()):
            run_study(
                benchmarks=BENCHMARKS,
                nprocs=16,
                config_overrides=cfg,
                cache=False,
                jobs=jobs,
            )
            return {
                k: v for k, v in obs.counters().items() if k.startswith("sim.")
            }

    serial = sim_counters(1)
    pooled = sim_counters(2)
    assert serial and serial == pooled


def test_dispatch_counters_flow_through_the_engine(tmp_path):
    engine = ExperimentEngine(cache_dir=tmp_path, jobs=2)
    with recording(MemorySink()):
        engine.run(_matrix())
        counters = obs.counters()
    assert counters["engine.dispatch.jobs"] == 2
    assert counters["engine.result_cache.miss"] == 2
    assert counters["engine.result_cache.store"] == 2
