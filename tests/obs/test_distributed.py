"""Tests for cross-process tracing: span identity, trace-context
propagation, and pool-worker capture stitching."""

import json

import pytest

from repro.obs import MemorySink
from repro.obs import core as obs
from repro.obs import distributed


@pytest.fixture(autouse=True)
def tracing_off():
    obs.shutdown()
    yield
    obs.shutdown()


class TestSpanIdentity:
    def test_span_ids_are_unique_and_parented(self):
        sink = MemorySink()
        with obs.recording(sink):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        spans = {r["name"]: r for r in sink.records if r["type"] == "span"}
        assert spans["outer"]["id"] != spans["inner"]["id"]
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert "parent" not in spans["outer"]

    def test_top_level_span_parents_under_recorder_parent(self):
        sink = MemorySink()
        rec = obs.configure(sink, trace_id="t1", parent_span="root:1")
        with rec.span("job"):
            pass
        obs.shutdown()
        span = next(r for r in sink.records if r["type"] == "span")
        assert span["parent"] == "root:1"
        assert span["trace"] == "t1"

    def test_every_record_carries_the_trace_id(self):
        sink = MemorySink()
        with obs.recording(sink) as rec:
            obs.add("c")
            obs.event("e")
        assert all(r["trace"] == rec.trace_id for r in sink.records)

    def test_trace_parent_tracks_open_span(self):
        assert obs.trace_parent() is None
        rec = obs.configure(MemorySink(), parent_span="root:1")
        assert obs.trace_parent() == (rec.trace_id, "root:1")
        with rec.span("dispatch") as sp:
            assert obs.trace_parent() == (rec.trace_id, sp.id)


class TestMetricsMerge:
    def test_counters_add_gauges_overwrite_histograms_combine(self):
        a = obs.Metrics()
        a.add("jobs", 2)
        a.set_gauge("g", 1.0)
        a.observe("h", 1.0)
        a.observe("h", 5.0)
        b = obs.Metrics()
        b.add("jobs", 3)
        b.add("only_b")
        b.set_gauge("g", 9.0)
        b.observe("h", 0.5)
        a.merge(b.snapshot())
        assert a.counters == {"jobs": 5, "only_b": 1}
        assert a.gauges == {"g": 9.0}
        assert a.histograms["h"] == {"count": 3, "sum": 6.5, "min": 0.5, "max": 5.0}

    def test_merge_into_empty_copies(self):
        a = obs.Metrics()
        b = obs.Metrics()
        b.observe("h", 2.0)
        a.merge(b.snapshot())
        assert a.histograms == {"h": {"count": 1, "sum": 2.0, "min": 2.0, "max": 2.0}}


class TestWorkerCapture:
    def test_no_capture_without_worker_init(self):
        assert distributed.begin_job_capture() is None

    def test_no_capture_when_a_recorder_is_live(self):
        distributed.worker_init("t1", "root:1")
        try:
            obs.configure(MemorySink())
            assert distributed.begin_job_capture() is None
        finally:
            distributed._WORKER_CONTEXT = None

    def test_worker_init_discards_an_inherited_recorder(self):
        # a forked pool worker inherits the coordinator's recorder; the
        # initializer must drop it (without flushing the parent's sinks)
        # so per-job captures start clean
        sink = MemorySink()
        obs.configure(sink)
        try:
            distributed.worker_init("t1", "root:1")
            assert not obs.enabled()
            assert all(r["type"] != "metrics" for r in sink.records)
            capture = distributed.begin_job_capture()
            assert capture is not None
            capture.finish()
        finally:
            distributed._WORKER_CONTEXT = None

    def test_capture_payload_carries_records_and_metrics(self):
        distributed.worker_init("coord-trace", "root:1")
        try:
            capture = distributed.begin_job_capture()
            with obs.span("job", benchmark="swm"):
                obs.add("sim.steps", 3)
            payload = capture.finish()
        finally:
            distributed._WORKER_CONTEXT = None
        assert not obs.enabled()  # the throwaway recorder is gone
        assert payload["pid"] > 0
        assert payload["metrics"]["counters"] == {"sim.steps": 3}
        span = next(r for r in payload["records"] if r["type"] == "span")
        assert span["trace"] == "coord-trace"
        assert span["parent"] == "root:1"
        # the metrics summary record travels via the registry, not records
        assert all(r["type"] != "metrics" for r in payload["records"])
        json.dumps(payload)  # must ride home inside a JSON job record

    def test_absorb_pops_and_stitches(self):
        distributed.worker_init("t", "root:1")
        try:
            capture = distributed.begin_job_capture()
            with obs.span("job"):
                obs.add("sim.steps")
            payload = capture.finish()
        finally:
            distributed._WORKER_CONTEXT = None
        sink = MemorySink()
        with obs.recording(sink) as rec:
            record = {"result": 1, "obs": payload}
            assert distributed.absorb(record) > 0
            assert "obs" not in record  # popped before caching/return
            assert rec.metrics.counters["sim.steps"] == 1
        stitched = next(r for r in sink.records if r["type"] == "span")
        assert stitched["worker_pid"] == payload["pid"]
        assert stitched["trace"] == "t"

    def test_absorb_without_payload_or_recorder_is_harmless(self):
        assert distributed.absorb(None) == 0
        assert distributed.absorb({"result": 1}) == 0
        assert distributed.absorb({"obs": {"records": [{"type": "event", "ts": 0}]}}) == 0

    def test_merge_worker_rebases_timestamps(self):
        sink = MemorySink()
        with obs.recording(sink) as rec:
            payload = {
                "pid": 1234,
                "wall_epoch": rec.wall_epoch + 10.0,
                "records": [{"type": "event", "name": "x", "ts": 0.5}],
                "metrics": {},
            }
            assert rec.merge_worker(payload) == 1
        stitched = next(r for r in sink.records if r.get("name") == "x")
        assert stitched["ts"] == pytest.approx(10.5)
        assert stitched["worker_pid"] == 1234


class TestEndToEndStitching:
    def test_pool_study_is_one_trace(self, tmp_path):
        """Coordinator and pool workers land in one trace under the
        root span."""
        from repro import run_study
        from repro.programs import small_config

        sink = MemorySink()
        with obs.recording(sink) as rec:
            with rec.span("trace") as root:
                run_study(
                    benchmarks=("swm",),
                    keys=("baseline", "cc"),
                    nprocs=16,
                    config_overrides={"swm": small_config("swm")},
                    cache_dir=tmp_path,
                    jobs=2,
                )
        spans = [r for r in sink.records if r["type"] == "span"]
        assert {r["trace"] for r in spans} == {rec.trace_id}
        jobs = [r for r in spans if r["name"] == "job"]
        assert len(jobs) == 2 and all("worker_pid" in r for r in jobs)
        # every span reaches the root by walking parents
        by_id = {r["id"]: r for r in spans}

        def climbs_to_root(span):
            seen = set()
            while span.get("parent"):
                if span["parent"] in seen:
                    return False
                seen.add(span["parent"])
                span = by_id.get(span["parent"])
                if span is None:
                    return False
            return span["id"] == root.id

        assert all(climbs_to_root(r) for r in spans if r["id"] != root.id)
        # exactly one terminal engine.job event per job
        events = [r for r in sink.records if r.get("name") == "engine.job"]
        assert len(events) == 2
