"""Tracing a study that asks for a pool of workers: while a recorder is
active the engine runs every job inline, so the trace is one process's
work under one root span."""

import os

import pytest

from repro.obs import MemorySink
from repro.obs import core as obs


@pytest.fixture(autouse=True)
def tracing_off():
    obs.shutdown()
    yield
    obs.shutdown()


class TestEndToEndStitching:
    def test_pool_study_is_one_trace(self, tmp_path):
        """A traced ``jobs=2`` study lands in one trace under the root
        span, with no record tagged by another process."""
        from repro import run_study
        from repro.programs import small_config

        sink = MemorySink()
        with obs.recording(sink) as rec:
            with rec.span("trace") as root:
                study = run_study(
                    benchmarks=("swm",),
                    keys=("baseline", "cc"),
                    nprocs=16,
                    config_overrides={"swm": small_config("swm")},
                    cache_dir=tmp_path,
                    jobs=2,
                )
        assert {r["worker_pid"] for r in study.telemetry} == {os.getpid()}
        assert not [r for r in sink.records if "worker_pid" in r]
        spans = [r for r in sink.records if r["type"] == "span"]
        assert {r["trace"] for r in spans} == {rec.trace_id}
        jobs = [r for r in spans if r["name"] == "job"]
        assert len(jobs) == 2
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
