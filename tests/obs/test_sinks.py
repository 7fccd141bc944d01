"""Tests for the JSONL and Chrome trace-event sinks."""

import json

import pytest

from repro.obs import ChromeTraceSink, JsonlSink, MemorySink
from repro.obs import core as obs
from repro.obs.sinks import HOST_PID, SIM_PID
from repro.runtime.timing import TraceEvent


def _flush_inherited():
    """A forked child that exits through interpreter shutdown flushes
    the sink buffers it inherited; do that explicitly, since
    multiprocessing ends its children with ``os._exit``."""
    obs.current().flush()


@pytest.fixture(autouse=True)
def tracing_off():
    obs.shutdown()
    yield
    obs.shutdown()


class TestJsonl:
    def test_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with obs.recording(JsonlSink(path)):
            with obs.span("compile", source="x.zl"):
                obs.add("c", 2)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        # counter emits inside the span, span on exit, metrics at close
        assert [r["type"] for r in lines] == ["counter", "span", "metrics"]
        assert lines[1]["attrs"] == {"source": "x.zl"}

    def test_empty_trace_leaves_a_valid_empty_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        sink.close()
        assert path.exists() and path.read_text() == ""

    def test_unserializable_attrs_fall_back_to_str(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with obs.recording(JsonlSink(path)):
            obs.event("x", where=object())
        record = json.loads(path.read_text().splitlines()[0])
        assert "object object" in record["attrs"]["where"]


class TestChromeTrace:
    def _run(self, tmp_path):
        path = tmp_path / "trace.json"
        sink = ChromeTraceSink(path)
        with obs.recording(sink) as rec:
            with obs.span("compile", source="x.zl"):
                obs.add("engine.result_cache.miss")
            obs.event("warning", message="m")
            obs.gauge("g", 2.5)
            rec.bridge_rank_trace(
                [TraceEvent(0.0, 0.25, "compute", "A")], rank=1
            )
        return path, json.loads(path.read_text())

    def test_writes_a_loadable_document_on_close(self, tmp_path):
        _, doc = self._run(tmp_path)
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"]["generator"] == "repro.obs"

    def test_span_becomes_complete_event_in_microseconds(self, tmp_path):
        _, doc = self._run(tmp_path)
        (span,) = [e for e in doc["traceEvents"] if e["name"] == "compile"]
        assert span["ph"] == "X"
        assert (span["pid"], span["tid"]) == (HOST_PID, 0)
        assert span["dur"] >= 0
        assert span["args"] == {"source": "x.zl"}

    def test_counters_and_gauges_become_counter_tracks(self, tmp_path):
        _, doc = self._run(tmp_path)
        tracks = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "C"}
        assert tracks["engine.result_cache.miss"]["args"] == {"value": 1}
        assert tracks["g"]["args"] == {"value": 2.5}

    def test_events_become_instants(self, tmp_path):
        _, doc = self._run(tmp_path)
        (instant,) = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instant["name"] == "warning"
        assert instant["args"] == {"message": "m"}

    def test_rank_events_get_their_own_process(self, tmp_path):
        _, doc = self._run(tmp_path)
        (ev,) = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e.get("pid") == SIM_PID
        ]
        assert (ev["tid"], ev["name"]) == (1, "compute")
        assert ev["ts"] == 0.0 and ev["dur"] == pytest.approx(0.25e6)

    def test_metadata_names_processes_and_rank_threads(self, tmp_path):
        _, doc = self._run(tmp_path)
        meta = {
            (e["pid"], e.get("tid"), e["name"]): e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M"
        }
        assert meta[(HOST_PID, None, "process_name")] == "host"
        assert meta[(SIM_PID, 1, "thread_name")] == "rank 1"

    def test_final_metrics_land_in_other_data(self, tmp_path):
        _, doc = self._run(tmp_path)
        metrics = doc["otherData"]["metrics"]
        assert metrics["counters"]["engine.result_cache.miss"] == 1
        assert metrics["counters"]["sim.trace.rank1.events"] == 1

    def test_document_available_before_close(self):
        sink = ChromeTraceSink("/nonexistent/never-written.json")
        sink.emit({"type": "event", "name": "x", "ts": 0.0})
        doc = sink.document()
        assert any(e["ph"] == "i" for e in doc["traceEvents"])


class TestJsonlFlushEvery:
    def test_rejects_nonpositive(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            JsonlSink(tmp_path / "e.jsonl", flush_every=0)

    def test_line_buffered_mode_is_readable_before_close(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sink = JsonlSink(path, flush_every=1)
        try:
            sink.emit({"type": "event", "name": "a", "ts": 0.0})
            sink.emit({"type": "event", "name": "b", "ts": 1.0})
            # flushed per record: both lines visible while still open
            lines = [json.loads(l) for l in path.read_text().splitlines()]
            assert [r["name"] for r in lines] == ["a", "b"]
        finally:
            sink.close()

    def test_default_buffering_flushes_only_at_close(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sink = JsonlSink(path)
        try:
            sink.emit({"type": "event", "name": "a", "ts": 0.0})
            assert path.read_text() == ""  # small record: still buffered
        finally:
            sink.close()
        assert json.loads(path.read_text())["name"] == "a"

    def test_batched_flush_interval(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sink = JsonlSink(path, flush_every=3)
        try:
            for i in range(5):
                sink.emit({"type": "event", "name": str(i), "ts": 0.0})
            assert len(path.read_text().splitlines()) == 3  # one flush at 3
        finally:
            sink.close()
        assert len(path.read_text().splitlines()) == 5

    def test_killed_writer_leaves_valid_jsonl(self, tmp_path):
        """SIGKILL a process streaming through ``flush_every=1`` — every
        fully flushed line must parse (the final line may be cut)."""
        import os
        import signal
        import subprocess
        import sys
        import time

        path = tmp_path / "killed.jsonl"
        code = (
            "import itertools, sys\n"
            "from repro.obs import JsonlSink\n"
            "from repro.obs import core as obs\n"
            f"obs.configure(JsonlSink({str(path)!r}, flush_every=1))\n"
            "for i in itertools.count():\n"
            "    obs.event('tick', i=i, payload='x' * 64)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH="src"),
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if path.exists() and path.stat().st_size > 4096:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("writer produced no output in time")
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        lines = path.read_text().splitlines()
        assert len(lines) > 10
        complete = lines if path.read_text().endswith("\n") else lines[:-1]
        records = [json.loads(line) for line in complete]  # all parse
        # and the stream is the contiguous event sequence, nothing lost
        assert [r["attrs"]["i"] for r in records] == list(range(len(records)))


class TestFanOut:
    def test_all_sinks_receive_every_record(self, tmp_path):
        mem = MemorySink()
        jsonl = JsonlSink(tmp_path / "e.jsonl")
        with obs.recording(mem, jsonl):
            obs.add("c")
        lines = (tmp_path / "e.jsonl").read_text().splitlines()
        assert len(lines) == len(mem.records) == 2  # counter + metrics


class TestConcurrency:
    def test_threaded_emission_stays_valid_jsonl(self, tmp_path):
        """Threads sharing one recorder: fan-out serializes, so the log
        stays one valid JSON object per line."""
        import threading

        path = tmp_path / "events.jsonl"
        recorder = obs.configure(JsonlSink(path))

        def hammer(tag):
            for i in range(200):
                recorder.event(f"{tag}.tick", i=i)

        threads = [
            threading.Thread(target=hammer, args=(f"t{n}",))
            for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        obs.shutdown()
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert sum(r["type"] == "event" for r in records) == 800

    def test_emit_after_close_is_dropped(self, tmp_path):
        sink = JsonlSink(tmp_path / "late.jsonl")
        sink.emit({"type": "event", "name": "a"})
        sink.close()
        sink.emit({"type": "event", "name": "late"})  # no raise
        records = [
            json.loads(line)
            for line in (tmp_path / "late.jsonl").read_text().splitlines()
        ]
        assert [r["name"] for r in records] == ["a"]

    def test_fork_does_not_duplicate_buffered_records(self, tmp_path):
        """A forked child inherits the sink's unflushed buffer; the
        before-fork flush leaves it nothing to write twice."""
        import multiprocessing

        path = tmp_path / "events.jsonl"
        recorder = obs.configure(JsonlSink(path))
        for i in range(50):
            recorder.event("parent.tick", i=i)  # sits in the buffer
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_flush_inherited)
        proc.start()
        proc.join()
        assert proc.exitcode == 0
        obs.shutdown()
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert sum(r.get("name") == "parent.tick" for r in records) == 50
