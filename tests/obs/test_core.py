"""Tests for the recorder: spans, metrics, and the global switch."""

import pytest

from repro.obs import (
    MemorySink,
    Metrics,
    Recorder,
    recording,
)
from repro.obs import core as obs
from repro.runtime.timing import TraceEvent


@pytest.fixture(autouse=True)
def tracing_off():
    """Every test starts and ends with tracing disabled."""
    obs.shutdown()
    yield
    obs.shutdown()


class TestDisabled:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.current() is None

    def test_null_span_is_shared_and_inert(self):
        a = obs.span("compile")
        b = obs.span("simulate", nprocs=64)
        assert a is b  # one stateless object, no allocation per site
        with a:
            pass

    def test_helpers_are_noops_when_disabled(self):
        obs.event("x")
        obs.add("c", 3)
        obs.gauge("g", 1.5)
        obs.observe("h", 0.1)
        assert obs.counters() == {}
        assert obs.bridge_rank_trace([TraceEvent(0.0, 1.0, "compute")], 0) == 0

    def test_shutdown_when_off_returns_none(self):
        assert obs.shutdown() is None


class TestMetrics:
    def test_counters_accumulate(self):
        m = Metrics()
        m.add("a")
        m.add("a", 4)
        assert m.counters == {"a": 5}

    def test_gauge_keeps_last(self):
        m = Metrics()
        m.set_gauge("g", 1)
        m.set_gauge("g", 7)
        assert m.gauges == {"g": 7.0}

    def test_histogram_summary(self):
        m = Metrics()
        for v in (3.0, 1.0, 2.0):
            m.observe("h", v)
        assert m.histograms["h"] == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0}

    def test_snapshot_is_a_copy(self):
        m = Metrics()
        m.add("a")
        snap = m.snapshot()
        m.add("a")
        assert snap["counters"] == {"a": 1}


class TestRecorder:
    def test_span_records_nesting_depth(self):
        sink = MemorySink()
        with recording(sink):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        # inner exits (and emits) first
        inner, outer = sink.spans()
        assert (inner["name"], inner["depth"]) == ("inner", 1)
        assert (outer["name"], outer["depth"]) == ("outer", 0)
        assert outer["dur"] >= inner["dur"]
        assert outer["ts"] <= inner["ts"]

    def test_span_attrs_and_error_flag(self):
        sink = MemorySink()
        with recording(sink):
            with pytest.raises(ValueError):
                with obs.span("work", benchmark="swm"):
                    raise ValueError("boom")
        (span,) = sink.spans("work")
        assert span["attrs"] == {"benchmark": "swm"}
        assert span["error"] == "ValueError"

    def test_counter_records_delta_and_running_total(self):
        sink = MemorySink()
        with recording(sink):
            obs.add("hits")
            obs.add("hits", 2)
        first, second = sink.of_type("counter")
        assert (first["delta"], first["value"]) == (1, 1)
        assert (second["delta"], second["value"]) == (2, 3)

    def test_zero_delta_add_is_skipped(self):
        sink = MemorySink()
        with recording(sink):
            obs.add("hits", 0)
        assert sink.of_type("counter") == []

    def test_final_metrics_record_emitted_on_close(self):
        sink = MemorySink()
        with recording(sink):
            obs.add("c", 2)
            obs.gauge("g", 1.0)
            obs.observe("h", 0.5)
        (final,) = sink.of_type("metrics")
        assert final["metrics"]["counters"] == {"c": 2}
        assert final["metrics"]["gauges"] == {"g": 1.0}
        assert final["metrics"]["histograms"]["h"]["count"] == 1

    def test_close_is_idempotent(self):
        sink = MemorySink()
        rec = Recorder([sink])
        rec.add("c")
        assert rec.close() == rec.close()
        assert len(sink.of_type("metrics")) == 1

    def test_bridge_rank_trace_forwards_model_time(self):
        sink = MemorySink()
        trace = [
            TraceEvent(0.0, 1.5, "compute", "A"),
            TraceEvent(1.5, 2.0, "send", "x"),
        ]
        with recording(sink) as rec:
            assert rec.bridge_rank_trace(trace, rank=3) == 2
        events = sink.of_type("rank_event")
        assert [e["kind"] for e in events] == ["compute", "send"]
        assert events[0] == {
            "type": "rank_event",
            "rank": 3,
            "kind": "compute",
            "label": "A",
            "ts": 0.0,
            "dur": 1.5,
            "trace": rec.trace_id,
        }
        assert rec.metrics.counters["sim.trace.rank3.events"] == 2


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

    def test_every_record_carries_the_trace_id(self):
        sink = MemorySink()
        with obs.recording(sink) as rec:
            obs.add("c")
            obs.event("e")
        assert all(r["trace"] == rec.trace_id for r in sink.records)


class TestSwitch:
    def test_configure_enables_and_shutdown_disables(self):
        sink = MemorySink()
        rec = obs.configure(sink)
        assert obs.current() is rec and obs.enabled()
        obs.add("c")
        snap = obs.shutdown()
        assert snap["counters"] == {"c": 1}
        assert not obs.enabled()

    def test_configure_closes_the_previous_recorder(self):
        first = MemorySink()
        obs.configure(first)
        obs.configure(MemorySink())
        assert len(first.of_type("metrics")) == 1  # closed, not leaked
        obs.shutdown()

    def test_recording_scopes_the_switch(self):
        with recording(MemorySink()):
            assert obs.enabled()
        assert not obs.enabled()

    def test_recording_survives_mid_scope_replacement(self):
        inner = MemorySink()
        with recording(MemorySink()):
            obs.configure(inner)  # someone else took over mid-scope
        # the scope closed its own recorder and left the usurper alone
        assert obs.enabled()
        obs.shutdown()
        assert len(inner.of_type("metrics")) == 1
