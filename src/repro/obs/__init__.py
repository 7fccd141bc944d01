"""``repro.obs`` — the unified tracing & metrics layer.

One subsystem observes the whole stack: hierarchical **spans** time the
compiler phases, optimizer passes, engine jobs, and simulations; a
**metrics registry** (counters / gauges / histograms) accumulates cache
traffic, IRONMAN call counts, and communication volumes; pluggable
**sinks** receive every record — structured JSONL, a Chrome trace-event
document Perfetto loads directly (with the simulator's per-rank
timelines bridged into the same file), and an in-memory sink for tests.

Tracing is **off by default and zero-cost when off**: every
instrumentation site calls a module-level helper that reads one global
and returns a shared no-op.  A trace records one process: while tracing
is on, the engine runs its jobs inline instead of over a worker pool.
Turn it on around any workload::

    from repro import run_study
    from repro.obs import ChromeTraceSink, JsonlSink, recording

    with recording(ChromeTraceSink("trace.json"), JsonlSink("events.jsonl")):
        run_study(benchmarks=("simple",), cache=False)

or from the command line: ``python -m repro trace simple --out
trace.json``.  :mod:`repro.obs.baseline` turns the collected telemetry
into committed regression baselines (``python -m repro compare``).

See ``docs/OBSERVABILITY.md`` for the span names, metric names, record
shapes, and the baseline file format.
"""

from repro.obs.baseline import (
    BASELINE_SCHEMA,
    Drift,
    diff_baseline,
    format_drifts,
    load_baseline,
    snapshot_study,
    write_baseline,
)
from repro.obs.core import (
    Metrics,
    Recorder,
    Span,
    active_trace,
    add,
    bridge_rank_trace,
    configure,
    counters,
    current,
    enabled,
    event,
    gauge,
    observe,
    recording,
    shutdown,
    span,
)
from repro.obs.sinks import ChromeTraceSink, JsonlSink, MemorySink, Sink

__all__ = [
    # core
    "Metrics",
    "Recorder",
    "Span",
    "active_trace",
    "add",
    "bridge_rank_trace",
    "configure",
    "counters",
    "current",
    "enabled",
    "event",
    "gauge",
    "observe",
    "recording",
    "shutdown",
    "span",
    # sinks
    "ChromeTraceSink",
    "JsonlSink",
    "MemorySink",
    "Sink",
    # baselines
    "BASELINE_SCHEMA",
    "Drift",
    "diff_baseline",
    "format_drifts",
    "load_baseline",
    "snapshot_study",
    "write_baseline",
]
