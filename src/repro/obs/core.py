"""The recorder: hierarchical spans, a metrics registry, and the
module-global switch that keeps everything zero-cost when tracing is
off.

One :class:`Recorder` is active per process at most (simulation workers
spawned by the engine each start with tracing off; the engine re-emits
their warnings — see :mod:`repro.engine.core`).  Every instrumentation
site in the package goes through the module-level helpers
(:func:`span`, :func:`add`, :func:`event`, ...), which read the active
recorder once and fall back to shared no-op objects, so a disabled run
pays one attribute load and one ``is None`` test per site — nothing is
allocated, formatted, or buffered.

Timebases
---------

Host-side records (spans, counters, events) are stamped in seconds of
``time.perf_counter()`` relative to the recorder's epoch.  Bridged
simulation timelines (:func:`bridge_rank_trace`) are in *model seconds*
— a different clock entirely — and sinks keep them in a separate
process group so the two never get compared by accident.

Trace identity
--------------

Every recorder owns a **trace id** (random hex, minted at
construction) and stamps it on every record it emits, and every span
gets a process-unique **span id** plus the id of its parent (the
enclosing span on this thread, or the recorder's ``parent_span`` for
top-level spans — how a shipped worker trace parents under its
coordinator; see :mod:`repro.obs.distributed`).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Metrics",
    "Recorder",
    "Span",
    "active_trace",
    "add",
    "bridge_rank_trace",
    "configure",
    "current",
    "discard",
    "enabled",
    "event",
    "gauge",
    "observe",
    "recording",
    "shutdown",
    "span",
    "trace_parent",
]


class Metrics:
    """Counters, gauges, and histogram summaries by dotted name.

    Counters are monotonically accumulated ints; gauges keep the last
    value set; histograms keep ``count``/``sum``/``min``/``max`` (enough
    for the regression thresholds — full bucket vectors would outlive
    their usefulness here).
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Dict[str, float]] = {}

    def add(self, name: str, n: int = 1) -> int:
        total = self.counters.get(name, 0) + n
        self.counters[name] = total
        return total

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        value = float(value)
        h = self.histograms.get(name)
        if h is None:
            self.histograms[name] = {
                "count": 1,
                "sum": value,
                "min": value,
                "max": value,
            }
        else:
            h["count"] += 1
            h["sum"] += value
            h["min"] = min(h["min"], value)
            h["max"] = max(h["max"], value)

    def snapshot(self) -> dict:
        """JSON-safe copy of every registered metric."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add, gauges keep the incoming value (last write wins),
        histograms combine count/sum/min/max.  This is how worker-side
        registries shipped back by pool workers land in the
        coordinator (see :mod:`repro.obs.distributed`).
        """
        for name, value in (snapshot.get("counters") or {}).items():
            self.counters[name] = self.counters.get(name, 0) + int(value)
        for name, value in (snapshot.get("gauges") or {}).items():
            self.gauges[name] = float(value)
        for name, incoming in (snapshot.get("histograms") or {}).items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = dict(incoming)
            else:
                mine["count"] += incoming["count"]
                mine["sum"] += incoming["sum"]
                mine["min"] = min(mine["min"], incoming["min"])
                mine["max"] = max(mine["max"], incoming["max"])


class Span:
    """One timed interval, emitted on exit.

    Created only through :meth:`Recorder.span`; supports nesting (the
    recorder tracks a per-thread stack, and the emitted record carries
    the depth plus this span's ``id`` and its ``parent`` span id).
    """

    __slots__ = ("_recorder", "name", "attrs", "_t0", "_depth", "id", "parent")

    def __init__(
        self,
        recorder: "Recorder",
        name: str,
        attrs: Dict[str, Any],
        parent: Optional[str] = None,
    ) -> None:
        self._recorder = recorder
        self.name = name
        self.attrs = attrs
        self._t0 = 0.0
        self._depth = 0
        self.id = ""
        self.parent = parent

    def __enter__(self) -> "Span":
        rec = self._recorder
        stack = rec._stack()
        self._depth = len(stack)
        self.id = rec.next_span_id()
        if self.parent is None:
            self.parent = stack[-1][1] if stack else rec.parent_span
        stack.append((self.name, self.id))
        self._t0 = rec.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = self._recorder.now()
        stack = self._recorder._stack()
        if stack and stack[-1][1] == self.id:
            stack.pop()
        record = {
            "type": "span",
            "name": self.name,
            "ts": self._t0,
            "dur": end - self._t0,
            "depth": self._depth,
            "id": self.id,
        }
        if self.parent is not None:
            record["parent"] = self.parent
        if self.attrs:
            record["attrs"] = self.attrs
        if exc_type is not None:
            record["error"] = exc_type.__name__
        self._recorder.emit(record)
        return False


class _NullSpan:
    """The disabled-tracing span: a stateless, reusable no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """Collects spans, events, and metrics, fanning records out to sinks.

    Records are plain dicts (see :mod:`repro.obs.sinks` for the shapes);
    the metrics registry additionally accumulates in memory so a final
    summary record lands in every sink at :meth:`close`.

    ``trace_id`` identifies every record this recorder emits (a worker
    recorder is constructed with the coordinator's trace id so the
    stitched output is one trace); ``parent_span`` is the span id that
    top-level spans parent under when no enclosing span exists on the
    current thread.
    """

    def __init__(
        self,
        sinks: Iterable[Any] = (),
        *,
        trace_id: Optional[str] = None,
        parent_span: Optional[str] = None,
    ) -> None:
        self.sinks: List[Any] = list(sinks)
        self.metrics = Metrics()
        self.trace_id = trace_id or uuid.uuid4().hex
        self.parent_span = parent_span
        # Span ids are "<8 hex>:<n>" — the random prefix makes ids from
        # worker recorders globally unique, so stitching never remaps.
        self._span_prefix = uuid.uuid4().hex[:8]
        self._span_seq = itertools.count(1)
        self._tls = threading.local()
        self._epoch = time.perf_counter()
        self.wall_epoch = time.time()
        self._closed = False
        # Sinks are not thread-safe (a TextIOWrapper written from two
        # threads can scramble its buffer).  A library caller may trace
        # from several threads at once, and the before-fork flush runs
        # on whichever thread forks a pool worker, so fan-out, flush
        # and close serialize here.
        self._emit_lock = threading.Lock()

    # -- time ----------------------------------------------------------
    def now(self) -> float:
        """Seconds since this recorder's epoch (host clock)."""
        return time.perf_counter() - self._epoch

    # -- span identity -------------------------------------------------
    def next_span_id(self) -> str:
        return f"{self._span_prefix}:{next(self._span_seq)}"

    def _stack(self) -> List[Tuple[str, str]]:
        """The per-thread (name, span id) stack of open spans."""
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def current_span_id(self) -> Optional[str]:
        stack = getattr(self._tls, "stack", None)
        if stack:
            return stack[-1][1]
        return None

    # -- emission ------------------------------------------------------
    def emit(self, record: dict) -> None:
        record.setdefault("trace", self.trace_id)
        with self._emit_lock:
            for sink in self.sinks:
                sink.emit(record)

    def span(self, name: str, _parent: Optional[str] = None, **attrs: Any) -> Span:
        return Span(self, name, attrs, parent=_parent)

    def event(self, name: str, **attrs: Any) -> None:
        record: Dict[str, Any] = {"type": "event", "name": name, "ts": self.now()}
        if attrs:
            record["attrs"] = attrs
        self.emit(record)

    def add(self, name: str, n: int = 1) -> None:
        total = self.metrics.add(name, n)
        self.emit(
            {
                "type": "counter",
                "name": name,
                "ts": self.now(),
                "delta": n,
                "value": total,
            }
        )

    def gauge(self, name: str, value: float) -> None:
        self.metrics.set_gauge(name, value)
        self.emit(
            {"type": "gauge", "name": name, "ts": self.now(), "value": float(value)}
        )

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)
        self.emit(
            {"type": "sample", "name": name, "ts": self.now(), "value": float(value)}
        )

    def bridge_rank_trace(self, trace: Iterable[Any], rank: int) -> int:
        """Forward one simulated rank's :class:`~repro.runtime.timing.
        TraceEvent` timeline into the sinks.

        Timestamps stay in model seconds; sinks file them under a
        separate "simulated ranks" process.  Returns the event count.
        """
        n = 0
        for e in trace:
            self.emit(
                {
                    "type": "rank_event",
                    "rank": int(rank),
                    "kind": e.kind,
                    "label": e.label,
                    "ts": e.start,
                    "dur": e.end - e.start,
                }
            )
            n += 1
        self.metrics.add(f"sim.trace.rank{rank}.events", n)
        return n

    def merge_worker(self, payload: dict) -> int:
        """Stitch a worker-side capture payload (see
        :func:`repro.obs.distributed.begin_job_capture`) into this
        recorder: re-emit the worker's records with timestamps rebased
        onto this recorder's epoch and tagged with the worker pid, and
        fold the worker's metrics registry into ours.

        Returns the number of records re-emitted.
        """
        delta = float(payload.get("wall_epoch", self.wall_epoch)) - self.wall_epoch
        pid = payload.get("pid")
        n = 0
        for record in payload.get("records", ()):
            out = dict(record)
            if "ts" in out:
                out["ts"] = out["ts"] + delta
            if pid is not None:
                out["worker_pid"] = pid
            self.emit(out)
            n += 1
        metrics = payload.get("metrics")
        if metrics:
            self.metrics.merge(metrics)
        return n

    # -- lifecycle -----------------------------------------------------
    def close(self) -> dict:
        """Emit the final metrics summary, close every sink, and return
        the metrics snapshot.  Idempotent."""
        snap = self.metrics.snapshot()
        if not self._closed:
            self._closed = True
            self.emit({"type": "metrics", "ts": self.now(), "metrics": snap})
            with self._emit_lock:
                for sink in self.sinks:
                    sink.close()
        return snap

    def flush(self) -> None:
        """Drain every sink's buffer to its backing store."""
        with self._emit_lock:
            for sink in self.sinks:
                flush = getattr(sink, "flush", None)
                if flush is not None:
                    flush()


# ---------------------------------------------------------------------------
# the module-global switch
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Recorder] = None


def current() -> Optional[Recorder]:
    """The active recorder, or None when tracing is off."""
    return _ACTIVE


def enabled() -> bool:
    return _ACTIVE is not None


def configure(
    *sinks: Any,
    trace_id: Optional[str] = None,
    parent_span: Optional[str] = None,
) -> Recorder:
    """Install a fresh recorder writing to ``sinks`` and return it.

    Replaces (and closes) any previously active recorder.  ``trace_id``
    and ``parent_span`` seed the recorder's trace identity — used by
    pool workers so their records stitch under the coordinator's root.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
    _ACTIVE = Recorder(sinks, trace_id=trace_id, parent_span=parent_span)
    return _ACTIVE


def shutdown() -> Optional[dict]:
    """Close the active recorder; return its metrics snapshot (None when
    tracing was already off)."""
    global _ACTIVE
    recorder, _ACTIVE = _ACTIVE, None
    if recorder is None:
        return None
    return recorder.close()


def discard() -> None:
    """Drop the active recorder WITHOUT flushing its sinks.

    For forked children that inherit the parent's live recorder:
    closing it there would flush the parent's sinks (e.g. write the
    trace file) from the child, so the inherited reference is simply
    abandoned."""
    global _ACTIVE
    _ACTIVE = None


def _flush_before_fork() -> None:
    """Forked children inherit the sinks' file objects *including their
    userspace buffers*; interpreter shutdown in the child flushes those
    inherited bytes a second time at the shared file offset, splicing
    duplicates into the log.  Draining the buffers in the parent
    immediately before every fork leaves the child nothing to
    re-flush."""
    recorder = _ACTIVE
    if recorder is not None:
        recorder.flush()


if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(before=_flush_before_fork)


@contextmanager
def recording(*sinks: Any):
    """``with recording(MemorySink()) as rec:`` — scoped tracing."""
    recorder = configure(*sinks)
    try:
        yield recorder
    finally:
        if _ACTIVE is recorder:
            shutdown()
        else:  # replaced mid-scope; just make sure it is closed
            recorder.close()


# -- guarded instrumentation helpers (the only API hot code calls) --------


def span(name: str, **attrs: Any):
    """A timed span context manager; a shared no-op when tracing is off."""
    r = _ACTIVE
    if r is None:
        return _NULL_SPAN
    return r.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    r = _ACTIVE
    if r is not None:
        r.event(name, **attrs)


def add(name: str, n: int = 1) -> None:
    """Increment a counter (no-op when tracing is off)."""
    r = _ACTIVE
    if r is not None and n:
        r.add(name, n)


def gauge(name: str, value: float) -> None:
    r = _ACTIVE
    if r is not None:
        r.gauge(name, value)


def observe(name: str, value: float) -> None:
    r = _ACTIVE
    if r is not None:
        r.observe(name, value)


def bridge_rank_trace(trace: Optional[Iterable[Any]], rank: int) -> int:
    r = _ACTIVE
    if r is None or trace is None:
        return 0
    return r.bridge_rank_trace(trace, rank)


def counters() -> Dict[str, int]:
    """Live counter snapshot ({} when tracing is off) — test helper."""
    r = _ACTIVE
    return dict(r.metrics.counters) if r is not None else {}


# -- trace identity helpers ------------------------------------------------


def active_trace() -> Optional[str]:
    """The active recorder's trace id; None when tracing is off."""
    r = _ACTIVE
    return r.trace_id if r is not None else None


def trace_parent() -> Optional[Tuple[str, Optional[str]]]:
    """The ``(trace_id, span_id)`` context a child of the current
    execution point should parent under — the innermost open span on
    this thread, falling back to the recorder's parent.  None when
    tracing is off.  This is what the dispatcher hands its pool
    workers."""
    r = _ACTIVE
    if r is None:
        return None
    span_id = r.current_span_id()
    if span_id is None:
        span_id = r.parent_span
    return r.trace_id, span_id
