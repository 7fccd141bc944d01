"""Cross-process tracing: one trace across the coordinator and its pool
workers.

The coordinator's recorder owns the run's **trace context** — its trace
id plus the span id of whatever span encloses the dispatch
(:func:`repro.obs.core.trace_parent`).  ``--jobs N`` runs cache misses
in a ``ProcessPoolExecutor``; this module moves the context into those
workers and brings the evidence back:

* the dispatcher passes :func:`worker_init` as the pool initializer
  (only when tracing is on, so the disabled path stays untouched);
* inside the worker, :func:`begin_job_capture` starts a throwaway
  recorder per job, seeded with the coordinator's trace id and
  parented under its dispatch span; the capture payload rides home on
  the job record under the ``"obs"`` key;
* the dispatcher calls :func:`absorb` on every record to pop that
  payload and stitch it into the coordinator's recorder (timestamps
  rebased via the worker's wall-clock epoch, records tagged
  ``worker_pid``, worker metrics merged into the registry).

Span ids are globally unique strings (random prefix per recorder), so
stitching is pure concatenation — no id remapping.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.obs import core
from repro.obs.sinks import MemorySink

__all__ = ["absorb", "begin_job_capture", "worker_init"]

#: ``(trace_id, parent_span_id)``, set once per worker process by
#: worker_init (the pool initializer).
_WORKER_CONTEXT: Optional[Tuple[str, Optional[str]]] = None


def worker_init(trace_id: str, span_id: Optional[str]) -> None:
    """``ProcessPoolExecutor`` initializer: remember the coordinator's
    trace context so job executions in this worker capture under it.

    A *forked* worker (the Linux default) also inherits the
    coordinator's live recorder; discard that reference — without
    flushing its sinks, which belong to the parent — so per-job
    captures start clean instead of recording into a dead copy."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = (trace_id, span_id)
    if core.enabled():
        core.discard()


class JobCapture:
    """A per-job throwaway recorder inside a pool worker.

    :meth:`finish` tears it down and returns the JSON-safe payload the
    job record carries home (``{"pid", "wall_epoch", "records",
    "metrics"}``).
    """

    def __init__(self, trace_id: str, span_id: Optional[str]) -> None:
        self.sink = MemorySink()
        self.recorder = core.configure(
            self.sink, trace_id=trace_id, parent_span=span_id
        )

    def finish(self) -> dict:
        wall_epoch = self.recorder.wall_epoch
        if core.current() is self.recorder:
            metrics = core.shutdown()
        else:  # replaced mid-job; still close our own
            metrics = self.recorder.close()
        records = [r for r in self.sink.records if r.get("type") != "metrics"]
        return {
            "pid": os.getpid(),
            "wall_epoch": wall_epoch,
            "records": records,
            "metrics": metrics or {},
        }


def begin_job_capture() -> Optional[JobCapture]:
    """Start capturing obs output for one job in a pool worker.

    Returns None (capture nothing) unless this process was initialized
    with :func:`worker_init` — i.e. the coordinator is tracing — and no
    recorder is already live here (inline dispatch records directly
    into the coordinator's recorder; wrapping it would steal records).
    """
    if _WORKER_CONTEXT is None or core.enabled():
        return None
    return JobCapture(*_WORKER_CONTEXT)


def absorb(record: Optional[dict]) -> int:
    """Pop a job record's ``"obs"`` payload (if any) and stitch it into
    the active recorder.  The dispatcher calls this on every record as
    it arrives, *before* the record reaches the result cache or the
    caller, so records stay byte-identical to an untraced run.  Returns
    the number of stitched records."""
    if not record:
        return 0
    payload = record.pop("obs", None)
    if not payload:
        return 0
    recorder = core.current()
    if recorder is None:
        return 0
    return recorder.merge_worker(payload)
