"""Pluggable sinks for the observability recorder.

Every sink consumes the plain-dict records :class:`~repro.obs.core.
Recorder` emits:

``span``
    ``{"type": "span", "name", "ts", "dur", "depth", "attrs"?, "error"?}``
``event``
    ``{"type": "event", "name", "ts", "attrs"?}``
``counter`` / ``gauge`` / ``sample``
    ``{"type": ..., "name", "ts", "value", "delta"?}``
``rank_event``
    ``{"type": "rank_event", "rank", "kind", "label", "ts", "dur"}`` —
    a bridged simulation-timeline interval, timestamped in **model**
    seconds (a different clock from every host-side record).
``metrics``
    The final registry snapshot, emitted once at close.

Three sinks ship:

* :class:`MemorySink` — a list, for tests and in-process inspection;
* :class:`JsonlSink` — one JSON object per line, the machine-readable
  event log (CI uploads it as an artifact); ``flush_every=1`` makes it
  line-buffered (crash-safe streaming for long sweeps);
* :class:`ChromeTraceSink` — a Chrome trace-event JSON document that
  Perfetto (https://ui.perfetto.dev) loads directly.  Host spans and
  counters land under the "host" process; records stitched back from
  pool workers (tagged ``worker_pid``) each get their own process;
  bridged rank timelines land under the "simulated ranks" process with
  one thread per rank, so one file shows compiler phases, engine cache
  traffic, pool workers, and the simulated machine side by side.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = ["ChromeTraceSink", "JsonlSink", "MemorySink", "Sink"]


class Sink:
    """Interface: override :meth:`emit`; :meth:`close` and
    :meth:`flush` are optional."""

    def emit(self, record: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink(Sink):
    """Keep every record in a list (tests; programmatic consumers)."""

    def __init__(self) -> None:
        self.records: List[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    # -- conveniences ---------------------------------------------------
    def of_type(self, type_: str) -> List[dict]:
        return [r for r in self.records if r["type"] == type_]

    def spans(self, name: Optional[str] = None) -> List[dict]:
        return [
            r
            for r in self.of_type("span")
            if name is None or r["name"] == name
        ]

    def events(self, name: Optional[str] = None) -> List[dict]:
        return [
            r
            for r in self.of_type("event")
            if name is None or r["name"] == name
        ]

    def counter_total(self, name: str) -> int:
        """The last emitted running total of a counter (0 if never hit)."""
        total = 0
        for r in self.records:
            if r["type"] == "counter" and r["name"] == name:
                total = r["value"]
        return total


class JsonlSink(Sink):
    """Append records as JSON lines to a file (created eagerly, so an
    empty trace still leaves a valid, empty log).

    ``flush_every=N`` flushes the file every N records; ``flush_every=1``
    is the line-buffered mode — every record hits the disk as one
    complete line, so a process killed mid-run leaves a valid JSONL
    file (at worst the final line is truncated).  The default (None)
    keeps full buffering: flush only at close.
    """

    def __init__(
        self, path: Union[str, Path], *, flush_every: Optional[int] = None
    ) -> None:
        if flush_every is not None and flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.path = Path(path)
        self.flush_every = flush_every
        self._since_flush = 0
        self._fh = self.path.open("w", encoding="utf-8")

    def emit(self, record: dict) -> None:
        if self._fh.closed:  # a late emit from another thread: drop it
            return
        self._fh.write(
            json.dumps(record, sort_keys=True, default=str) + "\n"
        )
        if self.flush_every is not None:
            self._since_flush += 1
            if self._since_flush >= self.flush_every:
                self._fh.flush()
                self._since_flush = 0

    def flush(self) -> None:
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()


#: Chrome-trace process ids: host-side records vs. bridged model time.
#: Records stitched back from pool workers get pids counted up
#: from WORKER_PID_BASE, one per distinct worker_pid.
HOST_PID = 1
SIM_PID = 2
WORKER_PID_BASE = 100


class ChromeTraceSink(Sink):
    """Accumulate a Chrome trace-event document; write it on close.

    Coordinator records go to pid ``HOST_PID`` / tid 0 (complete events
    nest by containment, which the recorder's span stack guarantees);
    records carrying a ``worker_pid`` tag (stitched back from pool
    workers) each get a dedicated chrome process named after
    the worker; each bridged simulation rank becomes a thread of pid
    ``SIM_PID`` with timestamps in model microseconds.  Counters become
    ``"C"`` events so Perfetto renders them as tracks.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.trace_events: List[dict] = []
        self._sim_ranks: set = set()
        self._worker_pids: Dict[int, int] = {}
        self._metrics: Optional[dict] = None
        self._closed = False

    def _host_pid(self, record: dict) -> int:
        worker = record.get("worker_pid")
        if worker is None:
            return HOST_PID
        pid = self._worker_pids.get(worker)
        if pid is None:
            pid = WORKER_PID_BASE + len(self._worker_pids)
            self._worker_pids[worker] = pid
        return pid

    # -- record translation --------------------------------------------
    def emit(self, record: dict) -> None:
        type_ = record["type"]
        if type_ == "span":
            entry = {
                "name": record["name"],
                "cat": "host",
                "ph": "X",
                "ts": record["ts"] * 1e6,
                "dur": record["dur"] * 1e6,
                "pid": self._host_pid(record),
                "tid": 0,
            }
            args = dict(record.get("attrs") or {})
            if record.get("error"):
                args["error"] = record["error"]
            if args:
                entry["args"] = args
            self.trace_events.append(entry)
        elif type_ == "event":
            self.trace_events.append(
                {
                    "name": record["name"],
                    "cat": "host",
                    "ph": "i",
                    "s": "p",
                    "ts": record["ts"] * 1e6,
                    "pid": self._host_pid(record),
                    "tid": 0,
                    "args": dict(record.get("attrs") or {}),
                }
            )
        elif type_ in ("counter", "gauge", "sample"):
            self.trace_events.append(
                {
                    "name": record["name"],
                    "cat": type_,
                    "ph": "C",
                    "ts": record["ts"] * 1e6,
                    "pid": self._host_pid(record),
                    "args": {"value": record["value"]},
                }
            )
        elif type_ == "rank_event":
            rank = record["rank"]
            self._sim_ranks.add(rank)
            self.trace_events.append(
                {
                    "name": record["kind"],
                    "cat": "sim",
                    "ph": "X",
                    "ts": record["ts"] * 1e6,
                    "dur": record["dur"] * 1e6,
                    "pid": SIM_PID,
                    "tid": rank,
                    "args": {"label": record["label"]},
                }
            )
        elif type_ == "metrics":
            self._metrics = record["metrics"]

    # -- document assembly ---------------------------------------------
    def _metadata(self) -> List[dict]:
        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": HOST_PID,
                "args": {"name": "host"},
            },
            {
                "name": "thread_name",
                "ph": "M",
                "pid": HOST_PID,
                "tid": 0,
                "args": {"name": "repro"},
            },
        ]
        for worker, pid in sorted(self._worker_pids.items(), key=lambda kv: kv[1]):
            meta.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "args": {"name": f"worker {worker}"},
                }
            )
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"worker {worker}"},
                }
            )
        if self._sim_ranks:
            meta.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": SIM_PID,
                    "args": {"name": "simulated ranks (model time)"},
                }
            )
            for rank in sorted(self._sim_ranks):
                meta.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": SIM_PID,
                        "tid": rank,
                        "args": {"name": f"rank {rank}"},
                    }
                )
        return meta

    def document(self) -> dict:
        """The full Chrome trace-event document (before/without close)."""
        other: Dict[str, object] = {"generator": "repro.obs"}
        if self._metrics is not None:
            other["metrics"] = self._metrics
        return {
            "traceEvents": self._metadata() + self.trace_events,
            "displayTimeUnit": "ms",
            "otherData": other,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.path.write_text(json.dumps(self.document(), default=str) + "\n")
