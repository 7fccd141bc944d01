"""Execution instrumentation.

Tracks the quantities the paper reports:

* **dynamic communication count** — transfers actually performed, counted
  per processor (a processor participates in a transfer when it sends or
  receives at least one message of it).  The paper reports the count "on a
  single processor"; we report the interior (maximal) processor and keep
  the full per-rank vector for tests;
* message counts and byte volumes per processor (a diagonal transfer is
  one communication but up to three messages);
* per-primitive call counts;
* reduction (collective) counts — kept separate from point-to-point
  communication, as the paper's counts are;
* the per-rank time breakdown: computation, communication software and
  waiting.

Each of these is a fixed amount per execution of an op, so no op
records them as it runs.  A run counts how many times each of its op
lists ran, and :func:`repro.runtime.schedule.settle` fills every counter
and the breakdown from those counts once, when the run ends: the
transfer counters and reductions on either timing core, the call
counts and the breakdown on the scalar core (the batched core keeps
neither).  Waiting is what the clock holds beyond computation and
software.  Two things stay dynamic: warnings, recorded as they happen,
and the rendezvous spread surcharge, the one software cost that depends
on the run: each rendezvous DN adds it to ``comm_sw_time`` as it
happens, and settling adds the fixed software costs on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

import numpy as np

from repro.obs import core as obs


@dataclass
class Instrumentation:
    """The counters of one simulation run, filled when it ends."""

    nprocs: int
    #: the per-rank counters as rows of one ``(3, P)`` matrix: transfers
    #: taken part in, messages sent and bytes sent
    counts: np.ndarray = field(init=False, repr=False)
    dynamic_comms: np.ndarray = field(init=False)
    messages: np.ndarray = field(init=False)
    bytes_moved: np.ndarray = field(init=False)
    call_counts: Dict[str, int] = field(default_factory=dict)
    reductions: int = 0
    #: unique warnings in first-seen order (`warn` dedups via `_warned`)
    warnings: List[str] = field(default_factory=list)
    _warned: Set[str] = field(default_factory=set, repr=False)
    #: per-rank time breakdown (seconds): local computation, communication
    #: software (per-call costs charged to the clock), and waiting
    #: (blocking on arrivals, readiness flags, and collectives)
    compute_time: np.ndarray = field(init=False)
    comm_sw_time: np.ndarray = field(init=False)
    wait_time: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.counts = np.zeros((3, self.nprocs), dtype=np.int64)
        self.dynamic_comms, self.messages, self.bytes_moved = self.counts
        self.compute_time = np.zeros(self.nprocs, dtype=np.float64)
        self.comm_sw_time = np.zeros(self.nprocs, dtype=np.float64)
        self.wait_time = np.zeros(self.nprocs, dtype=np.float64)

    # ------------------------------------------------------------------
    def warn(self, message: str) -> None:
        """Record a warning once, preserving first-seen order.

        The set-backed dedup keeps repeated warnings O(1) (simulations
        can re-warn every trip of a capped loop).  When tracing is on,
        the warning also lands in the event sink the moment it happens
        (a traced engine run executes every job inline, in the recording
        process).
        """
        if message in self._warned:
            return
        self._warned.add(message)
        self.warnings.append(message)
        obs.event("warning", message=message)

    # ------------------------------------------------------------------
    @property
    def dynamic_comm_count(self) -> int:
        """The paper's per-processor dynamic count: the busiest (interior)
        processor's transfer count."""
        return int(self.dynamic_comms.max(initial=0))

    @property
    def total_messages(self) -> int:
        return int(self.messages.sum())

    @property
    def total_bytes(self) -> int:
        return int(self.bytes_moved.sum())

    def breakdown(self, rank: int) -> Dict[str, float]:
        """(compute, comm software, wait) seconds for one rank."""
        return {
            "compute": float(self.compute_time[rank]),
            "comm_sw": float(self.comm_sw_time[rank]),
            "wait": float(self.wait_time[rank]),
        }


#: what settling fills: the compiled path and the walk must agree on each
SETTLED = ("counts", "call_counts", "reductions", "compute_time", "comm_sw_time", "wait_time")


def settled_mismatches(a: Instrumentation, b: Instrumentation) -> List[str]:
    """The :data:`SETTLED` fields where ``a`` and ``b`` differ, arrays
    compared bit for bit."""

    def bits(value):
        return value.tobytes() if isinstance(value, np.ndarray) else value

    return [name for name in SETTLED if bits(getattr(a, name)) != bits(getattr(b, name))]
