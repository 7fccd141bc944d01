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
  communication, as the paper's counts are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

import numpy as np

from repro.obs import core as obs


@dataclass
class Instrumentation:
    """Mutable counters for one simulation run."""

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
    def record_transfer(self, plan) -> None:
        """One execution of a transfer described by ``plan``."""
        block = plan.count_block
        if block is not None:
            self.counts += block

    def record_message(self, sender: int, receiver: int, nbytes: int) -> None:
        """One execution of a one-message transfer (:meth:`record_transfer`
        on ranks as ints)."""
        dynamic = self.dynamic_comms
        dynamic[sender] = dynamic.item(sender) + 1
        if receiver != sender:
            dynamic[receiver] = dynamic.item(receiver) + 1
        self.messages[sender] = self.messages.item(sender) + 1
        self.bytes_moved[sender] = self.bytes_moved.item(sender) + nbytes

    def record_calls(self, primitive: str, count: int) -> None:
        """``count`` executions of ``primitive`` across all ranks."""
        if primitive == "noop" or count == 0:
            return
        self.call_counts[primitive] = self.call_counts.get(primitive, 0) + count

    def record_reduction(self) -> None:
        self.reductions += 1

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
