"""Time-breakdown profiling: where do the model seconds go?

Every clock advance falls in one of three buckets — local computation,
communication software (per-call costs), and waiting (stalls on
arrivals, readiness flags, collectives).  A run settles the first two
from its op-list execution counts and waiting as the clock less them
(:func:`repro.runtime.schedule.settle`), so the three sum to each
rank's clock within one rounding.  This module reports the
breakdown of the *critical* (slowest) processor, which is what the
execution time is made of.

This is the analysis the paper performs verbally ("a large amount of
time is spent in two small loops...", "limited space for exposing the
communication latency") made quantitative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.runtime.executor import RunResult


@dataclass(frozen=True)
class TimeBreakdown:
    """Critical-processor time split for one run."""

    total: float
    compute: float
    comm_sw: float
    wait: float

    @property
    def comm_fraction(self) -> float:
        """Share of the critical path not spent computing."""
        if self.total == 0:
            return 0.0
        return (self.comm_sw + self.wait) / self.total

    def as_row(self) -> List[float]:
        return [
            self.total,
            self.compute / self.total if self.total else 0.0,
            self.comm_sw / self.total if self.total else 0.0,
            self.wait / self.total if self.total else 0.0,
        ]


def breakdown_of(result: RunResult, rank: Optional[int] = None) -> TimeBreakdown:
    """Time breakdown of a run's critical processor (or a given rank)."""
    inst = result.instrument
    if rank is None:
        rank = int(np.argmax(result.clocks))
    return TimeBreakdown(
        total=float(result.clocks[rank]),
        compute=float(inst.compute_time[rank]),
        comm_sw=float(inst.comm_sw_time[rank]),
        wait=float(inst.wait_time[rank]),
    )


def breakdown_table(results: Dict[str, RunResult]) -> tuple:
    """(headers, rows) for a label -> result mapping: critical-rank time
    and its compute/software/wait fractions."""
    headers = ["run", "time (s)", "compute", "comm sw", "wait"]
    rows = []
    for label, result in results.items():
        rows.append([label] + breakdown_of(result).as_row())
    return headers, rows
