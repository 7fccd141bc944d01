"""Simulation options: the execution mode and the run-shaping knobs.

:class:`SimOptions` is :func:`repro.simulate`'s single options surface:
it takes no ``trace_rank`` or ``fast`` bare keywords (a ``TypeError``)
and accepts the mode positionally.  A ``repeat`` loop's trip cap is the
program's own (:attr:`~repro.ir.nodes.RepeatLoop.max_trips`).
:func:`repro.simulate_many` takes no options: it is always a compiled
TIMING run without a timeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

__all__ = ["ExecutionMode", "SimOptions"]


class ExecutionMode(enum.Enum):
    NUMERIC = "numeric"
    TIMING = "timing"


@dataclass(frozen=True)
class SimOptions:
    """How a simulation runs, independent of *what* runs.

    Attributes
    ----------
    mode:
        NUMERIC (data + time) or TIMING (time and counts only); a mode
        string (``"timing"``) coerces.
    trace_rank:
        Record the full event timeline of one processor, an ``int`` in
        ``[0, nprocs)`` (interpreted walk only; see
        :func:`repro.simulate`).
    fast:
        ``True`` runs the compiled schedule whenever the run is TIMING
        without a ``trace_rank`` (NUMERIC runs and timelines take the
        interpreted walk); ``False`` always runs the interpreted walk,
        the differential oracle.
    """

    mode: ExecutionMode = ExecutionMode.NUMERIC
    trace_rank: Optional[int] = None
    fast: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.mode, ExecutionMode):
            object.__setattr__(self, "mode", ExecutionMode(self.mode))

    @classmethod
    def timing(
        cls, *, trace_rank: Optional[int] = None, fast: bool = True
    ) -> "SimOptions":
        return cls(mode=ExecutionMode.TIMING, trace_rank=trace_rank, fast=fast)

    @classmethod
    def numeric(
        cls, *, trace_rank: Optional[int] = None, fast: bool = True
    ) -> "SimOptions":
        return cls(mode=ExecutionMode.NUMERIC, trace_rank=trace_rank, fast=fast)


ModeLike = Union[ExecutionMode, str]
