"""Machine-independent communication generation and optimization.

This package is the paper's primary contribution: a communication
optimizer that works on whole-array SPMD IR, one source-level basic block
at a time, with each optimization individually selectable (the paper's
"instrumented compiler").

Pipeline
--------

1. :mod:`repro.comm.planning` scans each basic block and plans one
   communication per distinct ``(array, offset)`` reference per statement —
   the *naive generation with message vectorization* baseline.
2. :mod:`repro.comm.redundancy` removes planned communications whose data
   was already transferred earlier in the block (redundant communication
   removal).
3. :mod:`repro.comm.combining` merges communications with the same offset
   vector but different arrays (communication combination), under either
   the *maximize-combining* or the *maximize-latency-hiding* heuristic.
4. :mod:`repro.comm.pipelining` computes call placements: with pipelining
   on, DR/SR hoist to the data's ready point; DN stays at first use; SV
   sits before the next write of any source buffer.
5. The plan is materialized back into IRONMAN :class:`~repro.ir.nodes.CommCall`
   statements interleaved with the block's core statements.

:func:`repro.comm.passes.run_block` runs steps 2-4 on one block, in
that order, each where the
:class:`~repro.comm.optimizer.OptimizationConfig` turns it on (per-pass
statistics, optional verifier); :func:`repro.comm.optimizer.optimize` /
:func:`repro.comm.optimizer.optimize_with_report` drive it over whole
programs.
"""

from repro.comm.optimizer import (
    OptimizationConfig,
    optimize,
    optimize_with_report,
)
from repro.comm.passes import PassStats, PipelineReport
from repro.comm.counts import static_comm_count, static_call_count

__all__ = [
    "OptimizationConfig",
    "PassStats",
    "PipelineReport",
    "optimize",
    "optimize_with_report",
    "static_comm_count",
    "static_call_count",
]
