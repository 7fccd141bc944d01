"""The SPMD runtime: a discrete-event simulator for optimized programs.

The runtime plays the role of the paper's 64-node T3D/Paragon partitions.
It executes an optimized :class:`~repro.ir.nodes.IRProgram` on a
simulated :class:`~repro.machine.Machine`:

* every processor owns a block of every array plus *fluff* (ghost) cells
  (:mod:`repro.runtime.distarray`);
* IRONMAN calls move real strip data between blocks
  (:mod:`repro.runtime.transfers`), so an optimizer bug that removes a
  needed transfer produces numerically wrong results — correctness is
  checked against the sequential reference evaluator
  (:mod:`repro.runtime.reference`);
* a per-rank clock vector advances through compute and primitive costs
  (:mod:`repro.runtime.timing`), so pipelined transfers genuinely overlap
  with computation and SHMEM's rendezvous synchronization genuinely
  couples neighbours;
* instrumentation (:mod:`repro.runtime.instrument`) records the paper's
  dynamic communication counts, message counts, and volumes.

Entry point: :func:`repro.runtime.executor.simulate`.
"""

from repro.runtime.batch import (
    BatchEvaluator,
    BatchRun,
    batch_evaluator,
    clear_batch_evaluators,
    simulate_many,
)
from repro.runtime.executor import ExecutionMode, RunResult, simulate
from repro.runtime.options import SimOptions
from repro.runtime.reference import reference_run

__all__ = [
    "simulate",
    "simulate_many",
    "RunResult",
    "BatchEvaluator",
    "BatchRun",
    "batch_evaluator",
    "clear_batch_evaluators",
    "SimOptions",
    "ExecutionMode",
    "reference_run",
]
