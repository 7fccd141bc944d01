"""Batched many-variant TIMING evaluation.

:func:`simulate_many` evaluates one compiled TIMING schedule over a
whole **matrix of cost vectors** at once: every variant's primitive
costs, charge rates, and reduction stage costs are stacked into numpy
arrays with a leading variant axis
(:func:`repro.machine.variants.pack_variants`), and the CHARGE / REDUCE
/ SR / DN / DR / SV dispatch loop runs *once* with ``(V, P)`` clock
updates instead of once per variant.  The experiment engine reaches it
through :func:`repro.engine.batch.run_jobs_batched`, one call per
TIMING cell of two or more cost variants.

Why this is sound: TIMING control flow is replicated scalar state, and
scalar state never depends on a cost parameter — so every cost-only
variant executes the *identical* op sequence, and the only thing that
differs between variants is the float arithmetic on the clock matrix.
The run goes through the one simulation driver
(:class:`repro.runtime.executor._Simulation`), lowering and loop runner
with the batched core
(:class:`~repro.runtime.timing.BatchTimingEngine`), whose block forms
perform the scalar core's floating-point operations in the same order,
elementwise across the variant axis, and read the same price tables
(:func:`~repro.runtime.costs.price`).  So every row of the clock
matrix is **bit-identical** to the scalar fast path run of that variant
(``tests/runtime/test_batch.py`` enforces this differentially).

Steady-state extrapolation folds per-variant: the epoch is kept as
``(V,)`` run-length-encoded advance runs, the cycle monitor compares
the whole clock matrix bitwise, and recorded advance patterns replay
through the same coalescing fold.  A cycle of the batch is a cycle of
every variant, and the batch's period is the lcm of its variants'
periods — extrapolation may engage a few trips later than it would
per-variant (it waits for the *slowest* variant to enter its cycle), but
the final state is unchanged.

What the batch does **not** track, by design: per-primitive call counts
(the SR count depends on which ranks paid a nonzero software cost — a
per-variant quantity) and the per-rank time-breakdown vectors
(compute/comm-sw/wait).  Everything else the paper's figures read —
clocks, times, static/dynamic counts, message counts, volumes,
reductions, warnings, scalars — is recorded once (it is
variant-independent) and matches the scalar path exactly.

Memory model: a batch holds ``O(V x P)`` floats for the clock matrix
plus one ``(V, R)`` block per in-flight transfer and per posted DR flag
(``R`` the transfer's receivers), the price table of each call kind —
per-rank totals as one ``(n, V, P)`` buffer over the program's ``n``
distinct plans, SR's per-message costs as one ``(V, M_i)`` block per
plan over its ``M`` messages, and one ``(V, R)`` receive block per DN
plan, all bound by the block forms without copying — and the
``(S, V, P)`` charge rows.  For a 1000-variant sweep on 64 ranks this
is a few MB, not a concern; for 10^6-variant grids, chunk the variant
list.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import RuntimeFault
from repro.ir import nodes as ir
from repro.machine.params import Machine
from repro.machine.variants import VariantMatrix, pack_variants
from repro.obs import core as obs
from repro.runtime.executor import _Simulation
from repro.runtime.instrument import Instrumentation
from repro.runtime.options import ExecutionMode
from repro.runtime.schedule import FastPathStats, schedule_template

__all__ = [
    "BatchEvaluator",
    "BatchRun",
    "batch_evaluator",
    "clear_batch_evaluators",
    "simulate_many",
]


# ---------------------------------------------------------------------------
# incremental-append evaluation
# ---------------------------------------------------------------------------


class BatchEvaluator:
    """Incremental-append front-end over the batched TIMING simulator.

    Holds the variant-independent state of one ``(program, base
    machine)`` pair — the program's schedule template for the machine's
    shape (:func:`~repro.runtime.schedule.schedule_template`), which
    scalar runs on that shape share — then evaluates any number of
    variant batches against it.  Refinement drivers and calibration
    loops call :meth:`evaluate` once per round; only the price tables,
    the bound ops and the timing engine are rebuilt per batch, so
    appending a handful of new variants costs a fraction of a cold
    :func:`simulate_many` call while every returned row stays
    bit-identical to one.
    """

    def __init__(
        self,
        program: ir.IRProgram,
        base: Machine,
        *,
        repeat_cap: Optional[int] = None,
    ) -> None:
        self.program = program
        self.base = base
        self.repeat_cap = repeat_cap
        self.template = schedule_template(program, base)

    def _check_base(self, other: Machine) -> None:
        base = self.base
        for attr in ("name", "nprocs", "grid_shape", "library"):
            mine, theirs = getattr(base, attr), getattr(other, attr)
            if mine != theirs:
                raise RuntimeFault(
                    f"variant batch targets {attr}={theirs!r} but this "
                    f"evaluator was built for {attr}={mine!r}"
                )

    def evaluate(
        self, variants: Union[VariantMatrix, Iterable[Machine]]
    ) -> BatchRun:
        """Run one batch of cost-only variants; returns the program's
        :class:`BatchRun` (``(V,)`` times in batch order)."""
        matrix = (
            variants
            if isinstance(variants, VariantMatrix)
            else pack_variants(variants)
        )
        self._check_base(matrix.base)
        sim = _Simulation(
            self.program,
            matrix,
            ExecutionMode.TIMING,
            self.repeat_cap,
            fast=True,
        )
        stats = sim.execute()
        return BatchRun(
            program_name=self.program.name,
            times=sim.timing.elapsed(),
            clocks=sim.timing.absolute_clocks(),
            static_comm_count=sim.static_count,
            dynamic_comm_count=sim.instrument.dynamic_comm_count,
            instrument=sim.instrument,
            scalars=sim.final_scalars(),
            fastpath=stats,
        )


# bounded identity-checked memo: refinement rounds and fit iterations
# re-enter simulate_many with the same program object many times in a
# row; keying on id() alone would go stale if the id were recycled, so
# each entry pins the program strongly and is verified by identity.
_EVALUATOR_CACHE_MAX = 32
_evaluators: "OrderedDict[Tuple, BatchEvaluator]" = OrderedDict()


def batch_evaluator(
    program: ir.IRProgram, base: Machine, *, repeat_cap: Optional[int] = None
) -> BatchEvaluator:
    """The process-wide :class:`BatchEvaluator` for ``(program, base,
    repeat_cap)``, building (and LRU-caching) it on first use."""
    key = (
        id(program),
        base.name,
        base.nprocs,
        base.grid_shape,
        base.library,
        repeat_cap,
    )
    ev = _evaluators.get(key)
    if ev is not None and ev.program is program:
        _evaluators.move_to_end(key)
        if obs.enabled():
            obs.add("sim.batch.evaluator_hits", 1)
        return ev
    ev = BatchEvaluator(program, base, repeat_cap=repeat_cap)
    _evaluators[key] = ev
    if len(_evaluators) > _EVALUATOR_CACHE_MAX:
        _evaluators.popitem(last=False)
    if obs.enabled():
        obs.add("sim.batch.evaluator_builds", 1)
    return ev


def clear_batch_evaluators() -> None:
    """Drop all cached :class:`BatchEvaluator` instances (tests)."""
    _evaluators.clear()


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class BatchRun:
    """One program's batched evaluation: per-variant times and the
    variant-independent instrumentation."""

    program_name: str
    #: (V,) simulated execution time per variant
    times: np.ndarray
    #: (V, P) absolute per-rank clocks per variant
    clocks: np.ndarray = field(repr=False)
    static_comm_count: int = 0
    dynamic_comm_count: int = 0
    instrument: Instrumentation = field(default=None, repr=False)
    scalars: Dict[str, float] = field(default_factory=dict)
    fastpath: Optional[FastPathStats] = None

    @property
    def warnings(self) -> List[str]:
        return self.instrument.warnings


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def simulate_many(
    program: ir.IRProgram,
    variants: Union[VariantMatrix, Iterable[Machine]],
) -> BatchRun:
    """Evaluate one program's TIMING run over a batch of cost-only
    machine variants.

    Parameters
    ----------
    program:
        An optimized :class:`~repro.ir.nodes.IRProgram`.
    variants:
        The machine variants — cost-only siblings of one base machine
        (same name, nprocs, grid, library, binding, primitive
        structure); typically built with
        :func:`repro.machine.apply_overrides`.  A prebuilt
        :class:`~repro.machine.variants.VariantMatrix` (e.g. from the
        memoized :func:`repro.machine.pack_variant_specs`) is accepted
        as-is, skipping the packing pass.

    Returns the program's :class:`BatchRun`, ``(V,)`` times in variant
    order; every row is bit-identical to the scalar compiled fast path
    run of that variant.  NUMERIC data, per-rank timelines and the
    interpreted walk need one :func:`repro.simulate` per variant.
    """
    matrix = (
        variants
        if isinstance(variants, VariantMatrix)
        else pack_variants(variants)
    )
    base = matrix.base
    with obs.span(
        "simulate_many",
        program=program.name,
        machine=base.name,
        library=base.library,
        nprocs=base.nprocs,
        variants=matrix.nvariants,
    ):
        run = batch_evaluator(program, base).evaluate(matrix)
    if obs.enabled():
        _record_batch_metrics(matrix.nvariants, run)
    return run


def _record_batch_metrics(nvariants: int, run: BatchRun) -> None:
    obs.add("sim.batch.runs", 1)
    obs.add("sim.batch.variants", nvariants)
    obs.add("sim.batch.messages", run.instrument.total_messages)
    obs.add("sim.batch.bytes", run.instrument.total_bytes)
    if run.fastpath is not None:
        obs.add("sim.batch.extrapolated_trips", run.fastpath.extrapolated_trips)
        obs.add("sim.batch.fallbacks", run.fastpath.fallbacks)
