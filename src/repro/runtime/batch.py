"""Batched many-variant TIMING evaluation.

:func:`simulate_many` evaluates one compiled TIMING schedule over a
whole **matrix of cost vectors** at once: every variant's primitive
costs, charge rates, and reduction stage costs are stacked into numpy
arrays with a leading variant axis
(:func:`repro.machine.variants.pack_variants`), and the CHARGE / REDUCE
/ SR / DN / DR / SV dispatch loop runs *once* with ``(V, P)`` clock
updates instead of once per variant.

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

import csv
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import RuntimeFault
from repro.ir import nodes as ir
from repro.machine.params import Machine
from repro.machine.variants import VariantMatrix, pack_variants
from repro.obs import core as obs
from repro.runtime.executor import _Simulation
from repro.runtime.instrument import Instrumentation
from repro.runtime.options import ExecutionMode, SimOptions
from repro.runtime.schedule import FastPathStats, schedule_template

__all__ = [
    "BatchEvaluator",
    "BatchResult",
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
        self.calls = 0
        self.variants_evaluated = 0

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
        run = BatchRun(
            program_name=self.program.name,
            times=sim.timing.elapsed(),
            clocks=sim.timing.absolute_clocks(),
            static_comm_count=sim.static_count,
            dynamic_comm_count=sim.instrument.dynamic_comm_count,
            instrument=sim.instrument,
            scalars=sim.final_scalars(),
            fastpath=stats,
        )
        self.calls += 1
        self.variants_evaluated += matrix.nvariants
        return run


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


@dataclass
class BatchResult:
    """Everything :func:`simulate_many` produced: a ``(B, V)`` time
    matrix over benchmarks x variants, plus per-program runs."""

    machine_name: str
    library: str
    nprocs: int
    variant_ids: Tuple[str, ...]
    benchmarks: Tuple[str, ...]
    #: (B, V) simulated execution times
    times: np.ndarray
    runs: Dict[str, BatchRun] = field(repr=False)

    @property
    def nvariants(self) -> int:
        return len(self.variant_ids)

    def run(self, benchmark: str) -> BatchRun:
        return self.runs[benchmark]

    def times_for(self, benchmark: str) -> np.ndarray:
        """(V,) times of one benchmark."""
        return self.times[self.benchmarks.index(benchmark)]

    def time(self, benchmark: str, variant: str) -> float:
        return float(
            self.times[
                self.benchmarks.index(benchmark),
                self.variant_ids.index(variant),
            ]
        )

    def as_rows(self) -> Tuple[List[str], List[List]]:
        headers = ["benchmark", "variant", "time"]
        rows = []
        for b, bench in enumerate(self.benchmarks):
            for v, vid in enumerate(self.variant_ids):
                rows.append([bench, vid, float(self.times[b, v])])
        return headers, rows

    def write_csv(self, path: Union[str, Path]) -> Path:
        """``benchmark,variant,time`` rows; times formatted ``%.6g`` so
        artifacts diff cleanly (full precision lives in the JSON)."""
        path = Path(path)
        headers, rows = self.as_rows()
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(headers)
            for bench, vid, t in rows:
                writer.writerow([bench, vid, f"{t:.6g}"])
        return path

    def write_json(self, path: Union[str, Path]) -> Path:
        """Full-precision JSON: times, scalars, and warnings keyed by
        benchmark, variants in batch order."""
        path = Path(path)
        payload = {
            "schema": 1,
            "machine": self.machine_name,
            "library": self.library,
            "nprocs": self.nprocs,
            "variants": list(self.variant_ids),
            "benchmarks": list(self.benchmarks),
            "times": {
                bench: [float(t) for t in self.times[b]]
                for b, bench in enumerate(self.benchmarks)
            },
            "scalars": {
                bench: self.runs[bench].scalars for bench in self.benchmarks
            },
            "warnings": {
                bench: list(self.runs[bench].warnings)
                for bench in self.benchmarks
            },
        }
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        return path


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def simulate_many(
    programs: Union[ir.IRProgram, Iterable[ir.IRProgram]],
    variants: Union[VariantMatrix, Iterable[Machine]],
    *,
    options: Optional[SimOptions] = None,
    variant_ids: Optional[Sequence[str]] = None,
) -> BatchResult:
    """Evaluate program(s) over a batch of cost-only machine variants.

    Parameters
    ----------
    programs:
        One optimized :class:`~repro.ir.nodes.IRProgram` or an iterable
        of them (each becomes a row of the result's time matrix).
    variants:
        The machine variants — cost-only siblings of one base machine
        (same name, nprocs, grid, library, binding, primitive
        structure); typically built with
        :func:`repro.machine.apply_overrides`.  A prebuilt
        :class:`~repro.machine.variants.VariantMatrix` (e.g. from the
        memoized :func:`repro.machine.pack_variant_specs`) is accepted
        as-is, skipping the packing pass.
    options:
        A :class:`~repro.runtime.options.SimOptions` (the *only* options
        spelling here — no bare keywords).  Must be TIMING mode without
        ``trace_rank``; ``fast=False`` is rejected (there is no batched
        interpreted walk — loop per variant with :func:`repro.simulate`
        instead).  ``repeat_cap`` applies as in :func:`repro.simulate`.
    variant_ids:
        Labels for the variant axis (default ``v0..vN-1``); sweeps pass
        the machine-spec variant ids here.

    Every row of the result is bit-identical to the scalar compiled
    fast path run of that variant.
    """
    opts = options if options is not None else SimOptions(mode=ExecutionMode.TIMING)
    if opts.mode is not ExecutionMode.TIMING:
        raise RuntimeFault(
            "simulate_many evaluates the batched TIMING cost model; "
            "NUMERIC data needs one simulate() per variant"
        )
    if opts.trace_rank is not None:
        raise RuntimeFault(
            "simulate_many cannot record a per-rank timeline; pass "
            "trace_rank to simulate() on a single variant"
        )
    if opts.fast is False:
        raise RuntimeFault(
            "simulate_many has no interpreted walk (fast=False); loop "
            "over simulate() for the interpreter"
        )
    if isinstance(programs, ir.IRProgram):
        programs = (programs,)
    programs = tuple(programs)
    if not programs:
        raise RuntimeFault("simulate_many needs at least one program")
    names = [p.name for p in programs]
    if len(set(names)) != len(names):
        raise RuntimeFault(f"duplicate program names in batch: {names}")

    matrix = (
        variants
        if isinstance(variants, VariantMatrix)
        else pack_variants(variants)
    )
    if variant_ids is None:
        ids = tuple(f"v{i}" for i in range(matrix.nvariants))
    else:
        ids = tuple(str(v) for v in variant_ids)
        if len(ids) != matrix.nvariants:
            raise RuntimeFault(
                f"{len(ids)} variant ids for {matrix.nvariants} variants"
            )

    base = matrix.base
    runs: Dict[str, BatchRun] = {}
    times = np.empty((len(programs), matrix.nvariants), dtype=np.float64)
    with obs.span(
        "simulate_many",
        machine=base.name,
        library=base.library,
        nprocs=base.nprocs,
        variants=matrix.nvariants,
        programs=len(programs),
    ):
        for b, program in enumerate(programs):
            run = batch_evaluator(
                program, base, repeat_cap=opts.repeat_cap
            ).evaluate(matrix)
            runs[program.name] = run
            times[b] = run.times
    if obs.enabled():
        _record_batch_metrics(matrix.nvariants, runs)
    return BatchResult(
        machine_name=base.name,
        library=base.library,
        nprocs=base.nprocs,
        variant_ids=ids,
        benchmarks=tuple(names),
        times=times,
        runs=runs,
    )


def _record_batch_metrics(nvariants: int, runs: Dict[str, BatchRun]) -> None:
    obs.add("sim.batch.runs", len(runs))
    obs.add("sim.batch.variants", nvariants * len(runs))
    for run in runs.values():
        obs.add("sim.batch.messages", run.instrument.total_messages)
        obs.add("sim.batch.bytes", run.instrument.total_bytes)
        if run.fastpath is not None:
            obs.add(
                "sim.batch.extrapolated_trips", run.fastpath.extrapolated_trips
            )
            obs.add("sim.batch.fallbacks", run.fastpath.fallbacks)
