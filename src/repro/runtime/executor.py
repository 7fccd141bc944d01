"""The simulation driver.

:func:`simulate` executes an optimized IR program on a simulated machine
in one of two modes:

``NUMERIC``
    Full simulation: distributed array data is computed block-by-block,
    fluff moves through the transfer plans, *and* the clock vector runs.
    Use for correctness work (results are compared against the sequential
    reference) and moderate problem sizes.

``TIMING``
    Metadata-only simulation: the clock vector, dynamic counts, message
    counts and volumes are exact, but no array data is touched.  Scalar
    control flow still executes; embedded reductions evaluate to 0.0 with
    a recorded warning, so programs whose control flow depends on reduced
    values should run NUMERIC (the bundled benchmarks use counted loops
    precisely so TIMING is exact for them).

Both modes execute the same statement walk; they differ only in whether
array payloads exist.  NUMERIC data work goes through the
:class:`~repro.runtime.interp.ParallelEvaluator`, which binds each array
statement, reduction and transfer's copies once per run, at its first
execution, and afterwards only runs the bound closures over the same
block views.

TIMING mode additionally has a **compiled fast path**
(:mod:`repro.runtime.schedule`): the IR body is lowered once into a flat
schedule of primitive timing ops with all invariant data precomputed,
and loops whose state cycles are extrapolated in closed form.  It is
bit-exact versus the interpreted walk and is selected automatically for
TIMING runs without a ``trace_rank``; ``SimOptions.fast=False`` runs the
walk as the differential oracle.

:class:`_Simulation` is the one driver.  Given a machine it runs the
scalar core (:class:`~repro.runtime.timing.TimingEngine`); given a
:class:`~repro.machine.variants.VariantMatrix` it runs the batched core
(:class:`~repro.runtime.timing.BatchTimingEngine`) for
:func:`repro.simulate_many`.  Either way it reads the program's schedule
template for the machine's shape, built once and kept on the program
(:func:`~repro.runtime.schedule.schedule_template`), lowers through
:func:`~repro.runtime.schedule.compile_schedule`, and the walk prices
each call it reaches once per run (:meth:`_Simulation.comm_costs`),
through the one-plan table each plan keeps
(:attr:`~repro.runtime.transfers.TransferPlan.table`), not through the
template's table, so it stays the compiled path's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import RuntimeFault
from repro.ir import nodes as ir
from repro.ironman.calls import CallKind
from repro.machine.params import Machine
from repro.machine.variants import VariantMatrix, pack_variants
from repro.obs import core as obs
from repro.runtime.costs import CallCosts, price
from repro.runtime.distarray import DistArray
from repro.runtime.instrument import Instrumentation
from repro.runtime.interp import ParallelEvaluator, ScalarEvaluator
from repro.runtime.options import ExecutionMode, SimOptions
from repro.runtime.schedule import FastPathStats, compile_schedule, schedule_template
from repro.runtime.timing import BatchTimingEngine, TimingEngine
from repro.runtime.transfers import TransferPlan


@dataclass
class RunResult:
    """Everything a simulation run produced."""

    program_name: str
    machine_name: str
    library: str
    nprocs: int
    mode: ExecutionMode
    #: simulated execution time (the last rank to finish), in model seconds
    time: float
    clocks: np.ndarray
    #: the paper's dynamic communication count (per-processor maximum)
    dynamic_comm_count: int
    dynamic_comms: np.ndarray
    static_comm_count: int
    instrument: Instrumentation
    scalars: Dict[str, float]
    arrays: Optional[Dict[str, DistArray]] = field(default=None, repr=False)
    #: event timeline of the traced rank (None unless trace_rank was set)
    trace: Optional[list] = field(default=None, repr=False)
    trace_rank: Optional[int] = None
    #: fast-path engagement stats (None when the interpreted walk ran)
    fastpath: Optional[FastPathStats] = None

    def array(self, name: str) -> np.ndarray:
        """Gathered global contents of an array (NUMERIC mode only)."""
        if self.arrays is None:
            raise RuntimeFault(
                "array data is unavailable in TIMING mode; run NUMERIC"
            )
        return self.arrays[name].gather()

    @property
    def warnings(self) -> List[str]:
        return self.instrument.warnings


def _timing_reduce(instrument: Instrumentation, expr: ir.IRReduce) -> float:
    instrument.warn(
        "TIMING mode evaluates reductions as 0.0; control flow "
        "depending on reduced values is unreliable — run NUMERIC"
    )
    return 0.0


class _Simulation:
    """One run of ``program`` on ``target``: a machine (the scalar core)
    or a variant matrix (the batched core, compiled TIMING only), over
    the program's template for the machine's shape."""

    def __init__(
        self,
        program: ir.IRProgram,
        target: Union[Machine, VariantMatrix],
        mode: ExecutionMode,
        trace_rank: Optional[int] = None,
        fast: bool = False,
    ) -> None:
        batched = isinstance(target, VariantMatrix)
        self.program = program
        self.machine = target.base if batched else target
        self.mode = mode
        self.fast = fast
        self.template = schedule_template(program, self.machine)
        geometry = self.template.geometry
        self.grid = geometry.grid
        self.layout = geometry.layout
        self.plans = geometry.plans
        self.static_count = geometry.static_count
        self.instrument = Instrumentation(self.machine.nprocs)
        if batched:
            self.timing = BatchTimingEngine(target, self.instrument)
        else:
            self.timing = TimingEngine(
                pack_variants([target]), self.instrument, trace_rank
            )
        self._costs: Dict[Tuple[Tuple, CallKind], CallCosts] = {}

        # replicated scalar environment: configs + scalars (zeroed) +
        # loop variables as they come into scope
        self.scalars: Dict[str, Union[int, float, bool]] = dict(
            program.config_values
        )
        for name in program.scalars:
            self.scalars[name] = 0.0

        self.arrays: Optional[Dict[str, DistArray]] = None
        if mode is ExecutionMode.NUMERIC:
            self.arrays = {
                name: DistArray(name, dom, f, self.layout)
                for name, (dom, f) in program.arrays.items()
            }
            self.parallel = ParallelEvaluator(
                self.arrays, self.scalars, self.layout
            )
            self.scalar_eval = ScalarEvaluator(
                self.scalars, self.parallel.reduce
            )
        else:
            self.parallel = None
            # bound to the instrument, not to self: a run's state is
            # freed by reference counting as soon as the run is dropped
            self.scalar_eval = ScalarEvaluator(
                self.scalars, partial(_timing_reduce, self.instrument)
            )

    def comm_costs(self, plan: TransferPlan, kind: CallKind) -> CallCosts:
        """The walk's cost arrays of ``kind`` calls on ``plan``: the
        plan's own one-plan table (:attr:`TransferPlan.table`, built once
        per plan) through the one pricer, once per run and plan
        signature (the engines only read them, so equal signatures
        share one)."""
        key = (plan.signature, kind)
        costs = self._costs.get(key)
        if costs is None:
            (costs,) = price(plan.table, kind, self.timing.matrix)
            costs = self._costs[key] = self.timing.bind_costs(costs)
        return costs

    # ------------------------------------------------------------------
    def execute(self) -> Optional[FastPathStats]:
        """Run the program body: the compiled schedule's stats, or None
        when the interpreted walk ran."""
        stats: Optional[FastPathStats] = None
        if self.fast:
            stats = compile_schedule(self).execute()
        else:
            self._exec_body(self.program.body)
        self.timing.assert_quiescent()
        return stats

    def final_scalars(self) -> Dict[str, float]:
        return {
            k: v for k, v in self.scalars.items() if k in self.program.scalars
        }

    def run(self) -> RunResult:
        fast_stats = self.execute()
        return RunResult(
            program_name=self.program.name,
            machine_name=self.machine.name,
            library=self.machine.library,
            nprocs=self.machine.nprocs,
            mode=self.mode,
            time=self.timing.elapsed,
            clocks=self.timing.absolute_clocks(),
            dynamic_comm_count=self.instrument.dynamic_comm_count,
            dynamic_comms=self.instrument.dynamic_comms.copy(),
            static_comm_count=self.static_count,
            instrument=self.instrument,
            scalars=self.final_scalars(),
            arrays=self.arrays,
            trace=self.timing.trace if self.timing.trace_rank is not None else None,
            trace_rank=self.timing.trace_rank,
            fastpath=fast_stats,
        )

    # ------------------------------------------------------------------
    def _exec_body(self, body: List[ir.IRStmt]) -> None:
        for stmt in body:
            if isinstance(stmt, ir.Block):
                for s in stmt.stmts:
                    self._exec_simple(s)
            elif isinstance(stmt, ir.ForLoop):
                self._exec_for(stmt)
            elif isinstance(stmt, ir.RepeatLoop):
                self._exec_repeat(stmt)
            elif isinstance(stmt, ir.IfStmt):
                self._exec_if(stmt)
            else:  # pragma: no cover - defensive
                raise RuntimeFault(f"cannot execute {stmt!r}")

    def _exec_for(self, stmt: ir.ForLoop) -> None:
        lo = int(self.scalar_eval.eval(stmt.low))
        hi = int(self.scalar_eval.eval(stmt.high))
        step = int(self.scalar_eval.eval(stmt.step)) if stmt.step else 1
        if step == 0:
            raise RuntimeFault(f"for {stmt.var}: zero step")
        stop = hi + (1 if step > 0 else -1)
        for value in range(lo, stop, step):
            self.scalars[stmt.var] = value
            self._exec_body(stmt.body)
            self.timing.loop_rebase()

    def _exec_repeat(self, stmt: ir.RepeatLoop) -> None:
        trips = 0
        while True:
            self._exec_body(stmt.body)
            self.timing.loop_rebase()
            trips += 1
            if bool(self.scalar_eval.eval(stmt.cond)):
                break
            if trips >= stmt.max_trips:
                self.instrument.warn(
                    f"repeat loop capped at {stmt.max_trips} trips without converging"
                )
                break

    def _exec_if(self, stmt: ir.IfStmt) -> None:
        for cond, body in stmt.arms:
            if bool(self.scalar_eval.eval(cond)):
                self._exec_body(body)
                return
        self._exec_body(stmt.orelse)

    # ------------------------------------------------------------------
    def _exec_simple(self, stmt: ir.SimpleStmt) -> None:
        if isinstance(stmt, ir.ArrayAssign):
            self.timing.charge_array_stmt(
                stmt.flops, self.layout.element_counts(stmt.region), label=stmt.target
            )
            if self.parallel is not None:
                self.parallel.assign(stmt)
        elif isinstance(stmt, ir.ScalarAssign):
            self._exec_scalar_assign(stmt)
        elif isinstance(stmt, ir.CommCall):
            self._exec_comm(stmt)
        else:  # pragma: no cover - defensive
            raise RuntimeFault(f"cannot execute {stmt!r}")

    def _exec_scalar_assign(self, stmt: ir.ScalarAssign) -> None:
        # collective cost for each embedded reduction
        for node in ir.walk_expr(stmt.expr):
            if isinstance(node, ir.IRReduce):
                self.timing.charge_reduction(
                    ir.expr_flops(node.operand), self.layout.element_counts(node.region)
                )
        self.timing.charge_scalar_stmt(ir.expr_flops(stmt.expr))
        self.scalars[stmt.target] = self.scalar_eval.eval(stmt.expr)

    def _exec_comm(self, stmt: ir.CommCall) -> None:
        plan = self.plans.plan(stmt.desc)
        if plan.message_count == 0:
            return  # nothing to move on this machine: calls find no work
        if self.parallel is not None:
            if stmt.kind is CallKind.SR:
                self.parallel.snapshot(stmt.desc, plan)
            elif stmt.kind is CallKind.DN:
                self.parallel.deliver(stmt.desc, plan)
        self.timing.call_op(stmt.kind)(
            stmt.desc, plan, self.comm_costs(plan, stmt.kind)
        )


def _check_trace_rank(trace_rank: object, nprocs: int) -> None:
    if trace_rank is None:
        return
    if (
        isinstance(trace_rank, bool)
        or not isinstance(trace_rank, int)
        or not 0 <= trace_rank < nprocs
    ):
        raise RuntimeFault(
            f"trace_rank must be an int in [0, {nprocs}), got {trace_rank!r}"
        )


#: Sentinel distinguishing "``mode`` not passed" from an explicit value.
_UNSET = object()


def _resolve_options(
    options: Optional[SimOptions], mode: object
) -> SimOptions:
    """Fold the positional ``mode`` and the options object into one
    :class:`SimOptions`; mixing them raises."""
    if options is not None:
        if mode is not _UNSET:
            raise RuntimeFault(
                "simulate() got options= together with mode — put every "
                "setting on the SimOptions object"
            )
        return options
    return SimOptions(
        mode=mode if mode is not _UNSET else ExecutionMode.NUMERIC
    )


def simulate(
    program: ir.IRProgram,
    machine: Machine,
    mode: ExecutionMode = _UNSET,  # type: ignore[assignment]
    *,
    options: Optional[SimOptions] = None,
) -> RunResult:
    """Run an optimized program on a simulated machine.

    Parameters
    ----------
    program:
        An :class:`~repro.ir.nodes.IRProgram`, typically from
        :func:`repro.comm.optimize` (a communication-free program runs
        too: on one processor, or trivially wrong on several — useful in
        tests that demonstrate why communication is needed).
    machine:
        From :func:`repro.machine.paragon` / :func:`repro.machine.t3d`.
    options:
        A :class:`~repro.runtime.options.SimOptions`; the single place
        for every run-shaping setting:

        ``mode``
            NUMERIC (data + time) or TIMING (time and counts only).
        ``trace_rank``
            Record the full event timeline (compute/send/recv/wait/...)
            of one processor, an ``int`` in ``[0, nprocs)``; retrieve it
            as ``result.trace`` and render it with
            :mod:`repro.analysis.timeline` or bridge it into a Perfetto
            trace with :func:`repro.obs.bridge_rank_trace`.
        ``fast``
            ``True`` (default) runs the compiled TIMING fast path
            (:mod:`repro.runtime.schedule`) whenever the run is TIMING
            without a ``trace_rank``; ``False`` forces the interpreted
            walk, the differential oracle.  Results are bit-identical
            either way.

    ``mode`` may also be passed positionally — ``simulate(program,
    machine, ExecutionMode.TIMING)`` is the stable short form — but
    every other setting lives on the options object (bare
    ``trace_rank``/``fast`` keywords are a ``TypeError``).  Mixing
    ``mode`` with ``options=`` raises.  A ``repeat`` loop stops at its
    own ``max_trips``.
    """
    opts = _resolve_options(options, mode)
    mode = opts.mode
    trace_rank = opts.trace_rank
    _check_trace_rank(trace_rank, machine.nprocs)
    use_fast = opts.fast and mode is ExecutionMode.TIMING and trace_rank is None
    with obs.span(
        "simulate",
        program=program.name,
        machine=machine.name,
        library=machine.library,
        nprocs=machine.nprocs,
        mode=mode.value,
    ):
        result = _Simulation(program, machine, mode, trace_rank, fast=use_fast).run()
    if obs.enabled():
        _record_run_metrics(result)
    return result


def _record_run_metrics(result: RunResult) -> None:
    """Post one finished run's model-side totals into the metrics
    registry: the IRONMAN per-primitive call counts the instrumentation
    gathered, communication volumes, and the model time histogram.
    Called only when tracing is on."""
    inst = result.instrument
    for primitive, count in inst.call_counts.items():
        obs.add(f"sim.calls.{primitive}", count)
    obs.add("sim.runs", 1)
    obs.add("sim.dynamic_comms", result.dynamic_comm_count)
    obs.add("sim.messages", inst.total_messages)
    obs.add("sim.bytes", inst.total_bytes)
    obs.add("sim.reductions", inst.reductions)
    obs.observe("sim.model_time_s", result.time)
    if result.fastpath is not None:
        obs.add("sim.fastpath.compiled", 1)
        obs.add("sim.fastpath.extrapolated_trips", result.fastpath.extrapolated_trips)
        obs.add("sim.fastpath.fallbacks", result.fastpath.fallbacks)
