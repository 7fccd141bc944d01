"""The compiled TIMING fast path.

:func:`compile_schedule` turns an ``IRProgram`` body into a flat
**timing program** — a sequence of primitive ops with every invariant
precomputed:

``CHARGE_ARRAY``
    the per-rank cost vector of a whole-array statement (``np.where``
    over the statement's element vector, hoisted out of the loop);
``CHARGE_SCALAR``
    the replicated scalar cost (one float);
``REDUCE``
    the partial-combine vector and tree time of a collective;
``SR`` / ``DN`` / ``DR`` / ``SV``
    an IRONMAN call's :class:`~repro.ir.nodes.CommDescriptor` (what
    identifies the transfer), its resolved
    :class:`~repro.runtime.transfers.TransferPlan` (geometry, shared by
    every descriptor of that geometry) and its
    :class:`~repro.runtime.costs.CallCosts`;
loop / branch markers
    structured ops that re-evaluate only what is genuinely dynamic
    (bounds, conditions, scalar assignments — compiled to closures).

The dispatch loop then mutates the clock vector with NumPy ops and no IR
traversal, `isinstance` dispatch, or dict lookups per statement.  The
same lowering, runner and cycle monitor drive either timing core
(:mod:`repro.runtime.timing`): the engine supplies the charge arrays,
the reduction tree time and its view of the call costs, and folds
replayed epoch advances.

Template, price table, binding
------------------------------
Lowering splits at the machine.  Everything no cost parameter changes
is a :class:`ScheduleTemplate`, built once per program and machine shape
(processor mesh) and kept on the program
(:func:`schedule_template`), so it lives exactly as long as the program
and holds no reference back to it: the :class:`Geometry` (grid, layout,
plan cache, static count), and, from the first compiled run on, the one
walk over the IR (:class:`_TemplateLowerer`) — a tree of nodes with the
plans resolved and loop eligibility decided, the array-charge rows
stacked (statements with equal flops and bounds share a row) and the
distinct plan signatures of its calls in one
:class:`~repro.runtime.costs.PlanTable`.  Scalar ``simulate`` runs and
``BatchEvaluator`` batches of any machine on that mesh — another
library, another machine, a sweep variant — share it.

Each run then prices (:class:`_Binder`): one vectorized
:func:`~repro.runtime.costs.price` pass per call kind gives that kind's
price table, and one expression prices every charge row; the binder
walks the node tree into ops over the run's engine and scalar
environment, asking the engine for each charge and call op: the scalar
core binds a charge row with one paying rank (recorded per row in the
template) and a one-message call to their single-rank scalar forms
(:mod:`repro.runtime.timing`).  A DR or SV call bound to ``noop``
emits no op: it would add 0.0 to every clock and record nothing.  Float sums stay bit-exact
with the per-plan builds they replace (see :mod:`repro.runtime.costs`).

Steady-state extrapolation
--------------------------
Counted loops whose bodies never read or write the loop variable, and
``repeat`` loops, run under one cycle monitor (:meth:`_Runner.run_loop`).
After each trip the engine rebases the clock offsets
(:meth:`~repro.runtime.timing.TimingEngine.loop_rebase`); the dynamic
state is then the clock offsets, the in-flight arrival and DR-flag
blocks, and the scalar environment (minus a counted loop's variable).
The clock update ``max(clock, arrival) + sw`` is max-plus linear, and
such recurrences settle into a cycle of some period ``p >= 1``, not
necessarily a fixed point.  Because the per-trip map is deterministic
(and, by the eligibility check, independent of the loop variable), a
state equal to the one ``p`` trips earlier proves that every remaining
trip repeats with period ``p``.  The monitor finds ``p`` with Brent's
cycle detection: it holds one saved state (clock bytes plus the full
signature), re-saved whenever the trips since the last save reach the
next power of two, and builds the full signature between saves only
when a trip's clock bytes equal the saved ones.  On a match, one
*template* period runs under a snapshot, the remaining whole periods are
applied in closed form — integer counters advance by ``k * delta``, and
the template's epoch-advance pattern is replayed ``k`` times through the
same run-length-coalescing fold the stepping path uses, so the
materialized absolute clocks are *bit-identical* to stepping — and the
last ``< p`` trips step.  A ``repeat`` loop monitors its full state,
loop scalars included: a cycle whose trips all left the condition false
can never converge, so the loop reaches its trip cap in closed form
(with the same warning the walk records).

When the invariants don't hold — the state never repeats, the body
touches the loop variable, or too few trips remain to skip a whole
period — the loop simply steps through the compiled ops (``fallbacks``
counts the loops that stepped to their end).  Exactness contract:
clocks, dynamic counts, message counts, volumes, warnings, and final
scalars are identical to the interpreted walk.  The per-rank *time
breakdown* vectors (compute/comm-sw/wait) are the one exception under
extrapolation: they are scaled by ``k`` in one multiply, which may
differ from repeated addition in the last ulps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.comm.counts import static_comm_count
from repro.errors import RuntimeFault
from repro.ir import nodes as ir
from repro.ironman.bindings import NOOP
from repro.ironman.calls import CallKind
from repro.machine.params import Machine
from repro.runtime.costs import PlanTable, price
from repro.runtime.grid import ProcessorGrid
from repro.runtime.interp import _BIN_OPS, _INTRINSICS
from repro.runtime.layout import ProblemLayout
from repro.runtime.transfers import PlanCache, TransferPlan

#: counted loops shorter than this step without the cycle monitor and do
#: not count as fallbacks
_MIN_MONITOR_TRIPS = 3


@dataclass
class FastPathStats:
    """What the compiled path did on one run."""

    #: trips skipped via closed-form steady-state application
    extrapolated_trips: int = 0
    #: loop executions that extrapolated
    extrapolated_loops: int = 0
    #: loop executions of monitorable length that stepped every trip (a
    #: counted loop to its end, a repeat to its cap)
    fallbacks: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "extrapolated_trips": int(self.extrapolated_trips),
            "extrapolated_loops": int(self.extrapolated_loops),
            "fallbacks": int(self.fallbacks),
        }


# ---------------------------------------------------------------------------
# scalar expression compilation
# ---------------------------------------------------------------------------


def _compile_scalar(
    expr: ir.IRExpr,
    scalars: Dict[str, object],
    reduce_hook: Callable[[ir.IRReduce], float],
) -> Callable[[], object]:
    """Compile a replicated scalar expression to a zero-arg closure.

    Mirrors :meth:`repro.runtime.interp.ScalarEvaluator.eval` branch for
    branch (integer-division truncation, unbound-scalar faults, numpy
    scalar narrowing) so results are identical."""
    if isinstance(expr, ir.IRConst):
        value = expr.value
        return lambda: value
    if isinstance(expr, ir.IRScalarRead):
        name = expr.name

        def read():
            try:
                return scalars[name]
            except KeyError:
                raise RuntimeFault(f"unbound scalar {name!r}") from None

        return read
    if isinstance(expr, ir.IRReduce):
        return partial(reduce_hook, expr)
    if isinstance(expr, ir.IRBin):
        lhs = _compile_scalar(expr.lhs, scalars, reduce_hook)
        rhs = _compile_scalar(expr.rhs, scalars, reduce_hook)
        if expr.op == "/":

            def div():
                a, b = lhs(), rhs()
                if isinstance(a, int) and isinstance(b, int):
                    # ZL integer division truncates
                    return a // b
                return a / b

            return div
        op = _BIN_OPS[expr.op]
        return lambda: op(lhs(), rhs())
    if isinstance(expr, ir.IRUn):
        operand = _compile_scalar(expr.operand, scalars, reduce_hook)
        if expr.op == "not":
            return lambda: not operand()
        return lambda: -operand()
    if isinstance(expr, ir.IRIntrinsic):
        arg_fns = [_compile_scalar(a, scalars, reduce_hook) for a in expr.args]
        func = _INTRINSICS[expr.func]

        def call():
            out = func(*[fn() for fn in arg_fns])
            return float(out) if isinstance(out, np.generic) else out

        return call
    raise RuntimeFault(f"cannot evaluate {expr!r} in scalar context")


def _expr_reads(expr: ir.IRExpr, var: str) -> bool:
    return any(
        isinstance(node, ir.IRScalarRead) and node.name == var
        for node in ir.walk_expr(expr)
    )


def _body_touches(body: List[ir.IRStmt], var: str) -> bool:
    """Whether any scalar-evaluated expression in ``body`` reads ``var``
    or any assignment (including a nested loop) writes it.  Array-assign
    right-hand sides don't count: TIMING never evaluates them."""
    for stmt in body:
        if isinstance(stmt, ir.Block):
            for s in stmt.stmts:
                if isinstance(s, ir.ScalarAssign) and (
                    s.target == var or _expr_reads(s.expr, var)
                ):
                    return True
        elif isinstance(stmt, ir.ForLoop):
            if stmt.var == var:
                return True
            bounds = [stmt.low, stmt.high]
            if stmt.step is not None:
                bounds.append(stmt.step)
            if any(_expr_reads(e, var) for e in bounds):
                return True
            if _body_touches(stmt.body, var):
                return True
        elif isinstance(stmt, ir.RepeatLoop):
            if _expr_reads(stmt.cond, var) or _body_touches(stmt.body, var):
                return True
        elif isinstance(stmt, ir.IfStmt):
            for cond, arm in stmt.arms:
                if _expr_reads(cond, var) or _body_touches(arm, var):
                    return True
            if _body_touches(stmt.orelse, var):
                return True
    return False


# ---------------------------------------------------------------------------
# the runner: shared dynamic state + steady-state machinery
# ---------------------------------------------------------------------------


class _Snapshot:
    __slots__ = (
        "mark",
        "counts",
        "calls",
        "reductions",
        "compute",
        "comm_sw",
        "wait",
    )

    def __init__(self, runner: "_Runner") -> None:
        inst = runner.instrument
        self.mark = len(runner.timing._epoch_log)
        self.counts = inst.counts.copy()
        self.calls = dict(inst.call_counts)
        self.reductions = inst.reductions
        self.compute = inst.compute_time.copy()
        self.comm_sw = inst.comm_sw_time.copy()
        self.wait = inst.wait_time.copy()


class _Runner:
    """Dynamic state shared by every op of one compiled run."""

    def __init__(self, timing, instrument, scalars) -> None:
        self.timing = timing
        self.instrument = instrument
        self.scalars = scalars
        self.stats = FastPathStats()
        #: how many monitored loops are currently executing (an
        #: extrapolating loop must keep logging epoch advances when an
        #: outer monitor is recording its pattern)
        self.monitor_depth = 0

    # -- steady-state machinery -----------------------------------------
    def signature(self, exclude: Optional[str]) -> Tuple:
        """Bitwise snapshot of the dynamic state after a rebased
        iteration: clock offsets, in-flight arrivals, DR flags, and the
        scalar environment (minus the loop variable — the eligibility
        check guarantees the body never looks at it)."""
        t = self.timing
        inflight = tuple(
            (key, t._inflight[key].tobytes()) for key in sorted(t._inflight)
        )
        dr = tuple(
            (key, t._dr_times[key].tobytes()) for key in sorted(t._dr_times)
        )
        env = tuple(
            (key, repr(value))
            for key, value in sorted(self.scalars.items())
            if key != exclude
        )
        return (t.clock.tobytes(), inflight, dr, env)

    def run_loop(
        self, trip: Callable[[int], bool], n: int, exclude: Optional[str]
    ) -> bool:
        """Run trips ``0 .. n-1`` of a loop under the cycle monitor and
        return whether a trip ended the loop early (``trip(i)`` runs the
        body and the rebase, and returns True when a ``repeat``
        condition held).

        The trip map is deterministic in the rebased state, so once the
        state after a trip equals the state ``p`` trips earlier, every
        later trip repeats with period ``p``.  Brent's cycle detection
        finds that ``p`` holding one saved state: it re-saves whenever
        the trips since the last save reach the next power of two, and
        compares each trip's clock bytes with the saved ones, building
        the full signature only when those match.  On a match with at
        least one whole period left to skip, one template period runs
        under a snapshot, the remaining whole periods are applied in
        closed form, and the last ``< p`` trips step.  A loop that ran
        all ``n`` trips without extrapolating counts as a fallback."""
        timing = self.timing
        self.monitor_depth += 1
        try:
            i = 0
            saved_clock = saved_sig = None
            since, power = 0, 1
            extrapolated = False
            while i < n:
                if trip(i):
                    return True
                i += 1
                since += 1
                clock = timing.clock.tobytes()
                if clock == saved_clock and self.signature(exclude) == saved_sig:
                    # a cycle of period `since`; skip only whole periods
                    # past one template period
                    extrapolated = n - i >= 2 * since
                    if extrapolated:
                        snap = _Snapshot(self)
                        for _ in range(since):
                            if trip(i):  # pragma: no cover - determinism
                                return True
                            i += 1
                        k = (n - i) // since
                        self.extrapolate(k, snap)
                        self.stats.extrapolated_trips += k * since
                        self.stats.extrapolated_loops += 1
                        i += k * since
                    break
                # a save pays off only if a period of one fits after it
                if since == power and n - i >= 3:
                    saved_clock, saved_sig = clock, self.signature(exclude)
                    since, power = 0, 2 * power
            while i < n:
                if trip(i):
                    return True
                i += 1
            if not extrapolated:
                self.stats.fallbacks += 1
            return False
        finally:
            self.monitor_depth -= 1

    def extrapolate(self, k: int, snap: _Snapshot) -> None:
        """Apply ``k`` more copies of the iteration that ran since
        ``snap`` in closed form."""
        timing = self.timing
        inst = self.instrument
        pattern = timing._epoch_log[snap.mark :]
        if pattern:
            if self.monitor_depth >= 2:
                # an enclosing monitor is recording: log every advance
                timing.replay_pattern(pattern, k)
            else:
                saved = timing._epoch_log
                timing._epoch_log = None
                timing.replay_pattern_bulk(pattern, k)
                timing._epoch_log = saved
        for current, ref in (
            (inst.counts, snap.counts),
            (inst.compute_time, snap.compute),
            (inst.comm_sw_time, snap.comm_sw),
            (inst.wait_time, snap.wait),
        ):
            current += k * (current - ref)
        for key, now in list(inst.call_counts.items()):
            delta = now - snap.calls.get(key, 0)
            if delta:
                inst.call_counts[key] = now + k * delta
        inst.reductions += k * (inst.reductions - snap.reductions)


# ---------------------------------------------------------------------------
# structured ops
# ---------------------------------------------------------------------------


class _IfOp:
    __slots__ = ("arms", "orelse")

    def __init__(self, arms, orelse) -> None:
        self.arms = arms
        self.orelse = orelse

    def __call__(self) -> None:
        for cond, body in self.arms:
            if bool(cond()):
                for op in body:
                    op()
                return
        for op in self.orelse:
            op()


class _ForOp:
    __slots__ = ("runner", "var", "low", "high", "step", "body", "eligible")

    def __init__(self, runner, var, low, high, step, body, eligible) -> None:
        self.runner = runner
        self.var = var
        self.low = low
        self.high = high
        self.step = step
        self.body = body
        self.eligible = eligible

    def __call__(self) -> None:
        lo = int(self.low())
        hi = int(self.high())
        step = int(self.step()) if self.step is not None else 1
        if step == 0:
            raise RuntimeFault(f"for {self.var}: zero step")
        stop = hi + (1 if step > 0 else -1)
        values = range(lo, stop, step)
        n = len(values)
        if n == 0:
            return
        runner = self.runner
        timing = runner.timing
        scalars = runner.scalars
        body = self.body
        var = self.var

        def trip(i: int) -> bool:
            scalars[var] = values[i]
            for op in body:
                op()
            timing.loop_rebase()
            return False

        if self.eligible and n >= _MIN_MONITOR_TRIPS:
            runner.run_loop(trip, n, exclude=var)
            # skipped trips never set the variable
            scalars[var] = values[-1]
            return
        for i in range(n):
            trip(i)
        if n >= _MIN_MONITOR_TRIPS:
            runner.stats.fallbacks += 1


class _RepeatOp:
    __slots__ = ("runner", "body", "cond", "cap")

    def __init__(self, runner, body, cond, cap) -> None:
        self.runner = runner
        self.body = body
        self.cond = cond
        self.cap = cap

    def __call__(self) -> None:
        timing = self.runner.timing
        body = self.body
        cond = self.cond

        def trip(_: int) -> bool:
            for op in body:
                op()
            timing.loop_rebase()
            return bool(cond())

        # the whole state, every scalar included, is monitored: a cycle
        # whose trips all left the condition false can never converge.
        # Like the walk, a cap below one still runs one trip.
        if not self.runner.run_loop(trip, max(self.cap, 1), exclude=None):
            self.runner.instrument.warn(
                f"repeat loop capped at {self.cap} trips without converging"
            )


# ---------------------------------------------------------------------------
# the template: lowering without a machine
# ---------------------------------------------------------------------------


@dataclass
class Geometry:
    """The cost-free state of one program on one machine shape: the
    processor grid, the problem layout (fluff feasibility checked), the
    transfer-plan cache and the static communication count."""

    grid: ProcessorGrid
    layout: ProblemLayout
    plans: PlanCache
    static_count: int

    @classmethod
    def build(cls, program: ir.IRProgram, machine: Machine) -> "Geometry":
        rows, cols = machine.grid_shape
        grid = ProcessorGrid(rows, cols)
        domains = {name: dom for name, (dom, _) in program.arrays.items()}
        layout = ProblemLayout(grid, domains)
        fluff = {name: f for name, (_, f) in program.arrays.items()}
        layout.check_fluff_feasible(fluff)
        return cls(
            grid,
            layout,
            PlanCache(layout, machine.nprocs),
            static_comm_count(program),
        )


class _Charge(NamedTuple):
    """An array statement: a row of the stacked charges."""

    row: int
    label: str


class _Reduce(NamedTuple):
    """A reduction: its partial combine's row, then the tree."""

    row: int


class _Assign(NamedTuple):
    """A scalar statement: its charge, then the assignment."""

    target: str
    expr: ir.IRExpr
    flops: int


class _Call(NamedTuple):
    """An IRONMAN call: its descriptor, which keys the transfer's
    in-flight state, its plan, and the plan's index in the plan table."""

    kind: CallKind
    desc: ir.CommDescriptor
    plan: TransferPlan
    index: int


class _For(NamedTuple):
    var: str
    low: ir.IRExpr
    high: ir.IRExpr
    step: Optional[ir.IRExpr]
    body: list
    #: the body never reads or writes ``var``: the cycle monitor may run
    eligible: bool


class _Repeat(NamedTuple):
    body: list
    cond: ir.IRExpr
    max_trips: int


class _If(NamedTuple):
    arms: list
    orelse: list


class _Lowered(NamedTuple):
    """What the walk over the IR leaves: the node tree, the charge rows
    stacked (an ``(S, 1)`` flops column against ``(S, P)`` element
    counts) with each row's one rank with elements (None when none or
    several have them), the distinct plans of its calls in one
    :class:`~repro.runtime.costs.PlanTable` (None without calls) and
    the call kinds that run on them, in :class:`CallKind` order."""

    body: list
    flops: np.ndarray
    elements: np.ndarray
    one_rank: Tuple[Optional[int], ...]
    table: Optional[PlanTable]
    kinds: Tuple[CallKind, ...]


class _TemplateLowerer:
    """The one walk over an IR body: resolves plans, element vectors
    and loop eligibility, and numbers the distinct charge rows and plan
    signatures."""

    def __init__(self, geometry: Geometry) -> None:
        self.layout = geometry.layout
        self.plans = geometry.plans
        self.nprocs = geometry.grid.nprocs
        self.rows: Dict[Tuple, int] = {}
        self.flops: List[int] = []
        self.elements: List[np.ndarray] = []
        self.plan_index: Dict[Tuple, int] = {}
        self.table_plans: List[TransferPlan] = []
        self.kinds: set = set()

    def lower(self, body: List[ir.IRStmt]) -> _Lowered:
        nodes = self.lower_body(body)
        flops = np.array(self.flops, dtype=np.int64).reshape(-1, 1)
        elements = (
            np.stack(self.elements)
            if self.elements
            else np.zeros((0, self.nprocs), dtype=np.float64)
        )
        paying = elements > 0
        one_rank = tuple(
            int(rank) if count == 1 else None
            for rank, count in zip(paying.argmax(axis=1), paying.sum(axis=1))
        )
        table = PlanTable(self.table_plans) if self.table_plans else None
        kinds = tuple(kind for kind in CallKind if kind in self.kinds)
        return _Lowered(nodes, flops, elements, one_rank, table, kinds)

    def lower_body(self, body: List[ir.IRStmt]) -> list:
        nodes: list = []
        for stmt in body:
            if isinstance(stmt, ir.Block):
                for s in stmt.stmts:
                    self._lower_simple(s, nodes)
            elif isinstance(stmt, ir.ForLoop):
                nodes.append(
                    _For(
                        stmt.var,
                        stmt.low,
                        stmt.high,
                        stmt.step,
                        self.lower_body(stmt.body),
                        eligible=not _body_touches(stmt.body, stmt.var),
                    )
                )
            elif isinstance(stmt, ir.RepeatLoop):
                nodes.append(
                    _Repeat(self.lower_body(stmt.body), stmt.cond, stmt.max_trips)
                )
            elif isinstance(stmt, ir.IfStmt):
                arms = [(cond, self.lower_body(arm)) for cond, arm in stmt.arms]
                nodes.append(_If(arms, self.lower_body(stmt.orelse)))
            else:  # pragma: no cover - defensive
                raise RuntimeFault(f"cannot lower {stmt!r}")
        return nodes

    def _row(self, flops: int, region) -> int:
        """The charge row of ``flops`` per element over ``region``
        (statements with equal flops and bounds share one)."""
        key = (flops, region.lows, region.highs)
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = len(self.flops)
            self.flops.append(flops)
            self.elements.append(self.layout.element_counts(region))
        return row

    def _lower_simple(self, stmt: ir.SimpleStmt, nodes: list) -> None:
        if isinstance(stmt, ir.ArrayAssign):
            nodes.append(_Charge(self._row(stmt.flops, stmt.region), stmt.target))
        elif isinstance(stmt, ir.ScalarAssign):
            for node in ir.walk_expr(stmt.expr):
                if isinstance(node, ir.IRReduce):
                    # a partial combine charges like an array statement
                    # of at least one flop
                    flops = max(ir.expr_flops(node.operand), 1)
                    nodes.append(_Reduce(self._row(flops, node.region)))
            nodes.append(_Assign(stmt.target, stmt.expr, ir.expr_flops(stmt.expr)))
        elif isinstance(stmt, ir.CommCall):
            plan = self.plans.plan(stmt.desc)
            if plan.message_count == 0:
                return  # nothing to move on this machine shape
            index = self.plan_index.get(plan.signature)
            if index is None:
                index = self.plan_index[plan.signature] = len(self.table_plans)
                self.table_plans.append(plan)
            self.kinds.add(stmt.kind)
            nodes.append(_Call(stmt.kind, stmt.desc, plan, index))
        else:  # pragma: no cover - defensive
            raise RuntimeFault(f"cannot lower {stmt!r}")


class ScheduleTemplate:
    """Everything of a compiled schedule that no cost parameter changes,
    for one program on one machine shape.

    :attr:`geometry` is built with the template and serves every run,
    the interpreted walk's included.  :attr:`lowered` walks the IR on
    the first compiled run.  The template holds no reference to its
    program, so it is freed with the program by reference counting."""

    def __init__(self, program: ir.IRProgram, machine: Machine) -> None:
        self.geometry = Geometry.build(program, machine)
        self._ir_body = program.body

    @cached_property
    def lowered(self) -> _Lowered:
        return _TemplateLowerer(self.geometry).lower(self._ir_body)


def schedule_template(program: ir.IRProgram, machine: Machine) -> ScheduleTemplate:
    """The one template of ``program`` on ``machine``'s processor mesh,
    built on first use and kept on the program for as long as it
    lives."""
    template = program.templates.get(machine.grid_shape)
    if template is None:
        template = ScheduleTemplate(program, machine)
        program.templates[machine.grid_shape] = template
    return template


# ---------------------------------------------------------------------------
# binding: one run's ops
# ---------------------------------------------------------------------------

#: calls whose whole effect is their software charge: bound to ``noop``
#: they add 0.0 to every clock and record nothing, so they bind no op
_CHARGE_ONLY = (CallKind.DR, CallKind.SV)


def _assign(scalars: Dict[str, object], target: str, value: Callable[[], object]) -> None:
    scalars[target] = value()


class _Binder:
    """Prices one run's calls and charges and binds the template's
    nodes into ops over the run's engine and scalar environment.

    ``sim`` is the owning :class:`repro.runtime.executor._Simulation`
    (duck-typed: needs ``template``, ``timing``, ``instrument``,
    ``scalars`` and ``scalar_eval``)."""

    def __init__(self, sim) -> None:
        lowered = sim.template.lowered
        self.one_rank = lowered.one_rank
        timing = self.timing = sim.timing
        self.scalars = sim.scalars
        self.reduce_hook = sim.scalar_eval.reduce_hook
        self.runner = _Runner(timing, sim.instrument, sim.scalars)
        self.charges = timing.array_cost(lowered.flops, lowered.elements)
        binding = timing.machine.binding
        self.costs = {
            kind: [
                timing.bind_costs(c)
                for c in price(lowered.table, kind, timing.matrix)
            ]
            for kind in lowered.kinds
            if not (kind in _CHARGE_ONLY and binding.primitive(kind) == NOOP)
        }

    def _compile(self, expr: ir.IRExpr) -> Callable[[], object]:
        return _compile_scalar(expr, self.scalars, self.reduce_hook)

    def bind(self, nodes: list) -> List[Callable[[], None]]:
        timing = self.timing
        ops: List[Callable[[], None]] = []
        for node in nodes:
            if isinstance(node, _Charge):
                ops.append(
                    timing.bind_charge(
                        self.charges[node.row], self.one_rank[node.row], node.label
                    )
                )
            elif isinstance(node, _Call):
                costs = self.costs.get(node.kind)
                if costs is not None:
                    ops.append(
                        timing.bind_call(
                            node.kind, node.desc, node.plan, costs[node.index]
                        )
                    )
            elif isinstance(node, _Assign):
                ops.append(
                    partial(timing.charge_scalar_cost, timing.scalar_cost(node.flops))
                )
                ops.append(
                    partial(_assign, self.scalars, node.target, self._compile(node.expr))
                )
            elif isinstance(node, _Reduce):
                ops.append(
                    partial(
                        timing.charge_reduction_vec,
                        self.charges[node.row],
                        timing.tree_time,
                    )
                )
            elif isinstance(node, _For):
                ops.append(
                    _ForOp(
                        self.runner,
                        node.var,
                        self._compile(node.low),
                        self._compile(node.high),
                        self._compile(node.step) if node.step is not None else None,
                        self.bind(node.body),
                        node.eligible,
                    )
                )
            elif isinstance(node, _Repeat):
                ops.append(
                    _RepeatOp(
                        self.runner,
                        self.bind(node.body),
                        self._compile(node.cond),
                        node.max_trips,
                    )
                )
            else:
                arms = [(self._compile(c), self.bind(arm)) for c, arm in node.arms]
                ops.append(_IfOp(arms, self.bind(node.orelse)))
        return ops


@dataclass
class CompiledSchedule:
    """A lowered timing program, ready to dispatch."""

    ops: List[Callable[[], None]]
    runner: _Runner

    def execute(self) -> FastPathStats:
        self.runner.timing._epoch_log = []
        try:
            for op in self.ops:
                op()
        finally:
            self.runner.timing._epoch_log = None
        return self.runner.stats


def compile_schedule(sim) -> CompiledSchedule:
    """Lower ``sim``'s program into a flat timing program for its run:
    the program's template (lowered on its first compiled run per
    machine shape), priced and bound to the run."""
    binder = _Binder(sim)
    return CompiledSchedule(binder.bind(sim.template.lowered.body), binder.runner)
