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
trip repeats with period ``p``.  After each trip the monitor keeps a
lean copy of the state (:data:`_Snapshot`: clock bytes, epoch log
length, op-list executions, scalars, and pending blocks and spread only
when there are any) and compares it with two earlier copies, building
full signatures only when the clock bytes match: the previous trip's,
which proves a period of one at the state's first repeat, and the one
Brent's cycle detection saved, re-saved whenever the trips since the
last save reach the next power of two, which finds any longer period.
A match after trip ``i`` against the copy after trip ``j`` means trips
``j+1 .. i`` are one whole period, already stepped and logged.  The
``k = (n - i) // (i - j)`` whole periods left are applied in closed
form whenever ``k >= 1`` — op-list execution counts advance by ``k *
delta``, and the period's logged epoch advances are replayed ``k``
times through the same run-length-coalescing fold the stepping path
uses, so the materialized absolute clocks are *bit-identical* to
stepping — and the last ``< i - j`` trips step.  A ``repeat`` loop
monitors its full state, loop scalars included: a cycle whose trips all
left the condition false can never converge, so the loop reaches its
trip cap in closed form (with the same warning the walk records).

When the invariants don't hold — the state never repeats, the body
touches the loop variable, or the cycle is proven with less than one
whole period left — the loop simply steps through the compiled ops
(``fallbacks`` counts the loops that stepped to their end).

Counting executions
-------------------
Every counter and the per-rank account are a fixed amount per execution
of an op, so no dispatched op records them: ops move clocks, in-flight
blocks and DR flags only.  The template numbers its op lists (the
program body is list 0, then each loop body, branch arm and ``else`` in
the order the walk over the IR meets them) and keeps, per leaf, the
list it sits in and what one execution of it adds (:class:`_Tally`).  A
run counts how many times each list ran — the program body once, a
loop body once per trip, a branch arm when taken — in a plain list of
ints, and :func:`settle` derives the counters, the call counts and the
account from those counts when the run ends.  The interpreted walk
counts into the same numbering (its op lists are the IR's, keyed by
identity) and settles through the same function with its own per-plan
prices, which equal the template's bit for bit
(:mod:`repro.runtime.costs`).  Extrapolation scales the counts exactly
(``k * delta`` in integers).

Exactness contract: clocks, dynamic counts, message counts, volumes,
call counts, reductions, the per-rank account (compute/comm-sw/wait),
warnings and final scalars are identical to the interpreted walk,
extrapolated loops included.  The one software cost that depends on
the run, a rendezvous DN's spread surcharge, accumulates as it happens
and is scaled by ``k`` in one multiply under extrapolation, which may
differ from repeated addition in the last ulps; ``spread_penalty``
defaults to zero, and then the surcharge is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.comm.counts import static_comm_count
from repro.errors import RuntimeFault
from repro.ir import nodes as ir
from repro.ironman.bindings import NOOP
from repro.ironman.calls import CallKind
from repro.machine.params import Machine, SyncKind
from repro.runtime.costs import CallCosts, PlanTable, price
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


#: The cycle monitor's copy of the state after one trip of a loop, taken
#: after every trip, so it is a plain tuple (a class instance costs more
#: than the copy) and copies nothing it does not need:
#:
#: ``(trip, clock, mark, executions, scalars, inflight, dr, spread)`` —
#: the number of trips run, the clock offsets' bytes, the epoch log's
#: length, the op-list executions, the scalar environment, each pending
#: in-flight and DR-flag block's bytes (rebasing subtracts from them in
#: place; ``{}`` when none is pending), and the rendezvous spread
#: surcharges (None unless a DN can add one).
_Snapshot = Tuple[
    int, bytes, int, List[int], Dict[str, object], Dict[int, bytes], Dict[int, bytes],
    Optional[np.ndarray],
]

_NONE_PENDING: Dict[int, bytes] = {}

#: stands for the snapshot of a trip not run yet: no clock bytes equal None
_NO_TRIP = (0, None)


def _signature(snap: _Snapshot, exclude: Optional[str]) -> Tuple:
    """The dynamic state of ``snap`` bit for bit: clock offsets,
    in-flight arrivals, DR flags, and the scalar environment (minus a
    counted loop's variable, which the eligibility check guarantees the
    body never looks at)."""
    _, clock, _, _, scalars, inflight, dr, _ = snap
    env = tuple(
        (key, repr(value)) for key, value in sorted(scalars.items()) if key != exclude
    )
    return (clock, sorted(inflight.items()), sorted(dr.items()), env)


def _same_state(a: _Snapshot, b: _Snapshot, exclude: Optional[str]) -> bool:
    return a[1] == b[1] and _signature(a, exclude) == _signature(b, exclude)


class _Runner:
    """Dynamic state shared by every op of one compiled run."""

    def __init__(self, timing, instrument, scalars, bodies: int) -> None:
        self.timing = timing
        self.instrument = instrument
        self.scalars = scalars
        self.stats = FastPathStats()
        #: how many times each of the template's op lists ran
        self.executions = [0] * bodies
        #: whether a rendezvous DN can add a spread surcharge to
        #: ``instrument.comm_sw_time`` (the binder sets it)
        self.spreads = False
        #: how many monitored loops are currently executing (an
        #: extrapolating loop must keep logging epoch advances when an
        #: outer monitor may replay them)
        self.monitor_depth = 0

    # -- steady-state machinery -----------------------------------------
    def run_loop(
        self, trip: Callable[[int], bool], n: int, exclude: Optional[str]
    ) -> bool:
        """Run trips ``0 .. n-1`` of a loop under the cycle monitor and
        return whether a trip ended the loop early (``trip(i)`` runs the
        body and the rebase, and returns True when a ``repeat``
        condition held).

        The trip map is deterministic in the rebased state, so once the
        state after ``i`` trips equals the state after ``j``, trips
        ``j+1 .. i`` are one whole period and every later trip repeats
        it.  After each trip the monitor snapshots the state
        (:data:`_Snapshot`) and compares it with two earlier snapshots,
        building full signatures only when the clock bytes match: the
        previous trip's, which proves a period of one at its first
        repeat, and the one Brent's cycle detection saved, which it
        re-saves whenever the trips since the last save reach the next
        power of two and which finds any longer period.  On a match,
        the period that already ran since the matched snapshot, and
        whose epoch advances are logged since then, is applied ``(n -
        i) // (i - j)`` more times in closed form, and the last ``< i -
        j`` trips step.  A loop that ran all ``n`` trips without
        extrapolating counts as a fallback."""
        timing = self.timing
        executions, scalars = self.executions, self.scalars
        inflight, dr = timing._inflight, timing._dr_times
        spread = self.instrument.comm_sw_time if self.spreads else None
        self.monitor_depth += 1
        try:
            i = 0
            # the snapshots after the previous trip and at Brent's save
            last = saved = _NO_TRIP
            since, power = 0, 1
            extrapolated = False
            while i < n:
                if trip(i):
                    return True
                i += 1
                clock = timing.clock.tobytes()
                snap = (
                    i,
                    clock,
                    len(timing._epoch_log),
                    executions.copy(),
                    dict(scalars),
                    {k: a.tobytes() for k, a in inflight.items()} if inflight else _NONE_PENDING,
                    {k: a.tobytes() for k, a in dr.items()} if dr else _NONE_PENDING,
                    None if spread is None else spread.copy(),
                )
                if clock == last[1] or clock == saved[1]:
                    match = next(
                        (s for s in (last, saved) if _same_state(s, snap, exclude)), None
                    )
                    if match is not None:
                        period = i - match[0]
                        k = (n - i) // period
                        if k:
                            self.extrapolate(k, match)
                            self.stats.extrapolated_trips += k * period
                            self.stats.extrapolated_loops += 1
                            i += k * period
                            extrapolated = True
                        break
                last = snap
                since += 1
                if since == power:
                    saved = snap
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
        """Apply ``k`` more copies of the period that ran since ``snap``
        in closed form: the epoch advances it logged, the op lists it
        ran, and its rendezvous spread surcharges (the one software cost
        a run accumulates, held in ``comm_sw_time`` until
        :func:`settle`)."""
        _, _, mark, ran, _, _, _, spread_then = snap
        timing = self.timing
        pattern = timing._epoch_log[mark:]
        if pattern:
            if self.monitor_depth >= 2:
                # an enclosing monitor may replay this trip: log every advance
                timing.replay_pattern(pattern, k)
            else:
                saved = timing._epoch_log
                timing._epoch_log = None
                timing.replay_pattern_bulk(pattern, k)
                timing._epoch_log = saved
        executions = self.executions
        for body, ref in enumerate(ran):
            delta = executions[body] - ref
            if delta:
                executions[body] += k * delta
        if spread_then is not None:
            spread = self.instrument.comm_sw_time
            spread += k * (spread - spread_then)


# ---------------------------------------------------------------------------
# structured ops
# ---------------------------------------------------------------------------


class _IfOp:
    """A branch: ``arms`` are ``(cond, ops)`` pairs; ``bodies`` numbers
    each arm's op list, then the ``else`` list's."""

    __slots__ = ("executions", "arms", "orelse", "bodies")

    def __init__(self, runner, arms, orelse, bodies) -> None:
        self.executions = runner.executions
        self.arms = arms
        self.orelse = orelse
        self.bodies = bodies

    def __call__(self) -> None:
        for arm, (cond, body) in enumerate(self.arms):
            if bool(cond()):
                self.executions[self.bodies[arm]] += 1
                for op in body:
                    op()
                return
        self.executions[self.bodies[-1]] += 1
        for op in self.orelse:
            op()


class _ForOp:
    __slots__ = ("runner", "var", "low", "high", "step", "body", "eligible", "index")

    def __init__(self, runner, var, low, high, step, body, eligible, index) -> None:
        self.runner = runner
        self.var = var
        self.low = low
        self.high = high
        self.step = step
        self.body = body
        self.eligible = eligible
        #: the body's op-list number
        self.index = index

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
        # every trip runs, stepped or extrapolated
        runner.executions[self.index] += n
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
    __slots__ = ("runner", "body", "cond", "cap", "index")

    def __init__(self, runner, body, cond, cap, index) -> None:
        self.runner = runner
        self.body = body
        self.cond = cond
        self.cap = cap
        #: the body's op-list number
        self.index = index

    def __call__(self) -> None:
        timing = self.runner.timing
        executions, index = self.runner.executions, self.index
        body = self.body
        cond = self.cond

        def trip(_: int) -> bool:
            executions[index] += 1
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
    #: the body's op-list number
    index: int


class _Repeat(NamedTuple):
    body: list
    cond: ir.IRExpr
    max_trips: int
    #: the body's op-list number
    index: int


class _If(NamedTuple):
    arms: list
    orelse: list
    #: the op-list number of each arm, then of ``orelse``
    bodies: Tuple[int, ...]


class _Tally(NamedTuple):
    """What :func:`settle` reads of the template: per leaf, the op list
    it sits in (``*_body``) and what one execution of it adds, as index
    arrays."""

    #: array statements and reductions' partial combines: their charge rows
    charge_body: np.ndarray
    charge_row: np.ndarray
    #: scalar statements: each one's flops, at least one
    scalar_body: np.ndarray
    scalar_flops: np.ndarray
    #: reductions
    reduce_body: np.ndarray
    #: calls, each in a slot: its kind's place in ``kinds`` times the
    #: number of plans, plus its plan's index
    call_body: np.ndarray
    call_slot: np.ndarray


def _columns(pairs: List[Tuple[int, int]]) -> Tuple[np.ndarray, np.ndarray]:
    """``(a, b)`` pairs as an index array of the ``a`` and one of the
    ``b``."""
    a, b = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return a, b


@dataclass(eq=False)
class _Lowered:
    """What the walk over the IR leaves: the node tree, the charge rows
    stacked (an ``(S, 1)`` flops column against ``(S, P)`` element
    counts) with each row's one rank with elements (None when none or
    several have them), the distinct plans of its calls, the call kinds
    that run on them in :class:`CallKind` order, the number of op lists
    with each IR list's number (keyed by the list's identity; the
    template keeps the IR alive) and the per-leaf :class:`_Tally`."""

    body: list
    flops: np.ndarray
    elements: np.ndarray
    one_rank: Tuple[Optional[int], ...]
    plans: Tuple[TransferPlan, ...]
    kinds: Tuple[CallKind, ...]
    bodies: int
    body_index: Dict[int, int]
    tally: _Tally

    @cached_property
    def table(self) -> Optional[PlanTable]:
        """The distinct plans in one
        :class:`~repro.runtime.costs.PlanTable` (None without calls),
        built on the first compiled run: the walk prices each plan
        through the plan's own table."""
        return PlanTable(self.plans) if self.plans else None


class _TemplateLowerer:
    """The one walk over an IR body: resolves plans, element vectors
    and loop eligibility, and numbers the op lists, the distinct charge
    rows and the plan signatures."""

    def __init__(self, geometry: Geometry) -> None:
        self.layout = geometry.layout
        self.plans = geometry.plans
        self.nprocs = geometry.grid.nprocs
        self.rows: Dict[Tuple, int] = {}
        self.flops: List[int] = []
        self.elements: List[np.ndarray] = []
        self.plan_index: Dict[Tuple, int] = {}
        self.table_plans: List[TransferPlan] = []
        self.bodies = 0
        #: identity of each IR list -> its op-list number (a list the IR
        #: shares between two places keeps the last: both lower to the
        #: same leaves, so settling either count gives the same sums)
        self.body_index: Dict[int, int] = {}
        #: per leaf: (op list, charge row), (op list, flops), op list,
        #: and (op list, kind, plan index)
        self.charges: List[Tuple[int, int]] = []
        self.scalars: List[Tuple[int, int]] = []
        self.reductions: List[int] = []
        self.calls: List[Tuple[int, CallKind, int]] = []

    def lower(self, body: List[ir.IRStmt]) -> _Lowered:
        _, nodes = self.lower_body(body)
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
        called = {kind for _, kind, _ in self.calls}
        kinds = tuple(kind for kind in CallKind if kind in called)
        place = {kind: i * len(self.table_plans) for i, kind in enumerate(kinds)}
        tally = _Tally(
            *_columns(self.charges),
            *_columns(self.scalars),
            np.array(self.reductions, dtype=np.intp),
            *_columns([(body, place[kind] + i) for body, kind, i in self.calls]),
        )
        return _Lowered(
            nodes,
            flops,
            elements,
            one_rank,
            tuple(self.table_plans),
            kinds,
            self.bodies,
            self.body_index,
            tally,
        )

    def lower_body(self, body: List[ir.IRStmt]) -> Tuple[int, list]:
        """Number the op list ``body`` and lower it: its number and its
        nodes."""
        index = self.body_index[id(body)] = self.bodies
        self.bodies += 1
        nodes: list = []
        for stmt in body:
            if isinstance(stmt, ir.Block):
                for s in stmt.stmts:
                    self._lower_simple(s, nodes, index)
            elif isinstance(stmt, ir.ForLoop):
                inner, ops = self.lower_body(stmt.body)
                eligible = not _body_touches(stmt.body, stmt.var)
                nodes.append(
                    _For(stmt.var, stmt.low, stmt.high, stmt.step, ops, eligible, inner)
                )
            elif isinstance(stmt, ir.RepeatLoop):
                inner, ops = self.lower_body(stmt.body)
                nodes.append(_Repeat(ops, stmt.cond, stmt.max_trips, inner))
            elif isinstance(stmt, ir.IfStmt):
                arms, bodies = [], []
                for cond, arm in stmt.arms:
                    inner, ops = self.lower_body(arm)
                    arms.append((cond, ops))
                    bodies.append(inner)
                inner, orelse = self.lower_body(stmt.orelse)
                nodes.append(_If(arms, orelse, (*bodies, inner)))
            else:  # pragma: no cover - defensive
                raise RuntimeFault(f"cannot lower {stmt!r}")
        return index, nodes

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

    def _lower_simple(self, stmt: ir.SimpleStmt, nodes: list, body: int) -> None:
        if isinstance(stmt, ir.ArrayAssign):
            row = self._row(stmt.flops, stmt.region)
            self.charges.append((body, row))
            nodes.append(_Charge(row, stmt.target))
        elif isinstance(stmt, ir.ScalarAssign):
            for node in ir.walk_expr(stmt.expr):
                if isinstance(node, ir.IRReduce):
                    # a partial combine charges like an array statement
                    # of at least one flop
                    flops = max(ir.expr_flops(node.operand), 1)
                    row = self._row(flops, node.region)
                    self.charges.append((body, row))
                    self.reductions.append(body)
                    nodes.append(_Reduce(row))
            flops = ir.expr_flops(stmt.expr)
            self.scalars.append((body, max(flops, 1)))
            nodes.append(_Assign(stmt.target, stmt.expr, flops))
        elif isinstance(stmt, ir.CommCall):
            plan = self.plans.plan(stmt.desc)
            if plan.message_count == 0:
                return  # nothing to move on this machine shape
            index = self.plan_index.get(plan.signature)
            if index is None:
                index = self.plan_index[plan.signature] = len(self.table_plans)
                self.table_plans.append(plan)
            self.calls.append((body, stmt.kind, index))
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
        self.runner = _Runner(timing, sim.instrument, sim.scalars, lowered.bodies)
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
        self.runner.spreads = timing.keeps_account and any(
            c.sync is SyncKind.RENDEZVOUS and c.spread_penalty
            for c in self.costs.get(CallKind.DN, ())
        )

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
                        node.index,
                    )
                )
            elif isinstance(node, _Repeat):
                ops.append(
                    _RepeatOp(
                        self.runner,
                        self.bind(node.body),
                        self._compile(node.cond),
                        node.max_trips,
                        node.index,
                    )
                )
            else:
                arms = [(self._compile(c), self.bind(arm)) for c, arm in node.arms]
                ops.append(
                    _IfOp(self.runner, arms, self.bind(node.orelse), node.bodies)
                )
        return ops


@dataclass
class CompiledSchedule:
    """A lowered timing program, ready to dispatch, with its template's
    lowering and the price tables and charge rows it was bound with,
    which :func:`settle` reads when the run ends."""

    ops: List[Callable[[], None]]
    runner: _Runner
    lowered: _Lowered
    costs: Dict[CallKind, List[CallCosts]]
    charges: np.ndarray

    def execute(self) -> FastPathStats:
        runner = self.runner
        runner.timing._epoch_log = []
        try:
            # the program body, op list 0, runs once
            runner.executions[0] += 1
            for op in self.ops:
                op()
        finally:
            runner.timing._epoch_log = None
        settle(
            self.lowered,
            runner.executions,
            runner.timing,
            runner.instrument,
            self.prices,
            self.charges,
        )
        return runner.stats

    def prices(self, kind: CallKind, plans: List[int]) -> List[CallCosts]:
        costs = self.costs[kind]
        return [costs[i] for i in plans]


def compile_schedule(sim) -> CompiledSchedule:
    """Lower ``sim``'s program into a flat timing program for its run:
    the program's template (lowered on its first compiled run per
    machine shape), priced and bound to the run."""
    binder = _Binder(sim)
    lowered = sim.template.lowered
    return CompiledSchedule(
        binder.bind(lowered.body), binder.runner, lowered, binder.costs, binder.charges
    )


# ---------------------------------------------------------------------------
# settling: the counters and the account from op-list executions
# ---------------------------------------------------------------------------


def count_transfers(counts: np.ndarray, plans, runs) -> None:
    """Add ``runs[i]`` executions of ``plans[i]``'s transfer to the
    ``(3, P)`` counters: the plans'
    :attr:`~repro.runtime.transfers.TransferPlan.count_block` times
    their runs, multiplied in int64 (blocks are narrowed, and their own
    dtype would overflow)."""
    runs = np.asarray(runs)
    used = np.flatnonzero(runs)
    if len(used):
        blocks = np.stack([plans[i].count_block for i in used.tolist()])
        scaled = np.multiply(runs[used, None, None], blocks, dtype=np.int64)
        counts += scaled.sum(axis=0)


def settle(
    lowered: _Lowered,
    executions: Sequence[int],
    timing,
    inst,
    prices: Callable[[CallKind, List[int]], List[CallCosts]],
    charges: Optional[np.ndarray] = None,
) -> None:
    """Fill the instrumentation ``inst`` of a run on the core ``timing``
    from how many times each op list of its template ran
    (``executions``), once, when the run ends.

    Each leaf adds a fixed amount per execution, so its total is its
    executions times that amount, with the executions summed per
    charge row and per plan in integers first.  The transfer counters
    are each SR plan's runs times its ``count_block``, and reductions
    the reductions' executions.  On the scalar core, which keeps the
    per-rank account, ``prices(kind, plans)`` gives those plans' costs
    (the compiled path's price tables, or the walk's per-plan prices,
    equal bit for bit) and ``charges`` the charge rows (priced here when
    None):

    * call counts: each plan's runs times its ``calls``;
    * comm-sw: each plan's runs times its ``rank_sw``, or, for a
      rendezvous DN or DR, times ``fixed`` at each receiver, in
      :class:`CallKind` order, plus the spread surcharges the
      rendezvous DNs accumulated;
    * compute: each charge row's runs times the row, plus the scalar
      statements' flops times the flop time;
    * wait: the absolute clock less compute and comm-sw.

    Sums run elementwise in a fixed order (never a BLAS product), so
    equal inputs give equal bits on either path."""
    tally, plans, kinds = lowered.tally, lowered.plans, lowered.kinds
    n = np.array(executions, dtype=np.int64)
    inst.reductions = int(n.take(tally.reduce_body).sum())
    runs = np.bincount(
        tally.call_slot,
        weights=n.take(tally.call_body),
        minlength=len(kinds) * len(plans),
    )
    runs = runs.astype(np.int64).reshape(len(kinds), len(plans))
    if CallKind.SR in kinds:
        count_transfers(inst.counts, plans, runs[kinds.index(CallKind.SR)])
    if not timing.keeps_account:
        return
    binding = timing.machine.binding
    nprocs = len(inst.comm_sw_time)
    comm_sw = np.zeros(nprocs)
    for kind, plan_runs in zip(kinds, runs):
        if kind in _CHARGE_ONLY and binding.primitive(kind) == NOOP:
            continue
        used = np.flatnonzero(plan_runs).tolist()
        if not used:
            continue
        times = plan_runs[used]
        costs = prices(kind, used)
        name = costs[0].name
        calls = sum(t * c.calls for t, c in zip(times.tolist(), costs))
        if calls and name != NOOP:
            inst.call_counts[name] = inst.call_counts.get(name, 0) + calls
        if costs[0].rank_sw is None:
            # rendezvous DN and DR charge ``fixed`` at each receiver
            receiving = np.zeros(nprocs, dtype=np.int64)
            for i, t in zip(used, times.tolist()):
                receiving[plans[i].receivers_unique] += t
            comm_sw += receiving * costs[0].fixed
        else:
            rows = np.stack([c.rank_sw for c in costs])
            comm_sw += (times[:, None] * rows).sum(axis=0)
    inst.comm_sw_time += comm_sw
    if charges is None:
        charges = timing.array_cost(lowered.flops, lowered.elements)
    row_runs = np.bincount(
        tally.charge_row, weights=n.take(tally.charge_body), minlength=len(charges)
    )
    compute = (row_runs[:, None] * charges).sum(axis=0)
    scalar_flops = int((n.take(tally.scalar_body) * tally.scalar_flops).sum())
    compute += scalar_flops * timing.machine.compute.flop_time
    inst.compute_time = compute
    inst.wait_time = timing.absolute_clocks() - compute - inst.comm_sw_time
