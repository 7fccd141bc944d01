"""The compiled TIMING fast path.

:func:`compile_schedule` lowers an ``IRProgram`` body *once* into a flat
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
    the resolved :class:`~repro.runtime.transfers.TransferPlan` of an
    IRONMAN call and its :class:`~repro.runtime.costs.CallCosts`;
loop / branch markers
    structured ops that re-evaluate only what is genuinely dynamic
    (bounds, conditions, scalar assignments — compiled to closures).

The dispatch loop then mutates the clock vector with NumPy ops and no IR
traversal, `isinstance` dispatch, or dict lookups per statement.  The
same lowering, runner and cycle monitor drive either timing core
(:mod:`repro.runtime.timing`): the engine supplies the charge arrays,
the reduction tree time and the call costs, and folds replayed epoch
advances.

Steady-state extrapolation
--------------------------
Counted loops whose bodies never read or write the loop variable, and
``repeat`` loops, run under one cycle monitor (:meth:`_Runner.run_loop`).
After each trip the engine rebases the clock offsets
(:meth:`~repro.runtime.timing.TimingEngine.loop_rebase`); the dynamic
state is then the clock offsets, the in-flight arrival and DR-flag
vectors, and the scalar environment (minus a counted loop's variable).
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
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import RuntimeFault
from repro.ir import nodes as ir
from repro.runtime.interp import _BIN_OPS, _INTRINSICS

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
        "dynamic",
        "messages",
        "nbytes",
        "calls",
        "reductions",
        "compute",
        "comm_sw",
        "wait",
    )

    def __init__(self, runner: "_Runner") -> None:
        inst = runner.instrument
        self.mark = len(runner.timing._epoch_log)
        self.dynamic = inst.dynamic_comms.copy()
        self.messages = inst.messages.copy()
        self.nbytes = inst.bytes_moved.copy()
        self.calls = dict(inst.call_counts)
        self.reductions = inst.reductions
        self.compute = inst.compute_time.copy()
        self.comm_sw = inst.comm_sw_time.copy()
        self.wait = inst.wait_time.copy()


class _Runner:
    """Dynamic state shared by every op of one compiled run."""

    def __init__(self, timing, instrument, scalars, repeat_cap) -> None:
        self.timing = timing
        self.instrument = instrument
        self.scalars = scalars
        self.repeat_cap = repeat_cap
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
            (inst.dynamic_comms, snap.dynamic),
            (inst.messages, snap.messages),
            (inst.bytes_moved, snap.nbytes),
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
# lowering
# ---------------------------------------------------------------------------


class _Lowerer:
    """One-time translation of an IR body into flat op lists.

    ``sim`` is the owning :class:`repro.runtime.executor._Simulation`
    (duck-typed: needs ``timing``, ``instrument``, ``scalars``,
    ``plans``, ``layout``, ``scalar_eval``, ``repeat_cap`` and
    ``comm_costs``)."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.timing = sim.timing
        self.scalars = sim.scalars
        self.reduce_hook = sim.scalar_eval.reduce_hook
        self.runner = _Runner(sim.timing, sim.instrument, sim.scalars, sim.repeat_cap)

    def lower_body(self, body: List[ir.IRStmt]) -> List[Callable[[], None]]:
        ops: List[Callable[[], None]] = []
        for stmt in body:
            if isinstance(stmt, ir.Block):
                for s in stmt.stmts:
                    self._lower_simple(s, ops)
            elif isinstance(stmt, ir.ForLoop):
                ops.append(self._lower_for(stmt))
            elif isinstance(stmt, ir.RepeatLoop):
                ops.append(self._lower_repeat(stmt))
            elif isinstance(stmt, ir.IfStmt):
                ops.append(self._lower_if(stmt))
            else:  # pragma: no cover - defensive
                raise RuntimeFault(f"cannot lower {stmt!r}")
        return ops

    # -- simple statements ----------------------------------------------
    def _lower_simple(self, stmt: ir.SimpleStmt, ops: List) -> None:
        timing = self.timing
        if isinstance(stmt, ir.ArrayAssign):
            cost = timing.array_cost(stmt.flops, self.sim.layout.element_counts(stmt.region))
            ops.append(partial(timing.charge_array_vec, cost, stmt.target))
        elif isinstance(stmt, ir.ScalarAssign):
            for node in ir.walk_expr(stmt.expr):
                if isinstance(node, ir.IRReduce):
                    part = timing.reduction_cost(
                        ir.expr_flops(node.operand),
                        self.sim.layout.element_counts(node.region),
                    )
                    ops.append(
                        partial(timing.charge_reduction_vec, part, timing.tree_time)
                    )
            ops.append(
                partial(
                    timing.charge_scalar_cost,
                    timing.scalar_cost(ir.expr_flops(stmt.expr)),
                )
            )
            value = _compile_scalar(stmt.expr, self.scalars, self.reduce_hook)
            ops.append(partial(self._assign, stmt.target, value))
        elif isinstance(stmt, ir.CommCall):
            plan = self.sim.plans.plan(stmt.desc)
            if plan.message_count == 0:
                return  # nothing to move on this machine
            # the call's costs are resolved here once, not on every dispatch
            costs = self.sim.comm_costs(plan, stmt.kind)
            ops.append(partial(timing.call_op(stmt.kind), plan, costs))
        else:  # pragma: no cover - defensive
            raise RuntimeFault(f"cannot lower {stmt!r}")

    def _assign(self, target: str, value: Callable[[], object]) -> None:
        self.scalars[target] = value()

    # -- structured statements ------------------------------------------
    def _lower_for(self, stmt: ir.ForLoop) -> _ForOp:
        compile_bound = partial(
            _compile_scalar, scalars=self.scalars, reduce_hook=self.reduce_hook
        )
        return _ForOp(
            self.runner,
            stmt.var,
            compile_bound(stmt.low),
            compile_bound(stmt.high),
            compile_bound(stmt.step) if stmt.step is not None else None,
            self.lower_body(stmt.body),
            eligible=not _body_touches(stmt.body, stmt.var),
        )

    def _lower_repeat(self, stmt: ir.RepeatLoop) -> _RepeatOp:
        cap = (
            self.sim.repeat_cap
            if self.sim.repeat_cap is not None
            else stmt.max_trips
        )
        return _RepeatOp(
            self.runner,
            self.lower_body(stmt.body),
            _compile_scalar(stmt.cond, self.scalars, self.reduce_hook),
            cap,
        )

    def _lower_if(self, stmt: ir.IfStmt) -> _IfOp:
        arms = [
            (
                _compile_scalar(cond, self.scalars, self.reduce_hook),
                self.lower_body(body),
            )
            for cond, body in stmt.arms
        ]
        return _IfOp(arms, self.lower_body(stmt.orelse))


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
    """Lower ``sim``'s program body into a flat timing program."""
    lowerer = _Lowerer(sim)
    return CompiledSchedule(lowerer.lower_body(sim.program.body), lowerer.runner)
