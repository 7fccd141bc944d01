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
    the resolved :class:`~repro.runtime.transfers.TransferPlan`,
    primitive, and warmed ``prim_vectors`` cost vectors of an IRONMAN
    call;
loop / branch markers
    structured ops that re-evaluate only what is genuinely dynamic
    (bounds, conditions, scalar assignments — compiled to closures).

The dispatch loop then mutates the clock vector with NumPy ops and no IR
traversal, `isinstance` dispatch, or dict lookups per statement.

Steady-state extrapolation
--------------------------
Counted loops whose bodies never read or write the loop variable are
monitored: after each iteration the engine rebases the clock offsets
(:meth:`~repro.runtime.timing.TimingEngine.loop_rebase`) and snapshots a
bitwise signature of the dynamic state — clock offsets, in-flight
arrival and DR-flag vectors, and the scalar environment minus the loop
variable.  Because the per-iteration map is deterministic and (by the
eligibility check) independent of the loop variable, two consecutive
identical signatures prove the loop has entered an exact fixed point:
every remaining trip would repeat the last one bitwise.  The remaining
``k`` trips are then applied in closed form — integer counters advance
by ``k * delta``, and the recorded epoch-advance pattern is replayed
through the same run-length-coalescing fold the stepping path uses, so
the materialized absolute clocks are *bit-identical* to stepping.
``repeat`` loops get the dual treatment: if the full state repeats and
the condition held false twice, the loop can never converge, so it jumps
straight to its trip cap (with the same warning the walk records).

When the invariants don't hold — the signature keeps changing, the body
touches the loop variable, or the loop is too short to profit — the loop
simply steps through the compiled ops (``fallbacks`` counts the loops
that stepped).  Exactness contract: clocks, dynamic counts, message
counts, volumes, warnings, and final scalars are identical to the
interpreted walk.  The per-rank *time breakdown* vectors
(compute/comm-sw/wait) are the one exception under extrapolation: they
are scaled by ``k`` in one multiply, which may differ from repeated
addition in the last ulps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import RuntimeFault
from repro.ir import nodes as ir
from repro.ironman.calls import CallKind
from repro.runtime.interp import _BIN_OPS, _INTRINSICS

#: a counted loop needs two probe iterations plus at least one skippable
#: trip before monitoring can pay off
_MIN_MONITOR_TRIPS = 3


@dataclass
class FastPathStats:
    """What the compiled path did on one run."""

    #: trips skipped via closed-form steady-state application
    extrapolated_trips: int = 0
    #: loop executions that extrapolated
    extrapolated_loops: int = 0
    #: eligible-length loop executions that stepped to completion
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

    def _replay_pattern(self, pattern: List, k: int) -> None:
        """Replay ``k`` copies of a recorded epoch-advance pattern, one
        advance at a time (logs when the engine's log is active)."""
        timing = self.timing
        for _ in range(k):
            for c in pattern:
                timing.advance_epoch(c)

    def _replay_pattern_bulk(self, pattern: List, k: int) -> None:
        """Replay ``k`` copies with the log off; a uniform pattern
        collapses into one coalesced advance (bit-identical to stepping
        thanks to the engine's run-length epoch fold)."""
        first = pattern[0]
        if all(c == first for c in pattern):
            self.timing.advance_epoch(first, k * len(pattern))
        else:
            self._replay_pattern(pattern, k)

    def extrapolate(self, k: int, snap: _Snapshot) -> None:
        """Apply ``k`` more copies of the iteration that ran since
        ``snap`` in closed form."""
        timing = self.timing
        inst = self.instrument
        pattern = timing._epoch_log[snap.mark :]
        if pattern:
            if self.monitor_depth >= 2:
                # an enclosing monitor is recording: log every advance
                self._replay_pattern(pattern, k)
            else:
                saved = timing._epoch_log
                timing._epoch_log = None
                self._replay_pattern_bulk(pattern, k)
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
        monitor = self.eligible and n >= _MIN_MONITOR_TRIPS
        if not monitor:
            for value in values:
                scalars[var] = value
                for op in body:
                    op()
                timing.loop_rebase()
            if n >= _MIN_MONITOR_TRIPS:
                runner.stats.fallbacks += 1
            return

        runner.monitor_depth += 1
        try:
            # two-tier detection: a cheap clock-bytes probe every
            # iteration; the full signature only when the probe repeats.
            # Once two consecutive full signatures match, one more
            # *template* iteration runs under a snapshot and the rest is
            # applied in closed form — so the snapshot cost is paid once
            # per fired loop, not once per iteration.
            prev_clock = None
            pending_sig = None
            i = 0
            while i < n:
                scalars[var] = values[i]
                for op in body:
                    op()
                timing.loop_rebase()
                i += 1
                if n - i < 2:
                    continue
                clock_bytes = timing.clock.tobytes()
                if clock_bytes == prev_clock:
                    sig = runner.signature(exclude=var)
                    if sig == pending_sig:
                        snap = _Snapshot(runner)
                        scalars[var] = values[i]
                        for op in body:
                            op()
                        timing.loop_rebase()
                        i += 1
                        k = n - i
                        runner.extrapolate(k, snap)
                        runner.stats.extrapolated_trips += k
                        runner.stats.extrapolated_loops += 1
                        scalars[var] = values[-1]
                        return
                    pending_sig = sig
                else:
                    pending_sig = None
                prev_clock = clock_bytes
            runner.stats.fallbacks += 1
        finally:
            runner.monitor_depth -= 1


class _RepeatOp:
    __slots__ = ("runner", "body", "cond", "cap")

    def __init__(self, runner, body, cond, cap) -> None:
        self.runner = runner
        self.body = body
        self.cond = cond
        self.cap = cap

    def __call__(self) -> None:
        runner = self.runner
        timing = runner.timing
        cap = self.cap
        cond = self.cond
        body = self.body
        capped_msg = f"repeat loop capped at {cap} trips without converging"
        runner.monitor_depth += 1
        try:
            trips = 0
            prev_clock = None
            pending_sig = None
            while True:
                for op in body:
                    op()
                timing.loop_rebase()
                trips += 1
                if bool(cond()):
                    break
                if trips >= cap:
                    runner.instrument.warn(capped_msg)
                    break
                clock_bytes = timing.clock.tobytes()
                if clock_bytes == prev_clock:
                    # full state (including every scalar) repeated and
                    # the condition held false both times: the loop can
                    # never converge — run one template iteration, then
                    # jump to the cap in closed form
                    sig = runner.signature(exclude=None)
                    if sig == pending_sig:
                        snap = _Snapshot(runner)
                        for op in body:
                            op()
                        timing.loop_rebase()
                        trips += 1
                        if bool(cond()):  # pragma: no cover - determinism
                            break
                        if trips >= cap:
                            runner.instrument.warn(capped_msg)
                            break
                        k = cap - trips
                        runner.extrapolate(k, snap)
                        runner.stats.extrapolated_trips += k
                        runner.stats.extrapolated_loops += 1
                        runner.instrument.warn(capped_msg)
                        break
                    pending_sig = sig
                else:
                    pending_sig = None
                prev_clock = clock_bytes
        finally:
            runner.monitor_depth -= 1


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------


class _Lowerer:
    """One-time translation of an IR body into flat op lists.

    ``sim`` is the owning :class:`repro.runtime.executor._Simulation`
    (duck-typed: needs ``timing``, ``instrument``, ``scalars``,
    ``machine``, ``plans``, ``layout``, ``scalar_eval``,
    ``repeat_cap``)."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.timing = sim.timing
        self.machine = sim.machine
        self.scalars = sim.scalars
        self.reduce_hook = sim.scalar_eval.reduce_hook
        self.runner = self._make_runner(sim)
        self._comm_dispatch = {
            CallKind.SR: self.timing._do_send,
            CallKind.DN: self.timing._do_complete,
            CallKind.DR: self.timing._do_pre,
            CallKind.SV: self.timing._do_volatile,
        }

    def _make_runner(self, sim) -> _Runner:
        """Hook for subclasses that pair the lowerer with a different
        runner (the batched evaluator's `_BatchRunner`)."""
        return _Runner(sim.timing, sim.instrument, sim.scalars, sim.repeat_cap)

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
            tree_time = self.machine.reduction.time(self.machine.nprocs)
            for node in ir.walk_expr(stmt.expr):
                if isinstance(node, ir.IRReduce):
                    part = timing.reduction_cost(
                        ir.expr_flops(node.operand),
                        self.sim.layout.element_counts(node.region),
                    )
                    ops.append(
                        partial(timing.charge_reduction_vec, part, tree_time)
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
            prim_name = self.machine.binding.primitive(stmt.kind)
            prim = self.machine.primitive(prim_name)
            if stmt.kind is CallKind.SR:
                # warm the per-plan primitive cost vectors
                plan.prim_vectors(prim, self.machine.network)
            ops.append(
                partial(self._comm_dispatch[stmt.kind], plan, prim, prim_name)
            )
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
