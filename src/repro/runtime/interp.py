"""Expression evaluation over distributed blocks.

The parallel evaluator computes an IR expression for one processor over
one execution box (the intersection of the statement's region scope with
the processor's owned block).  Array reads resolve to NumPy views of the
local buffer; shifted reads resolve to views displaced into fluff.  A
scalar evaluator handles replicated scalar expressions, delegating
reductions back to the parallel evaluator.

NUMERIC work is *bound* once per run.  The first time an array
statement, a reduction or a transfer runs, the parallel evaluator
resolves each processor's box, the target view, every operand view and
every ``indexK`` array, and turns the expression into a closure tree
over them (:meth:`ParallelEvaluator.bind`).  A transfer binds a
(source view, destination view) pair per strip, read straight off the
plan's strip arrays (:attr:`~repro.runtime.transfers.TransferPlan.strips`);
SR snapshots the sources in that order and DN delivers by position.
Every later execution only calls the closures or copies through the
views.  The views stay valid because a
:class:`~repro.runtime.distarray.DistArray` allocates each block buffer
once and every write goes into a buffer in place.  Scalars are read when
a closure runs, not when it is bound, so loop variables and assigned
scalars are always current.

Evaluation never consults remote blocks: if a shifted read touches fluff
that no transfer filled (because the optimizer dropped a needed
communication), the evaluator happily reads stale zeros and the result
diverges from the sequential reference — by design.
"""

from __future__ import annotations

import math
import operator
from functools import partial
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

from repro.errors import RuntimeFault
from repro.ir import nodes as ir
from repro.lang.regions import Region

Number = Union[int, float, bool]
Value = Union[Number, np.ndarray]

_BIN_OPS: Dict[str, Callable] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "and": np.logical_and,
    "or": np.logical_or,
}

_INTRINSICS: Dict[str, Callable] = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "ln": np.log,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
    "floor": np.floor,
    "ceil": np.ceil,
    "sign": np.sign,
    "min": np.minimum,
    "max": np.maximum,
    "pow": np.power,
}

#: reduction op -> (numpy reducer over an array, pairwise combiner, identity)
_REDUCERS = {
    "+": (np.sum, lambda a, b: a + b, 0.0),
    "*": (np.prod, lambda a, b: a * b, 1.0),
    "max": (np.max, max, -math.inf),
    "min": (np.min, min, math.inf),
}


def _read_scalar(scalars: Dict[str, Number], name: str) -> Number:
    try:
        return scalars[name]
    except KeyError:
        raise RuntimeFault(f"unbound scalar {name!r}") from None


# A bound node is a partial over one of these (or over the operator
# itself when every operand is fixed): the operator applied to its
# operands, calling the ones that are closures.
def _fixed(value: Value) -> Value:
    return value


def _both(op: Callable, lhs: Callable, rhs: Callable) -> Value:
    return op(lhs(), rhs())


def _left(op: Callable, lhs: Callable, *rhs: Value) -> Value:
    return op(lhs(), *rhs)


def _right(op: Callable, lhs: Value, rhs: Callable) -> Value:
    return op(lhs, rhs())


def _apply(func: Callable, args: tuple) -> Value:
    return func(*[arg() if callable(arg) else arg for arg in args])


class ParallelEvaluator:
    """Evaluates parallel expressions per processor and does a NUMERIC
    run's data work: array statements, reductions and transfer copies,
    each bound once per run at its first execution.

    ``arrays`` maps names to :class:`~repro.runtime.distarray.DistArray`;
    ``scalars`` is the replicated scalar environment (shared object,
    mutated by the executor)."""

    def __init__(self, arrays, scalars: Dict[str, Number], layout) -> None:
        self.arrays = arrays
        self.scalars = scalars
        self.layout = layout
        #: id(node) -> (node, its bound form); holding the node keeps
        #: its id from being reused while the evaluator lives
        self._bound: Dict[int, Tuple[object, list]] = {}
        #: the SR's descriptor id -> payloads snapshotted at SR (its plan
        #: may serve other descriptors, with their own payloads)
        self._payloads: Dict[int, List[np.ndarray]] = {}

    # ------------------------------------------------------------------
    def bind(self, expr: ir.IRExpr, proc: int, box: Region) -> Callable[[], Value]:
        """``expr`` for processor ``proc`` over ``box`` (global
        coordinates, nonempty) as a closure: its views and ``indexK``
        arrays are resolved now, its scalars are read when it runs.  The
        closure returns an ndarray of ``box.shape`` or a scalar
        (broadcast)."""
        node = self._bind(expr, proc, box)
        return node if callable(node) else partial(_fixed, node)

    def _bind(self, expr: ir.IRExpr, proc: int, box: Region):
        """A closure over ``expr``'s operands, or the operand itself
        where it is fixed at binding (a view, a constant, an ``indexK``
        array; none of them is callable).  Closures are partials, which
        retain fewer collector-tracked objects than lambdas."""
        if isinstance(expr, ir.IRBin):
            op = _BIN_OPS[expr.op]
            lhs, rhs = self._bind(expr.lhs, proc, box), self._bind(expr.rhs, proc, box)
            if callable(lhs):
                return partial(_both if callable(rhs) else _left, op, lhs, rhs)
            return partial(_right, op, lhs, rhs) if callable(rhs) else partial(op, lhs, rhs)
        if isinstance(expr, ir.IRArrayRead):
            read_box = box if expr.direction is None else box.shifted(expr.direction)
            return self.arrays[expr.array].block(proc).view(read_box)
        if isinstance(expr, ir.IRConst):
            return expr.value if isinstance(expr.value, bool) else float(expr.value)
        if isinstance(expr, ir.IRScalarRead):
            return partial(_read_scalar, self.scalars, expr.name)
        if isinstance(expr, ir.IRIndex):
            return _index_values(box, expr.dim)
        if isinstance(expr, ir.IRUn):
            operand = self._bind(expr.operand, proc, box)
            negate = np.logical_not if expr.op == "not" else operator.neg
            return partial(_left, negate, operand) if callable(operand) else partial(negate, operand)
        if isinstance(expr, ir.IRIntrinsic):
            func = _INTRINSICS[expr.func]
            args = tuple(self._bind(a, proc, box) for a in expr.args)
            return partial(_apply, func, args)
        raise RuntimeFault(f"cannot evaluate {expr!r} in parallel context")

    def eval(self, expr: ir.IRExpr, proc: int, box: Region) -> Value:
        """Evaluate ``expr`` for processor ``proc`` over ``box`` once."""
        return self.bind(expr, proc, box)()

    # ------------------------------------------------------------------
    def assign(self, stmt: ir.ArrayAssign) -> None:
        """Store ``stmt``'s value into its target's owned cells."""
        for dest, value_of, data in self._once(stmt, self._bind_assign):
            value = value_of()
            # a bare read of the target can alias the cells it writes
            if data is not None and isinstance(value, np.ndarray) and np.shares_memory(value, data):
                value = value.copy()
            dest[...] = value

    def reduce(self, reduce_expr: ir.IRReduce) -> float:
        """Evaluate a full reduction across all processors."""
        reducer, combiner, identity = _REDUCERS[reduce_expr.op]
        acc = identity
        for value_of, size in self._once(reduce_expr, self._bind_reduce):
            local = value_of()
            if isinstance(local, np.ndarray):
                if local.size == 0:
                    continue
                part = float(reducer(local))
            else:
                # scalar operand broadcast over the box
                if reduce_expr.op == "+":
                    part = float(local) * size
                elif reduce_expr.op == "*":
                    part = float(local) ** size
                else:
                    part = float(local)
            acc = combiner(acc, part)
        return float(acc)

    def snapshot(self, desc: ir.CommDescriptor, plan) -> None:
        """Copy out what the SR of ``desc`` sends on ``plan``: each of its
        strips, in strip order."""
        self._payloads[desc.id] = [
            source.copy() for source, _ in self._once(plan, self._bind_copies)
        ]

    def deliver(self, desc: ir.CommDescriptor, plan) -> None:
        """Write the payloads of ``desc``'s SR into the receivers' fluff."""
        payloads = self._payloads.pop(desc.id, None)
        if payloads is None:  # pragma: no cover - timing engine raises first
            raise RuntimeFault(f"delivery of {desc.describe()} before initiation")
        for (_, dest), payload in zip(self._once(plan, self._bind_copies), payloads):
            dest[...] = payload

    # ------------------------------------------------------------------
    def _once(self, node, bind: Callable[[object], list]) -> list:
        """``bind(node)``, computed on the first call for ``node``."""
        entry = self._bound.get(id(node))
        if entry is None:
            entry = self._bound[id(node)] = (node, bind(node))
        return entry[1]

    def _boxes(self, region: Region) -> List[Tuple[int, Region]]:
        """``(proc, box)`` for each processor that owns part of
        ``region``, in rank order: the region clipped to every owned
        block at once."""
        lows, highs = self.layout.block_bounds(region.rank)
        lows = np.maximum(lows, region.lows)
        highs = np.minimum(highs, region.highs)
        return [
            (proc, Region(region.name, tuple(lows[proc].tolist()), tuple(highs[proc].tolist())))
            for proc in np.flatnonzero((highs >= lows).all(axis=1)).tolist()
        ]

    def _bind_assign(self, stmt: ir.ArrayAssign) -> list:
        """``(target view, value closure, target buffer or None)`` per
        processor; the buffer is kept only where the target is read."""
        target = self.arrays[stmt.target]
        may_alias = stmt.target in ir.arrays_read(stmt.expr)
        bound = []
        for proc, box in self._boxes(stmt.region):
            value_of = self.bind(stmt.expr, proc, box)
            block = target.block(proc)
            bound.append((block.view(box), value_of, block.data if may_alias else None))
        return bound

    def _bind_reduce(self, reduce_expr: ir.IRReduce) -> list:
        """``(operand closure, box size)`` per processor."""
        return [
            (self.bind(reduce_expr.operand, proc, box), box.size)
            for proc, box in self._boxes(reduce_expr.region)
        ]

    def _bind_copies(self, plan) -> list:
        """``(source view, destination view)`` of every strip of
        ``plan``, in strip order: by entry and strip class, then by
        receiver."""
        return [
            (
                self.arrays[s.array].block(sender).view(Region(s.array, src_lo, src_hi)),
                self.arrays[s.array].block(receiver).view(Region(s.array, lo, hi)),
            )
            for s in plan.strips
            for sender, receiver, lo, hi, src_lo, src_hi in zip(
                s.senders.tolist(),
                s.receivers.tolist(),
                s.lows.tolist(),
                s.highs.tolist(),
                s.src_lows.tolist(),
                s.src_highs.tolist(),
            )
        ]


class ScalarEvaluator:
    """Evaluates replicated scalar expressions (conditions, loop bounds,
    scalar assignments).  ``reduce_hook`` supplies the value of embedded
    reductions: the numeric executor wires it to
    :meth:`ParallelEvaluator.reduce`; the timing-only executor supplies a
    constant and records a warning."""

    def __init__(
        self,
        scalars: Dict[str, Number],
        reduce_hook: Callable[[ir.IRReduce], float],
    ) -> None:
        self.scalars = scalars
        self.reduce_hook = reduce_hook

    def eval(self, expr: ir.IRExpr) -> Number:
        if isinstance(expr, ir.IRConst):
            return expr.value
        if isinstance(expr, ir.IRScalarRead):
            return _read_scalar(self.scalars, expr.name)
        if isinstance(expr, ir.IRReduce):
            return self.reduce_hook(expr)
        if isinstance(expr, ir.IRBin):
            a, b = self.eval(expr.lhs), self.eval(expr.rhs)
            if expr.op == "/" and isinstance(a, int) and isinstance(b, int):
                # ZL integer division truncates (used for index arithmetic)
                return a // b
            return _BIN_OPS[expr.op](a, b)
        if isinstance(expr, ir.IRUn):
            v = self.eval(expr.operand)
            return (not v) if expr.op == "not" else -v
        if isinstance(expr, ir.IRIntrinsic):
            args = [self.eval(a) for a in expr.args]
            out = _INTRINSICS[expr.func](*args)
            return float(out) if isinstance(out, np.generic) else out
        raise RuntimeFault(f"cannot evaluate {expr!r} in scalar context")


def _index_values(box: Region, dim: int) -> np.ndarray:
    """The ``indexK`` builtin over a box: each point's coordinate in
    dimension ``dim`` (1-based), shaped for broadcasting."""
    d = dim - 1
    lo, hi = box.lows[d], box.highs[d]
    values = np.arange(lo, hi + 1, dtype=np.float64)
    shape = [1] * box.rank
    shape[d] = hi - lo + 1
    return values.reshape(shape)
