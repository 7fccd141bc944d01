"""Sequential reference evaluator.

Executes the *communication-free* lowered IR on whole global arrays —
the semantics of the source program with no distribution at all.  Every
correctness test compares a distributed simulation against this oracle:
if an optimization pass removes or misplaces a transfer, the distributed
run reads stale fluff and diverges.

The evaluator intentionally shares no code with the distributed
interpreter beyond the IR definitions, so a bug in one cannot hide in
the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

import numpy as np

from repro.errors import RuntimeFault
from repro.ir import nodes as ir
from repro.lang.regions import Region

Number = Union[int, float, bool]


@dataclass
class ReferenceResult:
    """Global arrays and final scalars of a sequential run."""

    arrays: Dict[str, np.ndarray]
    origins: Dict[str, tuple]
    scalars: Dict[str, Number]
    warnings: List[str] = field(default_factory=list)

    def array(self, name: str) -> np.ndarray:
        return self.arrays[name]


class _Reference:
    def __init__(self, program: ir.IRProgram) -> None:
        self.program = program
        self.arrays: Dict[str, np.ndarray] = {}
        self.origins: Dict[str, tuple] = {}
        self.warnings: List[str] = []
        for name, (domain, _fluff) in program.arrays.items():
            self.arrays[name] = np.zeros(domain.shape, dtype=np.float64)
            self.origins[name] = domain.lows
        self.scalars: Dict[str, Number] = dict(program.config_values)
        for name in program.scalars:
            self.scalars[name] = 0.0

    # ------------------------------------------------------------------
    def run(self) -> ReferenceResult:
        self._body(self.program.body)
        scalars_out = {
            k: v for k, v in self.scalars.items() if k in self.program.scalars
        }
        return ReferenceResult(
            arrays=self.arrays,
            origins=self.origins,
            scalars=scalars_out,
            warnings=self.warnings,
        )

    def _body(self, body) -> None:
        for stmt in body:
            if isinstance(stmt, ir.Block):
                for s in stmt.stmts:
                    if isinstance(s, ir.CommCall):
                        continue  # no distribution: communication is moot
                    if isinstance(s, ir.ArrayAssign):
                        self._array_assign(s)
                    else:
                        self._scalar_assign(s)
            elif isinstance(stmt, ir.ForLoop):
                lo = int(self._scalar(stmt.low))
                hi = int(self._scalar(stmt.high))
                step = int(self._scalar(stmt.step)) if stmt.step else 1
                if step == 0:
                    raise RuntimeFault(f"for {stmt.var}: zero step")
                stop = hi + (1 if step > 0 else -1)
                for v in range(lo, stop, step):
                    self.scalars[stmt.var] = v
                    self._body(stmt.body)
            elif isinstance(stmt, ir.RepeatLoop):
                trips = 0
                while True:
                    self._body(stmt.body)
                    trips += 1
                    if bool(self._scalar(stmt.cond)):
                        break
                    if trips >= stmt.max_trips:
                        self.warnings.append(
                            f"repeat loop capped at {stmt.max_trips} trips"
                        )
                        break
            elif isinstance(stmt, ir.IfStmt):
                taken = False
                for cond, arm in stmt.arms:
                    if bool(self._scalar(cond)):
                        self._body(arm)
                        taken = True
                        break
                if not taken:
                    self._body(stmt.orelse)
            else:  # pragma: no cover - defensive
                raise RuntimeFault(f"cannot execute {stmt!r}")

    # ------------------------------------------------------------------
    def _view(self, name: str, box: Region) -> np.ndarray:
        return self.arrays[name][box.slices_within(self.origins[name])]

    def _view_wrap(self, name: str, box: Region) -> np.ndarray:
        """Periodic read: indices fold back modulo the domain extent."""
        data = self.arrays[name]
        origin = self.origins[name]
        indices = [
            (np.arange(lo, hi + 1) - org) % extent
            for (lo, hi), org, extent in zip(
                box.bounds(), origin, data.shape
            )
        ]
        return data[np.ix_(*indices)]

    def _array_assign(self, stmt: ir.ArrayAssign) -> None:
        value = self._parallel(stmt.expr, stmt.region)
        dest = self._view(stmt.target, stmt.region)
        if isinstance(value, np.ndarray) and np.shares_memory(
            value, self.arrays[stmt.target]
        ):
            value = value.copy()
        dest[...] = value

    def _scalar_assign(self, stmt: ir.ScalarAssign) -> None:
        self.scalars[stmt.target] = self._scalar(stmt.expr)

    def _parallel(self, expr: ir.IRExpr, region: Region):
        if isinstance(expr, ir.IRConst):
            return float(expr.value) if not isinstance(expr.value, bool) else expr.value
        if isinstance(expr, ir.IRScalarRead):
            return self.scalars[expr.name]
        if isinstance(expr, ir.IRIndex):
            d = expr.dim - 1
            lo, hi = region.lows[d], region.highs[d]
            shape = [1] * region.rank
            shape[d] = hi - lo + 1
            return np.arange(lo, hi + 1, dtype=np.float64).reshape(shape)
        if isinstance(expr, ir.IRArrayRead):
            box = region if expr.direction is None else region.shifted(expr.direction)
            if expr.wrap:
                return self._view_wrap(expr.array, box)
            return self._view(expr.array, box)
        if isinstance(expr, ir.IRBin):
            a = self._parallel(expr.lhs, region)
            b = self._parallel(expr.rhs, region)
            return _apply_bin(expr.op, a, b)
        if isinstance(expr, ir.IRUn):
            v = self._parallel(expr.operand, region)
            return np.logical_not(v) if expr.op == "not" else -v
        if isinstance(expr, ir.IRIntrinsic):
            args = [self._parallel(a, region) for a in expr.args]
            return _apply_intrinsic(expr.func, args)
        raise RuntimeFault(f"cannot evaluate {expr!r}")

    def _scalar(self, expr: ir.IRExpr) -> Number:
        if isinstance(expr, ir.IRConst):
            return expr.value
        if isinstance(expr, ir.IRScalarRead):
            return self.scalars[expr.name]
        if isinstance(expr, ir.IRReduce):
            value = self._parallel(expr.operand, expr.region)
            if not isinstance(value, np.ndarray):
                if expr.op == "+":
                    return float(value) * expr.region.size
                if expr.op == "*":
                    return float(value) ** expr.region.size
                return float(value)
            op = {"+": np.sum, "*": np.prod, "max": np.max, "min": np.min}[expr.op]
            return float(op(value))
        if isinstance(expr, ir.IRBin):
            a, b = self._scalar(expr.lhs), self._scalar(expr.rhs)
            if expr.op == "/" and isinstance(a, int) and isinstance(b, int):
                return a // b
            return _apply_bin(expr.op, a, b)
        if isinstance(expr, ir.IRUn):
            v = self._scalar(expr.operand)
            return (not v) if expr.op == "not" else -v
        if isinstance(expr, ir.IRIntrinsic):
            args = [self._scalar(a) for a in expr.args]
            out = _apply_intrinsic(expr.func, args)
            return float(out) if isinstance(out, np.generic) else out
        raise RuntimeFault(f"cannot evaluate {expr!r}")


_BIN = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "^": lambda a, b: a**b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "and": lambda a, b: np.logical_and(a, b),
    "or": lambda a, b: np.logical_or(a, b),
}

_FUNCS = {
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


def _apply_bin(op, a, b):
    return _BIN[op](a, b)


def _apply_intrinsic(func, args):
    return _FUNCS[func](*args)


def reference_run(program: ir.IRProgram) -> ReferenceResult:
    """Execute ``program`` sequentially on global arrays.

    Accepts lowered or optimized programs (communication calls are
    skipped — a single address space needs none)."""
    return _Reference(program).run()
