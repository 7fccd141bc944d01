"""Def/use analysis within a basic block.

All three communication optimizations reason about the same three facts
inside one :class:`~repro.ir.nodes.Block`:

* which statement *writes* which array,
* which statement *reads* which array with which shift,
* where a given array was last written before a given point.

:class:`BlockInfo` computes these once per block over the *core*
statements (communication calls excluded), indexing statements by their
position in :meth:`Block.core_stmts`.  Optimization passes place
communication relative to these core positions and only materialize
interleaved call lists at the end (see :mod:`repro.comm.schedule`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.ir import nodes as ir
from repro.lang.regions import Direction, Region


@dataclass(frozen=True)
class ShiftedUse:
    """One shifted array read in a statement.

    ``stmt_index`` is the position of the using statement among the core
    statements of the block; ``region`` is the region over which the use
    executes (the statement's region scope, or the reduction's region when
    the use sits inside a reduce); ``wrap`` marks a periodic read."""

    stmt_index: int
    array: str
    direction: Direction
    region: Region
    wrap: bool = False

    @property
    def key(self) -> Tuple[str, Tuple[int, ...], bool]:
        """Communication identity: array name + direction *offsets* (two
        direction names with equal offsets are the same communication) +
        the wrap flag (a periodic and a non-periodic shift move different
        data)."""
        return (self.array, self.direction.offsets, self.wrap)


def _expr_shifted_uses(
    expr: ir.IRExpr, region: Optional[Region]
) -> List[Tuple[str, Direction, Region, bool]]:
    """Shifted reads in ``expr``; ``region`` is the enclosing execution
    region (None only outside reductions in scalar context, where semantic
    analysis guarantees no shifted reads occur)."""
    out: List[Tuple[str, Direction, Region, bool]] = []
    if isinstance(expr, ir.IRArrayRead):
        if expr.is_shifted:
            assert region is not None, "shifted read outside a region"
            out.append((expr.array, expr.direction, region, expr.wrap))
        return out
    if isinstance(expr, ir.IRReduce):
        return _expr_shifted_uses(expr.operand, expr.region)
    for child in ir.expr_children(expr):
        out.extend(_expr_shifted_uses(child, region))
    return out


def stmt_shifted_uses(
    stmt: ir.IRStmt, stmt_index: int
) -> List[ShiftedUse]:
    """All shifted uses of a core statement, in textual order."""
    if isinstance(stmt, ir.ArrayAssign):
        raw = _expr_shifted_uses(stmt.expr, stmt.region)
    elif isinstance(stmt, ir.ScalarAssign):
        raw = _expr_shifted_uses(stmt.expr, None)
    else:
        return []
    return [
        ShiftedUse(stmt_index, array, direction, region, wrap)
        for array, direction, region, wrap in raw
    ]


def stmt_arrays_written(stmt: ir.IRStmt) -> Set[str]:
    """Arrays written by a core statement."""
    if isinstance(stmt, ir.ArrayAssign):
        return {stmt.target}
    return set()


def stmt_arrays_read(stmt: ir.IRStmt) -> Set[str]:
    """Arrays read (shifted or not) by a core statement."""
    if isinstance(stmt, (ir.ArrayAssign, ir.ScalarAssign)):
        return ir.arrays_read(stmt.expr)
    return set()


class BlockInfo:
    """Precomputed def/use facts for one basic block.

    Positions refer to the block's core statements: position ``i`` is
    *before* core statement ``i``; position ``len(core)`` is the end of
    the block.
    """

    def __init__(self, block: ir.Block) -> None:
        self.block = block
        self.core: List[ir.IRStmt] = block.core_stmts()
        self.writes: List[Set[str]] = [stmt_arrays_written(s) for s in self.core]
        self.reads: List[Set[str]] = [stmt_arrays_read(s) for s in self.core]
        self.shifted_uses: List[ShiftedUse] = []
        for i, stmt in enumerate(self.core):
            self.shifted_uses.extend(stmt_shifted_uses(stmt, i))

    # -- queries -----------------------------------------------------------
    def last_write_before(self, array: str, position: int) -> int:
        """Index of the last core statement strictly before ``position``
        that writes ``array``; -1 if none in this block."""
        for j in range(min(position, len(self.core)) - 1, -1, -1):
            if array in self.writes[j]:
                return j
        return -1

    def first_write_at_or_after(self, array: str, position: int) -> int:
        """Index of the first core statement at or after ``position`` that
        writes ``array``; ``len(core)`` if none."""
        for j in range(max(position, 0), len(self.core)):
            if array in self.writes[j]:
                return j
        return len(self.core)

    def written_between(self, array: str, start: int, end: int) -> bool:
        """True if ``array`` is written by any core statement with index in
        ``[start, end)``."""
        return any(
            array in self.writes[j]
            for j in range(max(start, 0), min(end, len(self.core)))
        )