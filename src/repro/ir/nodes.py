"""IR node definitions.

Two node families:

**Expressions** (:class:`IRExpr` subclasses) are fully resolved: array
reads carry :class:`~repro.lang.Direction` objects, reductions carry their
region, and scalar reads are plain names (the runtime holds one scalar
environment).

**Statements** come in *simple* and *structured* forms.  Simple statements
(:class:`ArrayAssign`, :class:`ScalarAssign`, :class:`CommCall`) live
inside :class:`Block` nodes; structured statements (:class:`ForLoop`,
:class:`RepeatLoop`, :class:`IfStmt`) contain bodies that are lists of
blocks and structured statements.  A :class:`Block` is a source-level
basic block — the communication optimizer never moves anything across a
``Block`` boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.ironman.calls import CallKind
from repro.lang.regions import Direction, Region

# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


@dataclass
class IRExpr:
    """Base class for IR expressions."""


@dataclass
class IRConst(IRExpr):
    """Literal constant (int, float or bool)."""

    value: Union[int, float, bool]


@dataclass
class IRScalarRead(IRExpr):
    """Read of a replicated scalar: variable, config constant or loop
    variable.  ``name`` is unique program-wide (loop variables are renamed
    at lowering if they would collide)."""

    name: str


@dataclass
class IRArrayRead(IRExpr):
    """Read of a parallel array, optionally shifted.

    ``direction is None`` for an unshifted read (never communicates);
    ``wrap`` marks a periodic shift (indices wrap at the domain edges).
    """

    array: str
    direction: Optional[Direction] = None
    wrap: bool = False

    @property
    def is_shifted(self) -> bool:
        return self.direction is not None and not self.direction.is_zero


@dataclass
class IRIndex(IRExpr):
    """The builtin ``indexK`` array: coordinate ``dim`` (1-based) of each
    point of the executing region."""

    dim: int


@dataclass
class IRBin(IRExpr):
    """Binary operation; ``op`` in ``+ - * / ^ = != < <= > >= and or``."""

    op: str
    lhs: IRExpr
    rhs: IRExpr


@dataclass
class IRUn(IRExpr):
    """Unary operation: ``-`` or ``not``."""

    op: str
    operand: IRExpr


@dataclass
class IRIntrinsic(IRExpr):
    """Intrinsic function application."""

    func: str
    args: List[IRExpr]


@dataclass
class IRReduce(IRExpr):
    """Full reduction of a parallel expression over ``region`` to a
    replicated scalar (``op`` in ``+ * max min``).  Executing one implies
    collective communication — counted separately from point-to-point
    communication, as in the paper."""

    op: str
    operand: IRExpr
    region: Region


def expr_children(expr: IRExpr) -> List[IRExpr]:
    """Immediate sub-expressions."""
    if isinstance(expr, IRBin):
        return [expr.lhs, expr.rhs]
    if isinstance(expr, IRUn):
        return [expr.operand]
    if isinstance(expr, IRIntrinsic):
        return list(expr.args)
    if isinstance(expr, IRReduce):
        return [expr.operand]
    return []


def walk_expr(expr: IRExpr) -> Iterator[IRExpr]:
    """Pre-order traversal of an expression tree."""
    yield expr
    for child in expr_children(expr):
        yield from walk_expr(child)


def expr_flops(expr: IRExpr) -> int:
    """Number of arithmetic operations per region point — the compute-cost
    weight used by the machine timing model."""
    count = 0
    for node in walk_expr(expr):
        if isinstance(node, (IRBin, IRUn)):
            count += 1
        elif isinstance(node, IRIntrinsic):
            # transcendentals are several flops; a flat small constant is
            # enough for relative timings
            count += 4 if node.func in ("sqrt", "exp", "ln", "log", "sin", "cos", "tanh", "pow") else 1
    return count


def arrays_read(expr: IRExpr) -> Set[str]:
    """Names of all arrays read anywhere in the expression."""
    return {
        node.array for node in walk_expr(expr) if isinstance(node, IRArrayRead)
    }


# ---------------------------------------------------------------------------
# communication descriptors
# ---------------------------------------------------------------------------

_desc_counter = itertools.count(1)


@dataclass
class CommEntry:
    """One (array, use-region) member of a communication.

    ``use_region`` is the region scope of the statement(s) the transferred
    data serves; the runtime derives the fluff strip from it.  When
    redundancy removal lets one transfer serve several uses, the entry's
    region is the bounding region of all served uses (conservative: at
    least the needed data moves)."""

    array: str
    use_region: Region


@dataclass
class CommDescriptor:
    """A single data transfer (one per *communication* in the paper's
    counting: "a set of calls to perform a single data transfer").

    A combined communication carries several entries — different arrays,
    one shared direction, hence one source and one destination processor.
    ``wrap`` marks a periodic transfer: edge processors exchange with the
    opposite edge (torus neighbours) instead of having no partner.
    """

    direction: Direction
    entries: List[CommEntry]
    wrap: bool = False
    id: int = field(default_factory=lambda: next(_desc_counter))

    @property
    def arrays(self) -> List[str]:
        return [e.array for e in self.entries]

    def describe(self) -> str:
        names = ", ".join(self.arrays)
        at = "@@" if self.wrap else "@"
        return f"comm#{self.id}({names} {at} {self.direction.name})"


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass
class IRStmt:
    """Base class for IR statements."""


@dataclass
class ArrayAssign(IRStmt):
    """Whole-array statement ``[region] target := expr``.

    ``flops`` caches :func:`expr_flops` of the right-hand side plus one
    for the store."""

    region: Region
    target: str
    expr: IRExpr
    flops: int = 0

    def __post_init__(self) -> None:
        if self.flops == 0:
            self.flops = expr_flops(self.expr) + 1


@dataclass
class ScalarAssign(IRStmt):
    """Replicated scalar assignment.  The RHS may contain reductions
    (which are collective operations at run time)."""

    target: str
    expr: IRExpr


@dataclass
class CommCall(IRStmt):
    """One IRONMAN call (DR, SR, DN, or SV) for one communication."""

    kind: CallKind
    desc: CommDescriptor

    def describe(self) -> str:
        return f"{self.kind.name}({', '.join(self.desc.arrays)}, {self.desc.direction.name})"


SimpleStmt = Union[ArrayAssign, ScalarAssign, CommCall]


@dataclass
class Block(IRStmt):
    """A source-level basic block: straight-line simple statements.

    This is the optimizer's unit of scope.  Structured statements never
    appear inside a Block."""

    stmts: List[SimpleStmt] = field(default_factory=list)

    def core_stmts(self) -> List[Union[ArrayAssign, ScalarAssign]]:
        """The non-communication statements, in order."""
        return [s for s in self.stmts if not isinstance(s, CommCall)]

    def comm_calls(self) -> List[CommCall]:
        return [s for s in self.stmts if isinstance(s, CommCall)]

    def descriptors(self) -> List[CommDescriptor]:
        """Distinct communication descriptors, in first-appearance order."""
        seen: Dict[int, CommDescriptor] = {}
        for call in self.comm_calls():
            seen.setdefault(call.desc.id, call.desc)
        return list(seen.values())


@dataclass
class ForLoop(IRStmt):
    """Sequential counted loop; bounds are scalar IR expressions evaluated
    once at entry."""

    var: str
    low: IRExpr
    high: IRExpr
    step: Optional[IRExpr]
    body: List[IRStmt]


@dataclass
class RepeatLoop(IRStmt):
    """``repeat body until cond`` with an iteration cap enforced by the
    runtime (``max_trips``) so timing-only runs terminate."""

    body: List[IRStmt]
    cond: IRExpr
    max_trips: int = 1_000_000


@dataclass
class IfStmt(IRStmt):
    """Multi-arm conditional over replicated scalars (all ranks take the
    same arm — SPMD control flow stays coherent)."""

    arms: List[Tuple[IRExpr, List[IRStmt]]]
    orelse: List[IRStmt]


@dataclass
class IRProgram:
    """A lowered SPMD program.

    Attributes
    ----------
    name:
        Source program name.
    body:
        Top-level statement list (blocks and structured statements).
    arrays:
        Array name -> (domain region, fluff widths per dim).
    scalars:
        All scalar variable names (loop variables excluded).
    config_values:
        The config bindings the program was compiled with.
    templates:
        The runtime's schedule templates of this program, one per
        machine shape (:func:`repro.runtime.schedule.schedule_template`),
        so they live exactly as long as the program.  Not compared.  A
        program must not change once it has been simulated: its
        templates would go stale.
    """

    name: str
    body: List[IRStmt]
    arrays: Dict[str, Tuple[Region, Tuple[int, ...]]]
    scalars: List[str]
    config_values: Dict[str, float]
    templates: Dict[Tuple[int, int], object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def walk_blocks(self) -> Iterator[Block]:
        """Yield every Block in the program, in textual order."""
        yield from _walk_blocks(self.body)

    def all_descriptors(self) -> List[CommDescriptor]:
        """Distinct communication descriptors across the whole program."""
        seen: Dict[int, CommDescriptor] = {}
        for block in self.walk_blocks():
            for desc in block.descriptors():
                seen.setdefault(desc.id, desc)
        return list(seen.values())


def _walk_blocks(body: Sequence[IRStmt]) -> Iterator[Block]:
    for stmt in body:
        if isinstance(stmt, Block):
            yield stmt
        elif isinstance(stmt, ForLoop):
            yield from _walk_blocks(stmt.body)
        elif isinstance(stmt, RepeatLoop):
            yield from _walk_blocks(stmt.body)
        elif isinstance(stmt, IfStmt):
            for _, arm_body in stmt.arms:
                yield from _walk_blocks(arm_body)
            yield from _walk_blocks(stmt.orelse)


def walk_body(body: Sequence[IRStmt]) -> Iterator[IRStmt]:
    """Yield every statement (structured and simple containers) pre-order."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, ForLoop):
            yield from walk_body(stmt.body)
        elif isinstance(stmt, RepeatLoop):
            yield from walk_body(stmt.body)
        elif isinstance(stmt, IfStmt):
            for _, arm_body in stmt.arms:
                yield from walk_body(arm_body)
            yield from walk_body(stmt.orelse)
