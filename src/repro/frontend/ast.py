"""Abstract syntax tree for ZL.

The AST mirrors ZL source structure closely; all resolution (names, types,
regions, communication) happens in later phases.  Nodes are plain
dataclasses carrying a :class:`~repro.frontend.source.SourceLocation`.

Node taxonomy
-------------

Declarations
    :class:`ConfigDecl`, :class:`RegionDecl`, :class:`DirectionDecl`,
    :class:`VarDecl`, :class:`ProcedureDecl`.

Expressions
    literals (:class:`IntLit`, :class:`FloatLit`, :class:`BoolLit`),
    :class:`NameRef` (scalar or array — disambiguated semantically),
    :class:`ShiftRef` (``A@east``), :class:`BinOp`, :class:`UnOp`,
    :class:`Call` (intrinsics like ``sqrt``), and :class:`Reduce`
    (``max<< expr`` — a full reduction producing a replicated scalar).

Statements
    :class:`Assign`, :class:`RegionScope` (``[R] stmt`` /
    ``[R] begin..end``), :class:`For`, :class:`Repeat`, :class:`If`,
    :class:`CallStmt` (procedure invocation — always inlined during
    lowering).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.frontend.source import SourceLocation, UNKNOWN_LOCATION


@dataclass
class Node:
    """Base class for all AST nodes."""

    location: SourceLocation = field(default=UNKNOWN_LOCATION, kw_only=True)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expressions."""


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class FloatLit(Expr):
    value: float


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class NameRef(Expr):
    """A bare identifier: a scalar variable, config constant, loop
    variable, parallel array, or one of the ``index1..index3`` builtins.
    Semantic analysis classifies it."""

    name: str


@dataclass
class ShiftRef(Expr):
    """``array @ direction`` — the sole source of point-to-point
    communication in ZL.  ``wrap`` marks the periodic form
    ``array @@ direction`` (ZPL's wrap-@): indices that fall off the
    array's domain wrap around to the opposite edge."""

    array: str
    direction: str
    wrap: bool = False


@dataclass
class BinOp(Expr):
    """Binary operation.  ``op`` is one of ``+ - * / ^ = != < <= > >= and
    or``."""

    op: str
    lhs: Expr
    rhs: Expr


@dataclass
class UnOp(Expr):
    """Unary operation: ``-`` or ``not``."""

    op: str
    operand: Expr


@dataclass
class Call(Expr):
    """Intrinsic function application (``sqrt``, ``abs``, ``exp``, ``min``,
    ``max``, ...)."""

    func: str
    args: List[Expr]


@dataclass
class Reduce(Expr):
    """Full reduction over the enclosing region scope: ``op<< expr``.

    ``op`` is ``+``, ``*``, ``max`` or ``min``.  The result is a scalar
    replicated on every processor (the runtime implements it as a
    tree-combine followed by a broadcast)."""

    op: str
    operand: Expr


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    """Base class for statements."""


@dataclass
class Assign(Stmt):
    """``target := expr;``  The target may be a scalar or an array; an
    array target executes over the enclosing region scope."""

    target: str
    value: Expr


@dataclass
class RegionScope(Stmt):
    """``[R] stmt`` or ``[R] begin ... end`` — sets the region scope for
    the contained statements (scopes nest; the innermost wins)."""

    region: str
    body: List[Stmt]


@dataclass
class For(Stmt):
    """Sequential counted loop.  The loop variable is an integer scalar
    implicitly declared for the loop body."""

    var: str
    low: Expr
    high: Expr
    step: Optional[Expr]
    body: List[Stmt]


@dataclass
class Repeat(Stmt):
    """``repeat body until cond;`` — body executes at least once."""

    body: List[Stmt]
    cond: Expr


@dataclass
class If(Stmt):
    """``if c then ... {elsif c then ...} [else ...] end;``

    ``arms`` holds ``(condition, body)`` pairs in source order; ``orelse``
    is the final else body (possibly empty)."""

    arms: List[Tuple[Expr, List[Stmt]]]
    orelse: List[Stmt]


@dataclass
class CallStmt(Stmt):
    """Invocation of a user procedure (no arguments in ZL).  Lowering
    inlines the callee body at the call site."""

    proc: str


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------


@dataclass
class Decl(Node):
    """Base class for top-level declarations."""


@dataclass
class ConfigDecl(Decl):
    """``config n : integer = 128;`` — a compile-time constant that may be
    overridden when the program is compiled (the paper's problem sizes)."""

    name: str
    type_name: str
    default: Expr


@dataclass
class RegionDecl(Decl):
    """``region R = [1..n, 1..n];``  Bounds are integer expressions over
    config constants, evaluated at compile time."""

    name: str
    ranges: List[Tuple[Expr, Expr]]


@dataclass
class DirectionDecl(Decl):
    """``direction east = [0, 1];``  Offsets are literal integers
    (optionally negated)."""

    name: str
    offsets: List[int]


@dataclass
class VarDecl(Decl):
    """``var A, B : [R] double;`` declares parallel arrays over region R;
    without the ``[R]`` part it declares replicated scalars."""

    names: List[str]
    region: Optional[str]
    type_name: str


@dataclass
class ProcedureDecl(Decl):
    """``procedure name(); begin ... end;``"""

    name: str
    body: List[Stmt]


# ---------------------------------------------------------------------------
# program
# ---------------------------------------------------------------------------


@dataclass
class Program(Node):
    """A parsed ZL program: ordered declarations plus a procedure table.

    ``main`` names the entry procedure (ZL requires one named ``main``)."""

    name: str
    configs: List[ConfigDecl]
    regions: List[RegionDecl]
    directions: List[DirectionDecl]
    variables: List[VarDecl]
    procedures: Dict[str, ProcedureDecl]
    main: str = "main"


# ---------------------------------------------------------------------------
# traversal helpers
# ---------------------------------------------------------------------------


def expr_children(expr: Expr) -> List[Expr]:
    """Immediate sub-expressions of ``expr`` (empty for leaves)."""
    if isinstance(expr, BinOp):
        return [expr.lhs, expr.rhs]
    if isinstance(expr, UnOp):
        return [expr.operand]
    if isinstance(expr, Call):
        return list(expr.args)
    if isinstance(expr, Reduce):
        return [expr.operand]
    return []


def walk_expr(expr: Expr):
    """Yield ``expr`` and all sub-expressions, pre-order."""
    yield expr
    for child in expr_children(expr):
        yield from walk_expr(child)


def stmt_children(stmt: Stmt) -> List[Stmt]:
    """Immediate sub-statements of ``stmt``."""
    if isinstance(stmt, RegionScope):
        return list(stmt.body)
    if isinstance(stmt, For):
        return list(stmt.body)
    if isinstance(stmt, Repeat):
        return list(stmt.body)
    if isinstance(stmt, If):
        out: List[Stmt] = []
        for _, body in stmt.arms:
            out.extend(body)
        out.extend(stmt.orelse)
        return out
    return []


def walk_stmts(stmts: List[Stmt]):
    """Yield every statement in ``stmts``, recursively, pre-order."""
    for stmt in stmts:
        yield stmt
        yield from walk_stmts(stmt_children(stmt))

