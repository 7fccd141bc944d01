"""Unit tests for AST -> IR lowering."""

from repro import compile_program
from repro.ir import nodes as ir


def lower_src(body, decls="", config=None):
    src = f"""
    program p;
    config n : integer = 8;
    region R  = [1..n, 1..n];
    region In = [2..n-1, 2..n-1];
    direction east = [0, 1];
    direction west = [0, -1];
    var A, B, C : [R] double;
    var s, t : double;
    {decls}
    procedure main(); begin {body} end;
    """
    return compile_program(src, "p.zl", config=config)


class TestBlockFormation:
    def test_consecutive_statements_share_a_block(self):
        prog = lower_src("[R] A := 1.0; [R] B := 2.0; s := 3.0;")
        assert len(prog.body) == 1
        assert isinstance(prog.body[0], ir.Block)
        assert len(prog.body[0].stmts) == 3

    def test_region_scope_does_not_break_blocks(self):
        prog = lower_src("[R] A := 1.0; [In] B := 2.0; [R] C := 3.0;")
        assert len(prog.body) == 1

    def test_for_loop_breaks_blocks(self):
        prog = lower_src(
            "[R] A := 1.0; for i := 1 to 2 do [R] B := i; end; [R] C := 1.0;"
        )
        kinds = [type(s).__name__ for s in prog.body]
        assert kinds == ["Block", "ForLoop", "Block"]

    def test_if_breaks_blocks(self):
        prog = lower_src("[R] A := 1.0; if s > 0.0 then [R] B := 1.0; end;")
        kinds = [type(s).__name__ for s in prog.body]
        assert kinds == ["Block", "IfStmt"]

    def test_procedure_call_bounds_blocks(self):
        prog = lower_src(
            "[R] A := 1.0; init(); [R] C := 1.0;",
            decls="procedure init(); begin [R] B := 2.0; end;",
        )
        # inlined body is its own block: three blocks total
        blocks = [s for s in prog.body if isinstance(s, ir.Block)]
        assert len(blocks) == 3
        assert blocks[1].core_stmts()[0].target == "B"

    def test_nested_region_scopes_innermost_wins(self):
        prog = lower_src("[R] begin [In] A := 1.0; end;")
        stmt = prog.body[0].stmts[0]
        assert stmt.region.name == "In"


class TestExpressionLowering:
    def test_shift_ref_resolved_to_direction(self):
        prog = lower_src("[In] B := A@east;")
        stmt = prog.body[0].stmts[0]
        read = stmt.expr
        assert isinstance(read, ir.IRArrayRead)
        assert read.direction.offsets == (0, 1)

    def test_unshifted_read_has_no_direction(self):
        prog = lower_src("[R] B := A;")
        assert prog.body[0].stmts[0].expr.direction is None

    def test_index_builtin(self):
        prog = lower_src("[R] A := index2;")
        assert isinstance(prog.body[0].stmts[0].expr, ir.IRIndex)
        assert prog.body[0].stmts[0].expr.dim == 2

    def test_scalar_read(self):
        prog = lower_src("[R] A := s;")
        assert isinstance(prog.body[0].stmts[0].expr, ir.IRScalarRead)

    def test_config_read_is_scalar(self):
        prog = lower_src("[R] A := n * 1.0;")
        expr = prog.body[0].stmts[0].expr
        assert isinstance(expr.lhs, ir.IRScalarRead)
        assert expr.lhs.name == "n"

    def test_reduce_carries_region(self):
        prog = lower_src("[In] s := +<< A;")
        stmt = prog.body[0].stmts[0]
        assert isinstance(stmt, ir.ScalarAssign)
        assert isinstance(stmt.expr, ir.IRReduce)
        assert stmt.expr.region.name == "In"

    def test_fabs_normalized_to_abs(self):
        prog = lower_src("[R] A := fabs(B);")
        assert prog.body[0].stmts[0].expr.func == "abs"

    def test_flops_computed(self):
        prog = lower_src("[R] A := B * 2.0 + 1.0;")
        assert prog.body[0].stmts[0].flops == 3  # mul, add, store


class TestProgramMetadata:
    def test_arrays_carry_domain_and_fluff(self):
        prog = lower_src("[In] B := A@east - A@west;")
        domain, fluff = prog.arrays["A"]
        assert domain.shape == (8, 8)
        assert fluff == (0, 1)

    def test_scalars_listed(self):
        prog = lower_src("s := 1.0;")
        assert "s" in prog.scalars and "t" in prog.scalars

    def test_config_values_retained(self):
        prog = lower_src("[R] A := 1.0;", config={"n": 16})
        assert prog.config_values["n"] == 16

    def test_walk_blocks_covers_nested(self):
        prog = lower_src(
            "for i := 1 to 2 do [R] A := 1.0; if s > 0.0 then [R] B := 1.0; "
            "else [R] C := 1.0; end; end;"
        )
        assert len(list(prog.walk_blocks())) == 3

    def test_loop_bounds_lowered_as_scalars(self):
        prog = lower_src("for i := 1 to n do s := i; end;")
        loop = prog.body[0]
        assert isinstance(loop, ir.ForLoop)
        assert isinstance(loop.high, ir.IRScalarRead)


class TestExprHelpers:
    def test_expr_flops_counts_intrinsics_heavier(self):
        cheap = ir.IRIntrinsic("abs", [ir.IRConst(1.0)])
        costly = ir.IRIntrinsic("sqrt", [ir.IRConst(1.0)])
        assert ir.expr_flops(costly) > ir.expr_flops(cheap)

    def test_shifted_reads_in_order(self):
        prog = lower_src("[In] B := A@east * 2.0 + A@west;")
        reads = [
            node
            for node in ir.walk_expr(prog.body[0].stmts[0].expr)
            if isinstance(node, ir.IRArrayRead) and node.is_shifted
        ]
        assert [r.direction.name for r in reads] == ["east", "west"]

    def test_arrays_read_includes_unshifted(self):
        prog = lower_src("[In] B := A@east + C;")
        assert ir.arrays_read(prog.body[0].stmts[0].expr) == {"A", "C"}
