"""Unit tests for intra-block def/use analysis."""

from repro import compile_program
from repro.ir.analysis import BlockInfo


def block_of(body):
    src = f"""
    program p;
    config n : integer = 8;
    region R  = [1..n, 1..n];
    region In = [2..n-1, 2..n-1];
    direction east = [0, 1];
    direction west = [0, -1];
    var A, B, C : [R] double;
    var s : double;
    procedure main(); begin {body} end;
    """
    prog = compile_program(src, "p.zl")
    return prog.body[0]


class TestShiftedUses:
    def test_uses_in_textual_order(self):
        info = BlockInfo(block_of("[In] B := A@east; [In] C := A@west;"))
        assert [(u.stmt_index, u.direction.name) for u in info.shifted_uses] == [
            (0, "east"),
            (1, "west"),
        ]

    def test_duplicate_in_one_statement_listed_twice(self):
        # planning dedups per statement; analysis reports raw references
        info = BlockInfo(block_of("[In] B := A@east * A@east;"))
        assert len(info.shifted_uses) == 2

    def test_reduce_operand_uses_reduce_region(self):
        info = BlockInfo(block_of("[In] s := +<< (A@east - A);"))
        (use,) = info.shifted_uses
        assert use.region.name == "In"

    def test_key_uses_offsets_not_names(self):
        block = block_of("[In] B := A@east;")
        info = BlockInfo(block)
        (use,) = info.shifted_uses
        assert use.key == ("A", (0, 1), False)


class TestWrites:
    def test_last_write_before(self):
        info = BlockInfo(
            block_of("[R] A := 1.0; [R] B := A; [R] A := 2.0; [R] C := A;")
        )
        assert info.last_write_before("A", 1) == 0
        assert info.last_write_before("A", 3) == 2
        assert info.last_write_before("C", 2) == -1

    def test_first_write_at_or_after(self):
        info = BlockInfo(block_of("[R] B := A; [R] A := 1.0;"))
        assert info.first_write_at_or_after("A", 0) == 1
        assert info.first_write_at_or_after("A", 2) == 2  # = len(core)

    def test_written_between(self):
        info = BlockInfo(
            block_of("[R] B := A; [R] A := 1.0; [R] C := A;")
        )
        assert info.written_between("A", 0, 2)
        assert not info.written_between("A", 2, 3)
        assert not info.written_between("A", 0, 1)

    def test_scalar_assign_writes_no_arrays(self):
        info = BlockInfo(block_of("s := 1.0; [R] A := s;"))
        assert info.writes[0] == set()
        assert info.writes[1] == {"A"}


class TestGrouping:
    def test_uses_by_key_groups_same_offsets(self):
        info = BlockInfo(
            block_of("[In] B := A@east; [In] C := A@east + A@west;")
        )
        keys = [use.key for use in info.shifted_uses]
        assert keys.count(("A", (0, 1), False)) == 2
        assert keys.count(("A", (0, -1), False)) == 1
