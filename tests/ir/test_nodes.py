"""Unit tests for IR node helpers."""

from repro.ir import nodes as ir
from repro.ironman.calls import CallKind
from repro.lang.regions import Direction, Region

R = Region("R", (1, 1), (4, 4))
EAST = Direction("east", (0, 1))


def _desc(arrays=("A",), wrap=False):
    return ir.CommDescriptor(
        direction=EAST,
        wrap=wrap,
        entries=[ir.CommEntry(a, R) for a in arrays],
    )


class TestDescriptors:
    def test_ids_are_unique(self):
        assert _desc().id != _desc().id

    def test_describe_mentions_arrays_and_direction(self):
        text = _desc(("A", "B")).describe()
        assert "A, B" in text and "east" in text

    def test_describe_marks_wrap(self):
        assert "@@" in _desc(wrap=True).describe()
        assert "@@" not in _desc(wrap=False).describe()


class TestBlockHelpers:
    def _block(self):
        desc = _desc()
        assign = ir.ArrayAssign(
            region=R, target="B", expr=ir.IRArrayRead("A", EAST)
        )
        return ir.Block(
            [
                ir.CommCall(CallKind.DR, desc),
                ir.CommCall(CallKind.SR, desc),
                ir.CommCall(CallKind.DN, desc),
                assign,
                ir.CommCall(CallKind.SV, desc),
            ]
        )

    def test_core_vs_comm_split(self):
        block = self._block()
        assert len(block.core_stmts()) == 1
        assert len(block.comm_calls()) == 4

    def test_descriptors_deduplicated(self):
        block = self._block()
        assert len(block.descriptors()) == 1


class TestTraversal:
    def test_walk_body_covers_nested_structures(self):
        inner = ir.Block([ir.ScalarAssign("s", ir.IRConst(1.0))])
        loop = ir.ForLoop("i", ir.IRConst(1), ir.IRConst(2), None, [inner])
        branch = ir.IfStmt(
            arms=[(ir.IRConst(True), [ir.Block([])])], orelse=[loop]
        )
        seen = list(ir.walk_body([branch]))
        kinds = [type(s).__name__ for s in seen]
        assert kinds == ["IfStmt", "Block", "ForLoop", "Block"]

    def test_program_all_descriptors_cross_block(self):
        d1, d2 = _desc(), _desc()
        prog = ir.IRProgram(
            name="p",
            body=[
                ir.Block([ir.CommCall(CallKind.SR, d1), ir.CommCall(CallKind.DN, d1)]),
                ir.ForLoop(
                    "i",
                    ir.IRConst(1),
                    ir.IRConst(2),
                    None,
                    [ir.Block([ir.CommCall(CallKind.SR, d2), ir.CommCall(CallKind.DN, d2)])],
                ),
            ],
            arrays={"A": (R, (0, 1))},
            scalars=[],
            config_values={},
        )
        assert len(prog.all_descriptors()) == 2


class TestFlops:
    def test_array_assign_flops_include_store(self):
        stmt = ir.ArrayAssign(region=R, target="B", expr=ir.IRConst(1.0))
        assert stmt.flops == 1  # just the store

    def test_explicit_flops_not_overwritten(self):
        stmt = ir.ArrayAssign(
            region=R, target="B", expr=ir.IRConst(1.0), flops=17
        )
        assert stmt.flops == 17
