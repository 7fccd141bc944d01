"""Direct unit tests for the expression evaluators."""

import numpy as np
import pytest

from repro.errors import RuntimeFault
from repro.ir import nodes as ir
from repro.lang.regions import Direction, Region
from repro.runtime.distarray import DistArray
from repro.runtime.grid import ProcessorGrid
from repro.runtime.interp import ParallelEvaluator, ScalarEvaluator, _index_values
from repro.runtime.layout import ProblemLayout

R = Region("R", (1, 1), (4, 4))
EAST = Direction("east", (0, 1))


@pytest.fixture
def env():
    grid = ProcessorGrid(1, 1)
    layout = ProblemLayout(grid, {"A": R})
    arr = DistArray("A", R, (0, 1), layout)
    arr.scatter(np.arange(16, dtype=float).reshape(4, 4))
    scalars = {"s": 2.5, "n": 4}
    return ParallelEvaluator({"A": arr}, scalars, layout), scalars


class TestParallel:
    def test_const(self, env):
        ev, _ = env
        assert ev.eval(ir.IRConst(3), 0, R) == 3.0

    def test_scalar_read(self, env):
        ev, _ = env
        assert ev.eval(ir.IRScalarRead("s"), 0, R) == 2.5

    def test_unbound_scalar_raises(self, env):
        ev, _ = env
        with pytest.raises(RuntimeFault, match="unbound"):
            ev.eval(ir.IRScalarRead("ghost"), 0, R)

    def test_array_read_is_view(self, env):
        ev, _ = env
        out = ev.eval(ir.IRArrayRead("A"), 0, R)
        assert out.shape == (4, 4)
        assert out[0, 0] == 0.0

    def test_shifted_read(self, env):
        ev, _ = env
        sub = Region("sub", (1, 1), (4, 3))
        out = ev.eval(ir.IRArrayRead("A", EAST), 0, sub)
        assert out[0, 0] == 1.0  # A[1,2]

    def test_binary_and_intrinsic(self, env):
        ev, _ = env
        expr = ir.IRIntrinsic(
            "max",
            [
                ir.IRBin("*", ir.IRArrayRead("A"), ir.IRConst(2.0)),
                ir.IRConst(5.0),
            ],
        )
        out = ev.eval(expr, 0, R)
        assert out[0, 0] == 5.0 and out[3, 3] == 30.0

    def test_not_operator(self, env):
        ev, _ = env
        out = ev.eval(
            ir.IRUn("not", ir.IRBin(">", ir.IRArrayRead("A"), ir.IRConst(7.0))),
            0,
            R,
        )
        assert out[0, 0] and not out[3, 3]

    def test_reduce_sum(self, env):
        ev, _ = env
        total = ev.reduce(ir.IRReduce("+", ir.IRArrayRead("A"), R))
        assert total == sum(range(16))

    def test_reduce_scalar_operand_broadcasts(self, env):
        ev, _ = env
        total = ev.reduce(ir.IRReduce("+", ir.IRConst(2.0), R))
        assert total == 32.0

    def test_reduce_min_max(self, env):
        ev, _ = env
        assert ev.reduce(ir.IRReduce("max", ir.IRArrayRead("A"), R)) == 15.0
        assert ev.reduce(ir.IRReduce("min", ir.IRArrayRead("A"), R)) == 0.0


class TestBound:
    """A bound expression is resolved once and reads current data."""

    def test_bound_expression_reads_current_block_fluff_and_scalars(self, env):
        ev, scalars = env
        bound = ev.bind(ir.IRBin("+", ir.IRArrayRead("A", EAST), ir.IRScalarRead("s")), 0, R)
        block = ev.arrays["A"].block(0)
        assert block.data.shape == (4, 6)  # one fluff column each side
        first = bound()
        assert first[0, 0] == 1.0 + 2.5  # A[1,2]
        assert first[0, 3] == 0.0 + 2.5  # east fluff, never filled
        # owned cells and fluff change in place, and so does the scalar
        block.data[...] = np.arange(24.0).reshape(4, 6) * 10.0
        scalars["s"] = -1.0
        again = bound()
        assert np.array_equal(again, np.arange(24.0).reshape(4, 6)[:, 2:6] * 10.0 - 1.0)
        assert again[0, 3] == 50.0 - 1.0  # the fluff cell's new value

    def test_unbound_scalar_raises_when_the_bound_callable_runs(self, env):
        ev, scalars = env
        expr = ir.IRBin("*", ir.IRArrayRead("A"), ir.IRScalarRead("ghost"))
        bound = ev.bind(expr, 0, R)  # binding reads no scalar
        with pytest.raises(RuntimeFault, match=r"^unbound scalar 'ghost'$"):
            bound()
        scalars["ghost"] = 3.0
        assert bound()[3, 3] == 45.0

    def test_self_aliasing_store_copies_before_it_writes(self, env):
        ev, _ = env
        sub = Region("sub", (1, 1), (4, 3))
        stmt = ir.ArrayAssign(region=sub, target="A", expr=ir.IRArrayRead("A", EAST))
        rows = np.arange(16.0).reshape(4, 4)
        ev.assign(stmt)  # binds, then runs
        expected = rows.copy()
        expected[:, :3] = rows[:, 1:]
        assert np.array_equal(ev.arrays["A"].gather(), expected)
        ev.assign(stmt)  # runs the bound form
        expected[:, :3] = expected[:, 1:].copy()
        assert np.array_equal(ev.arrays["A"].gather(), expected)


class TestScalarEvaluator:
    def test_arithmetic(self):
        ev = ScalarEvaluator({"x": 3}, lambda r: 0.0)
        expr = ir.IRBin("+", ir.IRScalarRead("x"), ir.IRConst(4))
        assert ev.eval(expr) == 7

    def test_integer_division_truncates(self):
        ev = ScalarEvaluator({}, lambda r: 0.0)
        assert ev.eval(ir.IRBin("/", ir.IRConst(7), ir.IRConst(2))) == 3

    def test_float_division_exact(self):
        ev = ScalarEvaluator({}, lambda r: 0.0)
        assert ev.eval(ir.IRBin("/", ir.IRConst(7.0), ir.IRConst(2))) == 3.5

    def test_reduce_hook_called(self):
        calls = []

        def hook(expr):
            calls.append(expr.op)
            return 42.0

        ev = ScalarEvaluator({}, hook)
        out = ev.eval(ir.IRReduce("max", ir.IRConst(1.0), R))
        assert out == 42.0 and calls == ["max"]

    def test_intrinsic_returns_python_float(self):
        ev = ScalarEvaluator({}, lambda r: 0.0)
        out = ev.eval(ir.IRIntrinsic("sqrt", [ir.IRConst(9.0)]))
        assert isinstance(out, float) and out == 3.0


def test_index_values_shape_and_contents():
    box = Region("b", (2, 5), (4, 6))
    i1 = _index_values(box, 1)
    i2 = _index_values(box, 2)
    assert i1.shape == (3, 1) and i2.shape == (1, 2)
    assert list(i1.ravel()) == [2, 3, 4]
    assert list(i2.ravel()) == [5, 6]
