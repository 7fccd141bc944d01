"""Error-path tests: the runtime's defensive checks."""

import pytest

from repro import ExecutionMode, OptimizationConfig, compile_program, simulate, t3d
from repro.errors import MachineError, RuntimeFault
from repro.ir.nodes import CommDescriptor, CommEntry
from repro.lang.regions import Direction, Region
from repro.machine import paragon
from repro.runtime.grid import ProcessorGrid
from repro.runtime.layout import ProblemLayout
from repro.runtime.transfers import TransferPlan


class TestFluffFeasibility:
    def test_oversized_shift_rejected_at_simulation_start(self):
        src = """
        program p;
        config n : integer = 8;
        region R = [1..n, 1..n];
        region Sub = [1..n, 1..n-6];
        direction far = [0, 6];
        var A, B : [R] double;
        procedure main(); begin [Sub] B := A@far; end;
        """
        prog = compile_program(src, opt=OptimizationConfig.full())
        # 8 columns over 8 mesh columns -> blocks of width 1 < shift 6
        with pytest.raises(RuntimeFault, match="shift width"):
            simulate(prog, t3d(64), ExecutionMode.TIMING)

    def test_same_program_fine_on_smaller_mesh(self):
        src = """
        program p;
        config n : integer = 16;
        region R = [1..n, 1..n];
        region Sub = [1..n, 1..n-6];
        direction far = [0, 6];
        var A, B : [R] double;
        procedure main(); begin [Sub] B := A@far; end;
        """
        prog = compile_program(src, opt=OptimizationConfig.full())
        simulate(prog, t3d(4), ExecutionMode.TIMING)  # blocks of width 8


class TestControlFlowFaults:
    def test_zero_step_loop(self):
        src = """
        program p;
        var s : double;
        procedure main(); begin
          for i := 1 to 4 by 0 do s := 1.0; end;
        end;
        """
        prog = compile_program(src)
        with pytest.raises(RuntimeFault, match="zero step"):
            simulate(prog, t3d(1), ExecutionMode.TIMING)


class TestMachineValidation:
    def test_paragon_rejects_t3d_libraries(self):
        with pytest.raises(MachineError):
            paragon(4, "shmem")

    def test_bad_processor_count(self):
        with pytest.raises(MachineError):
            t3d(0)


class TestWrapFaults:
    def test_wrap_strip_spanning_processors_rejected(self):
        # 12 columns over a 1x4 mesh -> blocks of 3; a wrap offset of 3
        # is feasible, 5 folds onto a strip crossing two owners
        src = """
        program p;
        config n : integer = 12;
        region R = [1..n, 1..n];
        direction far = [0, 5];
        var A, B : [R] double;
        procedure main(); begin [R] B := A@@far; end;
        """
        prog = compile_program(src, opt=OptimizationConfig.full())
        with pytest.raises(RuntimeFault, match="shift width"):
            simulate(prog, t3d(16), ExecutionMode.TIMING)


def _plan(rows, cols, domains, array, offsets, wrap):
    """A plan for ``array @ offsets`` over its whole domain, built from a
    hand-made layout (no semantic checks, no fluff-feasibility check)."""
    layout = ProblemLayout(ProcessorGrid(rows, cols), domains)
    desc = CommDescriptor(
        direction=Direction("d", offsets),
        entries=[CommEntry(array=array, use_region=domains[array])],
        wrap=wrap,
    )
    return TransferPlan(desc, layout, rows * cols)


class TestPlanConstructionFaults:
    """Each geometric fault of plan construction raises from the
    ``TransferPlan`` constructor itself, before any message exists."""

    def test_strip_without_owning_neighbour(self):
        # a plain east shift over the whole domain reads column 9 on the
        # east edge of the mesh, where no neighbour owns it
        square = Region("R", (1, 1), (8, 8))
        with pytest.raises(
            RuntimeFault,
            match=r"strip \[1\.\.4, 9\.\.9\] for rank 1 has no owning neighbour",
        ):
            _plan(2, 2, {"A": square}, "A", (0, 1), wrap=False)

    def test_wrap_domain_not_spanning_the_layout(self):
        # B widens the rank-2 layout to 12 columns, so A's west wrap
        # would fold onto columns nobody holds for A
        domains = {
            "A": Region("R", (1, 1), (8, 8)),
            "B": Region("W", (1, 1), (8, 12)),
        }
        with pytest.raises(
            RuntimeFault,
            match="does not span the rank-class layout in dim 2",
        ):
            _plan(2, 2, domains, "A", (0, -1), wrap=True)

    def test_folded_strip_escaping_the_domain(self):
        # an offset beyond the domain extent still overflows after one fold
        square = Region("R", (1, 1), (4, 4))
        with pytest.raises(
            RuntimeFault,
            match=r"folded strip \[1\.\.4, 2\.\.5\] still escapes the domain",
        ):
            _plan(1, 1, {"A": square}, "A", (0, 5), wrap=True)

    def test_folded_strip_spanning_processors(self):
        # 12 columns over a 1x4 mesh: blocks of 3, so a 5-wide wrap
        # shift reads columns 6..8 from two owners
        square = Region("R", (1, 1), (12, 12))
        with pytest.raises(
            RuntimeFault, match=r"strip \[1\.\.12, 6\.\.8\] spans processors"
        ):
            _plan(1, 4, {"A": square}, "A", (0, 5), wrap=True)
