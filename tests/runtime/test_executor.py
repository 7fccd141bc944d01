"""Integration tests for the simulation driver."""

import numpy as np
import pytest

from repro import (
    ExecutionMode,
    OptimizationConfig,
    SimOptions,
    compile_program,
    reference_run,
    simulate,
    t3d,
)
from repro.errors import RuntimeFault
from tests.conftest import cap_repeats

SRC = """
program exec;
config n : integer = 8;
config k : integer = 3;
region R  = [1..n, 1..n];
region In = [2..n-1, 2..n-1];
direction east = [0, 1];
direction west = [0, -1];
var A, B : [R] double;
var s : double;
procedure main();
begin
  [R] A := index1 * 2.0 + index2;
  [R] B := 0.0;
  for t := 1 to k do
    [In] B := 0.5 * (A@east + A@west);
    [In] A := A * 0.9 + B * 0.1;
  end;
  [In] s := +<< A;
end;
"""


def run(opt=None, lib="pvm", nprocs=4, mode=ExecutionMode.NUMERIC, config=None):
    prog = compile_program(SRC, "exec.zl", config=config, opt=opt)
    return simulate(prog, t3d(nprocs, lib), mode)


class TestNumericCorrectness:
    def test_matches_reference(self):
        prog = compile_program(SRC, "exec.zl", opt=OptimizationConfig.full())
        ref = reference_run(compile_program(SRC, "exec.zl"))
        res = simulate(prog, t3d(4), ExecutionMode.NUMERIC)
        assert np.allclose(res.array("A"), ref.array("A"))
        assert np.allclose(res.array("B"), ref.array("B"))
        assert res.scalars["s"] == pytest.approx(ref.scalars["s"])

    def test_unoptimized_program_wrong_when_distributed(self):
        """Demonstrates why communication exists: without any transfers
        the distributed run reads stale fluff (zeros) and diverges."""
        prog = compile_program(SRC, "exec.zl")  # no comm generated
        ref = reference_run(prog)
        res = simulate(prog, t3d(4), ExecutionMode.NUMERIC)
        assert not np.allclose(res.array("A"), ref.array("A"))

    def test_unoptimized_correct_on_single_processor(self):
        prog = compile_program(SRC, "exec.zl")
        ref = reference_run(prog)
        res = simulate(prog, t3d(1), ExecutionMode.NUMERIC)
        assert np.allclose(res.array("A"), ref.array("A"))

    def test_result_independent_of_library(self):
        a = run(OptimizationConfig.full(), "pvm").array("A")
        b = run(OptimizationConfig.full(), "shmem").array("A")
        assert np.array_equal(a, b)

    def test_result_independent_of_grid(self):
        a = run(OptimizationConfig.full(), nprocs=1).array("A")
        b = run(OptimizationConfig.full(), nprocs=16, config={"n": 16}) if False else run(OptimizationConfig.full(), nprocs=4).array("A")
        assert np.allclose(a, b)


class TestTimingMode:
    def test_counts_match_numeric_mode(self):
        num = run(OptimizationConfig.full(), mode=ExecutionMode.NUMERIC)
        tim = run(OptimizationConfig.full(), mode=ExecutionMode.TIMING)
        assert num.dynamic_comm_count == tim.dynamic_comm_count
        assert np.array_equal(num.dynamic_comms, tim.dynamic_comms)

    def test_time_matches_numeric_mode(self):
        num = run(OptimizationConfig.full(), mode=ExecutionMode.NUMERIC)
        tim = run(OptimizationConfig.full(), mode=ExecutionMode.TIMING)
        assert tim.time == pytest.approx(num.time)

    def test_array_access_unavailable(self):
        res = run(OptimizationConfig.full(), mode=ExecutionMode.TIMING)
        with pytest.raises(RuntimeFault, match="TIMING"):
            res.array("A")

    def test_reduce_warning_recorded(self):
        res = run(OptimizationConfig.full(), mode=ExecutionMode.TIMING)
        assert any("reductions" in w for w in res.warnings)

    @pytest.mark.parametrize("fast", [True, False])
    def test_finished_run_is_freed_without_the_cycle_collector(self, fast):
        """A run's clocks, in-flight arrivals and cost arrays go as soon
        as the run is dropped: nothing the driver holds points back at
        it (a cycle kept every batched evaluation's arrays alive until a
        collection, raising a sweep's peak memory)."""
        import gc
        import weakref

        from repro.runtime.executor import _Simulation

        prog = compile_program(SRC, "exec.zl", opt=OptimizationConfig.full())
        gc.disable()
        try:
            sim = _Simulation(prog, t3d(4), ExecutionMode.TIMING, None, fast=fast)
            sim.run()
            freed = weakref.ref(sim)
            del sim
            assert freed() is None
        finally:
            gc.enable()


class TestDynamics:
    def test_dynamic_count_scales_with_iterations(self):
        r3 = run(OptimizationConfig.full(), config={"k": 3})
        r6 = run(OptimizationConfig.full(), config={"k": 6})
        per_iter = (r6.dynamic_comm_count - r3.dynamic_comm_count) / 3
        assert per_iter > 0
        assert r3.dynamic_comm_count == pytest.approx(3 * per_iter)

    def test_single_processor_communicates_nothing(self):
        res = run(OptimizationConfig.full(), nprocs=1)
        assert res.dynamic_comm_count == 0
        assert res.instrument.total_messages == 0

    def test_optimizations_reduce_time(self):
        from tests.conftest import compile_demo

        base = simulate(
            compile_demo(OptimizationConfig.baseline()),
            t3d(4),
            ExecutionMode.TIMING,
        )
        full = simulate(
            compile_demo(OptimizationConfig.full()), t3d(4), ExecutionMode.TIMING
        )
        assert full.dynamic_comm_count < base.dynamic_comm_count
        assert full.time < base.time

    def test_clocks_nonnegative_and_bounded_by_total(self):
        res = run(OptimizationConfig.full())
        assert (res.clocks >= 0).all()
        assert res.time == pytest.approx(res.clocks.max())

    def test_scalar_environment_final_values(self):
        res = run(OptimizationConfig.full())
        assert "s" in res.scalars
        assert res.scalars["s"] != 0.0


class TestControlFlow:
    def test_for_loop_with_negative_step(self):
        src = """
        program p;
        var s : double;
        procedure main();
        begin
          s := 0.0;
          for i := 5 to 1 by -2 do
            s := s + i;
          end;
        end;
        """
        prog = compile_program(src, "p.zl")
        res = simulate(prog, t3d(1), ExecutionMode.NUMERIC)
        assert res.scalars["s"] == 5 + 3 + 1

    def test_repeat_until_converges(self):
        src = """
        program p;
        var s : double;
        procedure main();
        begin
          s := 1.0;
          repeat
            s := s * 2.0;
          until s > 10.0;
        end;
        """
        prog = compile_program(src, "p.zl")
        res = simulate(prog, t3d(1), ExecutionMode.NUMERIC)
        assert res.scalars["s"] == 16.0

    def test_repeat_cap_warns(self):
        src = """
        program p;
        var s : double;
        procedure main();
        begin
          repeat
            s := s + 1.0;
          until s < 0.0;
        end;
        """
        prog = cap_repeats(compile_program(src, "p.zl"), 5)
        res = simulate(prog, t3d(1), options=SimOptions.numeric())
        assert res.scalars["s"] == 5.0
        assert any("capped" in w for w in res.warnings)

    def test_elsif_chain(self):
        src = """
        program p;
        var s, r : double;
        procedure main();
        begin
          s := 2.0;
          if s < 1.0 then r := 1.0;
          elsif s < 3.0 then r := 2.0;
          else r := 3.0;
          end;
        end;
        """
        prog = compile_program(src, "p.zl")
        res = simulate(prog, t3d(1), ExecutionMode.NUMERIC)
        assert res.scalars["r"] == 2.0
