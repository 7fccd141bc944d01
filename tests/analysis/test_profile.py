"""Tests for time-breakdown profiling."""

import numpy as np
import pytest

from repro import ExecutionMode, OptimizationConfig, simulate, t3d
from repro.analysis.profile import breakdown_of, breakdown_table
from repro.programs import BENCHMARKS, build_benchmark, small_config
from tests.conftest import compile_demo


@pytest.fixture(scope="module")
def run():
    return simulate(
        compile_demo(OptimizationConfig.full()), t3d(4), ExecutionMode.TIMING
    )


def _assert_buckets_sum_to_clock(run):
    inst = run.instrument
    total = inst.compute_time + inst.comm_sw_time + inst.wait_time
    assert np.allclose(total, run.clocks, rtol=1e-12, atol=1e-12)


def test_buckets_sum_to_clock_on_every_rank(run):
    _assert_buckets_sum_to_clock(run)


@pytest.mark.parametrize("library", ["pvm", "shmem"])
@pytest.mark.parametrize("bench", BENCHMARKS)
def test_buckets_sum_to_clock_on_paper_benchmarks(bench, library):
    """The account reads the same cost arrays as the clocks, on every
    paper program under message passing and under SHMEM's rendezvous
    calls, extrapolated loops included."""
    program = build_benchmark(
        bench, config=small_config(bench), opt=OptimizationConfig.full()
    )
    run = simulate(program, t3d(16, library), ExecutionMode.TIMING)
    assert run.fastpath is not None
    _assert_buckets_sum_to_clock(run)


def test_breakdown_defaults_to_critical_rank(run):
    b = breakdown_of(run)
    assert b.total == pytest.approx(run.time)


def test_breakdown_for_specific_rank(run):
    b = breakdown_of(run, rank=0)
    assert b.total == pytest.approx(float(run.clocks[0]))


def test_comm_fraction_between_zero_and_one(run):
    b = breakdown_of(run)
    assert 0.0 <= (b.comm_sw + b.wait) / b.total <= 1.0


def test_pure_compute_program_has_no_comm_time():
    from repro import compile_program

    src = """
    program local;
    config n : integer = 8;
    region R = [1..n, 1..n];
    var A : [R] double;
    procedure main();
    begin
      [R] A := index1 * 2.0;
      [R] A := A * A + 1.0;
    end;
    """
    prog = compile_program(src, opt=OptimizationConfig.full())
    res = simulate(prog, t3d(4), ExecutionMode.TIMING)
    b = breakdown_of(res)
    assert b.comm_sw == 0.0 and b.wait == 0.0
    assert b.compute == pytest.approx(b.total)


def test_table_shape(run):
    headers, rows = breakdown_table({"demo": run})
    assert headers[0] == "run"
    assert len(rows) == 1
    # fractions sum to 1
    assert sum(rows[0][2:]) == pytest.approx(1.0)


def test_optimization_reduces_comm_share():
    base = simulate(
        compile_demo(OptimizationConfig.baseline()), t3d(4), ExecutionMode.TIMING
    )
    full = simulate(
        compile_demo(OptimizationConfig.full()), t3d(4), ExecutionMode.TIMING
    )
    assert (
        breakdown_of(full).comm_sw + breakdown_of(full).wait
        < breakdown_of(base).comm_sw + breakdown_of(base).wait
    )
