"""Tests for the classic-kernel corpus (jacobi, rbgs, multigrid).

Each kernel earns its place by exercising one optimizer axis the
paper's four benchmarks under-cover, and these tests pin that
*optimization signature* as exact static-transfer counts so a
regression in the corresponding pass shows up as a changed number, not
a vague slowdown:

=============  =====================================================
kernel         signature
=============  =====================================================
``jacobi``     redundancy removal halves the count (the residual
               re-reads the whole stencil in-block); combining and
               pipelining change nothing further
``rbgs``       rr removes only the frozen-coefficient re-reads and
               combining then merges the per-neighbour ``C@d``/``A@d``
               pairs — both passes contribute, separably
``multigrid``  intra-block rr finds *nothing* (every block reads each
               (array, direction) once); same-statement combining
               halves the count across three stencil strides
=============  =====================================================
"""

import numpy as np
import pytest

from repro import (
    ExecutionMode,
    OptimizationConfig,
    SimOptions,
    emit_c,
    reference_run,
    simulate,
    t3d,
)
from repro.comm import static_comm_count
from repro.programs import (
    BENCHMARKS,
    KERNELS,
    available_benchmarks,
    benchmark_source,
    build_benchmark,
    default_config,
    small_config,
    validate_benchmark,
)
from repro.errors import ExperimentError
from tests.runtime.test_parity import run_pair

#: static transfer counts per kernel under each optimization level
#: (small configs; counts are config-independent for these kernels)
SIGNATURES = {
    #           baseline  rr  rr+cc  cc_only
    "jacobi":    (8,       4,  4,     8),
    "rbgs":      (16,     12,  8,     8),
    "multigrid": (48,     48, 24,    24),
}


def _static(name, opt):
    return static_comm_count(
        build_benchmark(name, config=small_config(name), opt=opt)
    )


def test_kernels_registered_after_benchmarks():
    assert KERNELS == ("jacobi", "rbgs", "multigrid")
    assert available_benchmarks() == BENCHMARKS + KERNELS
    for name in KERNELS:
        assert validate_benchmark(name) == name


def test_unknown_name_error_lists_kernels_and_gen():
    with pytest.raises(ExperimentError, match="jacobi.*gen_<seed>"):
        validate_benchmark("heat3d")


@pytest.mark.parametrize("name", KERNELS)
def test_source_is_self_titled(name):
    assert f"program {name}" in benchmark_source(name)


@pytest.mark.parametrize("name", KERNELS)
def test_small_config_is_reduced(name):
    small = small_config(name)
    full = default_config(name)
    assert set(small) == set(full)
    assert all(small[k] <= full[k] for k in small)


@pytest.mark.parametrize("name", KERNELS)
def test_small_config_compiles_and_communicates(name):
    prog = build_benchmark(
        name, config=small_config(name), opt=OptimizationConfig.full()
    )
    emitted = emit_c(prog)
    assert emitted.comm_lines > 0


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_optimization_signature(name):
    baseline, rr, rr_cc, cc_only = SIGNATURES[name]
    assert _static(name, OptimizationConfig.baseline()) == baseline
    assert _static(name, OptimizationConfig.rr_only()) == rr
    assert _static(name, OptimizationConfig.rr_cc()) == rr_cc
    assert _static(name, OptimizationConfig(cc=True)) == cc_only


def test_jacobi_rr_is_the_whole_win():
    """Combining and pipelining add nothing on top of rr — jacobi
    isolates the redundancy-removal pass."""
    assert _static("jacobi", OptimizationConfig.full()) == SIGNATURES["jacobi"][1]


def test_multigrid_rr_alone_finds_nothing():
    """Every multigrid block reads each (array, direction) exactly once,
    so intra-block rr must be a no-op — combining does all the work."""
    assert _static("multigrid", OptimizationConfig.rr_only()) == SIGNATURES["multigrid"][0]


def test_multigrid_declares_three_stride_levels():
    source = benchmark_source("multigrid")
    for stride in (1, 2, 4):
        assert f"[-{stride},  0]" in source


@pytest.mark.parametrize("name", KERNELS)
def test_fast_path_matches_oracle(name):
    program = build_benchmark(
        name, config=small_config(name), opt=OptimizationConfig.full()
    )
    run_pair(program, t3d(4, "pvm"), name)


@pytest.mark.parametrize("name", KERNELS)
def test_optimized_numerics_match_reference(name):
    config = small_config(name)
    ref = reference_run(
        build_benchmark(name, config=config, opt=OptimizationConfig.baseline())
    )
    res = simulate(
        build_benchmark(name, config=config, opt=OptimizationConfig.full()),
        t3d(4, "pvm"),
        ExecutionMode.NUMERIC,
    )
    for array in sorted(ref.arrays):
        assert np.allclose(
            res.array(array), ref.array(array), rtol=1e-12, atol=1e-12
        ), f"{name}: {array} diverged"


def test_kernels_have_genuine_optimization_headroom():
    """Every kernel's full-pipeline time beats its baseline on the T3D —
    the composition study needs non-degenerate speedups to measure."""
    machine = t3d(16, "pvm")
    for name in KERNELS:
        config = small_config(name)
        t = {}
        for key, opt in (
            ("baseline", OptimizationConfig.baseline()),
            ("full", OptimizationConfig.full()),
        ):
            program = build_benchmark(name, config=config, opt=opt)
            t[key] = simulate(
                program, machine, options=SimOptions.timing()
            ).time
        assert t["full"] < t["baseline"], name
