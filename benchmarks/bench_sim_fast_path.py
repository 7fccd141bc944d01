"""Compiled TIMING fast path: the full paper study must run >= 5x faster.

Simulates every cell of the whole-program study (4 benchmarks x 6
experiment keys at paper scale, 64 simulated processors) twice: once
through the interpreted IR walk (``SimOptions.timing(fast=False)``, the
differential oracle) and once through the compiled schedule, one
:func:`repro.simulate` call per cell.  Asserts the acceptance bar (fast
path at least 5x faster — the tentpole targeted 10x and the measured
runs exceed it), that every cell engaged the compiled path, and that the
results are *bit-identical* — the fast path's whole contract.  The
measured speedup is appended to ``BENCH_sim_fast_path.json`` at the repo
root as a trajectory point.

Compilation is identical work on both sides, so the programs are
compiled and the shared transfer-plan memo is warmed (one throwaway
pass) before either pass is timed: the comparison is
simulator-vs-simulator, not cold-vs-warm.
"""

from __future__ import annotations

import json
import time
from datetime import datetime, timezone
from pathlib import Path

from repro import SimOptions, run_study, simulate
from repro.engine import clear_compile_cache
from repro.engine.jobs import Job, MachineSpec
from repro.engine.worker import compile_cached
from repro.experiments_registry import EXPERIMENT_KEYS, experiment_spec
from repro.programs import BENCHMARKS
from repro.runtime.transfers import PlanCache

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_sim_fast_path.json"

STUDY = dict(
    benchmarks=BENCHMARKS,
    nprocs=64,
    cache=False,
    jobs=1,  # serial: measure the simulator, not the pool
)


def _paper_cells():
    """``(program, machine)`` of every paper cell at 64 ranks."""
    cells = []
    for bench in BENCHMARKS:
        for key in EXPERIMENT_KEYS:
            job = Job.make(bench, key, machine=MachineSpec.coerce(None, nprocs=64))
            spec = experiment_spec(key)
            config = tuple(sorted(job.merged_config().items()))
            program = compile_cached(bench, config, spec.opt)[0]
            cells.append((program, job.machine.build(spec.library)))
    return cells


def _timed_cells(cells, fast: bool):
    options = SimOptions.timing(fast=fast)
    t0 = time.perf_counter()
    results = [simulate(program, machine, options=options) for program, machine in cells]
    return results, time.perf_counter() - t0


def _result_surface(results):
    return [
        (
            r.static_comm_count,
            r.dynamic_comm_count,
            r.time,
            r.clocks.tobytes(),
            r.instrument.total_messages,
            r.instrument.total_bytes,
            r.warnings,
        )
        for r in results
    ]


def test_fast_path_speedup(benchmark, record_table):
    # compile every cell and warm the plan memo once, for both passes alike
    clear_compile_cache()
    PlanCache.clear_global()
    cells = _paper_cells()
    _timed_cells(cells, fast=True)

    interp, interp_s = _timed_cells(cells, fast=False)
    fast, fast_s = _timed_cells(cells, fast=True)

    assert len(cells) == len(BENCHMARKS) * 6

    # exactness: the compiled path reproduces the interpreted walk
    # bit-for-bit on every cell of the paper matrix
    assert _result_surface(fast) == _result_surface(interp)

    # engagement: every TIMING cell compiled, none silently interpreted
    assert all(r.fastpath is not None for r in fast)
    extrapolated = sum(r.fastpath.extrapolated_trips for r in fast)
    assert extrapolated > 0, "steady-state extrapolation never engaged"

    speedup = interp_s / fast_s
    assert speedup >= 5.0, (
        f"fast path below the 5x bar: interpreted {interp_s:.2f}s vs "
        f"compiled {fast_s:.2f}s ({speedup:.1f}x)"
    )

    point = {
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
        "cells": len(cells),
        "interpreted_s": round(interp_s, 3),
        "fast_s": round(fast_s, 3),
        "speedup": round(speedup, 1),
        "extrapolated_trips": extrapolated,
    }
    trajectory = (
        json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    )
    trajectory.append(point)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")

    record_table(
        "sim_fast_path",
        "Simulator fast path — full paper study, cache disabled\n"
        f"interpreted walk:  {interp_s:.2f}s\n"
        f"compiled schedule: {fast_s:.2f}s\n"
        f"speedup:           {speedup:.1f}x  (bar: >= 5x)\n"
        f"extrapolated trips: {extrapolated}",
    )

    benchmark.extra_info.update(point)
    benchmark.pedantic(
        lambda: run_study(**{**STUDY, "benchmarks": ("simple",)}),
        rounds=3,
        iterations=1,
    )
