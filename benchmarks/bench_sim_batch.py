"""Batched many-variant evaluation: 1000 variants must run >= 10x faster.

Builds a 40 x 25 grid of cost variants (network latency x primitive
software overhead) of the 16-processor T3D, compiles SIMPLE once under
the ``pl`` key, and evaluates the grid twice: once through
``repro.simulate_many`` (one vectorized pass over the whole batch), once
as 1000 scalar ``simulate`` fast-path runs.  Asserts the ISSUE's
acceptance bar (batched at least 10x faster) and the batched evaluator's
whole contract: every row *bit-identical* — times and full per-rank
clocks — to the scalar run of that variant.  The measured point is
appended to ``BENCH_sim_fast_path.json`` at the repo root, extending the
fast-path trajectory with the batched point.

The batch is timed before the scalar loop: both sides start from the
same warmed compile/plan caches, and the thousand scalar runs would
otherwise pollute the allocator and CPU caches under the batch's feet.
"""

from __future__ import annotations

import json
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro import SimOptions, machine_by_name, simulate, simulate_many
from repro.engine import clear_compile_cache
from repro.experiments_registry import experiment_spec
from repro.machine import apply_overrides
from repro.programs import build_benchmark, small_config
from repro.runtime.transfers import PlanCache

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_sim_fast_path.json"

NPROCS = 16
KEY = "pl"
LATENCIES = np.linspace(1e-6, 1e-4, 40)
FIXED_COSTS = np.linspace(1e-5, 1e-4, 25)


def _variants(base):
    return [
        apply_overrides(
            base, {"net.latency": float(lat), "prim.*.fixed": float(fix)}
        )
        for lat in LATENCIES
        for fix in FIXED_COSTS
    ]


def test_batched_speedup(benchmark, record_table):
    clear_compile_cache()
    PlanCache.clear_global()
    spec = experiment_spec(KEY)
    program = build_benchmark(
        "simple", config=small_config("simple"), opt=spec.opt
    )
    base = machine_by_name("t3d", NPROCS, spec.library)
    variants = _variants(base)
    assert len(variants) == 1000

    # warm the plan cache and one scalar run's worth of state for both
    # sides alike before either pass is timed
    simulate(program, base, options=SimOptions.timing())
    simulate_many(program, [base])

    t0 = time.perf_counter()
    run = simulate_many(program, variants)
    batch_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    scalar = [
        simulate(program, machine, options=SimOptions.timing())
        for machine in variants
    ]
    scalar_s = time.perf_counter() - t0

    # exactness: every row bit-identical to its scalar fast-path run
    for v, result in enumerate(scalar):
        assert float(run.times[v]) == result.time
        assert np.array_equal(run.clocks[v], result.clocks)
    assert len({float(t) for t in run.times}) > 100  # the grid diverges

    speedup = scalar_s / batch_s
    assert speedup >= 10.0, (
        f"batched evaluation below the 10x bar: scalar loop {scalar_s:.2f}s "
        f"vs batch {batch_s:.2f}s ({speedup:.1f}x)"
    )

    point = {
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
        "bench": "sim_batch",
        "variants": len(variants),
        "scalar_s": round(scalar_s, 3),
        "batch_s": round(batch_s, 3),
        "speedup": round(speedup, 1),
    }
    trajectory = (
        json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    )
    trajectory.append(point)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")

    record_table(
        "sim_batch",
        "Batched simulator — 1000 cost variants of SIMPLE/pl on t3d/16\n"
        f"scalar fast-path loop: {scalar_s:.2f}s\n"
        f"batched simulate_many: {batch_s:.2f}s\n"
        f"speedup:               {speedup:.1f}x  (bar: >= 10x)",
    )

    benchmark.extra_info.update(point)
    benchmark.pedantic(
        lambda: simulate_many(program, variants[:100]), rounds=3, iterations=1
    )
