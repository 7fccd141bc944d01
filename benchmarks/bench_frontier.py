"""Frontier engine: crossover refinement + the 10^4-variant map.

Two bars from the adaptive-frontier ISSUE, measured in one test so the
trajectory gains one coherent point:

* **Refinement efficiency** — :func:`repro.sweep.run_refined_sweep`
  must localize the paper's combining knee (the per-byte cost past
  which collective combining loses to recognize-reduce on SIMPLE,
  t3d/16) to ``tol = 1e-8`` while evaluating **at most 1/5** of the
  points the equivalent dense grid would, and the bracket it reports
  must actually be narrower than the tolerance.
* **Map throughput** — a full two-axis frontier map (100 beyond-knee
  costs x 100 network latencies = 10^4 machine variants, evaluated for
  both contenders through the memoized packer and one
  ``simulate_many`` call per experiment) plus per-row crossover
  contours must complete in **single-digit seconds**.

The measured point is appended to ``BENCH_sim_fast_path.json`` at the
repo root as the third trajectory point (fast path -> batch -> frontier).
"""

from __future__ import annotations

import json
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro import simulate_many
from repro.analysis.scaling import find_crossings
from repro.engine import clear_compile_cache
from repro.engine.jobs import MachineSpec
from repro.experiments_registry import experiment_spec
from repro.machine import pack_variant_specs
from repro.programs import build_benchmark
from repro.runtime.transfers import PlanCache
from repro.sweep import run_refined_sweep

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_sim_fast_path.json"

NPROCS = 16
KNEE_BYTES = 32
# one iteration: the knee is a per-iteration property, and the second
# iteration would only re-simulate the same schedule 10^4 more times
SIMPLE_SMALL = {"n": 16, "niters": 1, "ncond": 2}
AXIS = "prim.*.per_byte_beyond"
LO, HI, TOL = 0.0, 1e-6, 1e-8
MAP_XS = np.linspace(0.0, 1e-6, 100)
MAP_YS = np.geomspace(1e-6, 1e-4, 100)
MAP_KEYS = ("rr", "cc")  # the contenders whose flip draws the contour


def _map_specs():
    return [
        {
            "prim.*.knee_bytes": KNEE_BYTES,
            AXIS: float(x),
            "net.latency": float(y),
        }
        for y in MAP_YS
        for x in MAP_XS
    ]


def test_frontier_refinement_and_map(benchmark, record_table):
    clear_compile_cache()
    PlanCache.clear_global()

    # -- refinement: the combining knee to tol, cache off so every
    # evaluated point is a real batched simulation ---------------------
    t0 = time.perf_counter()
    refined = run_refined_sweep(
        axis=AXIS,
        lo=LO,
        hi=HI,
        tol=TOL,
        coarse=5,
        benchmarks="simple",
        keys=("baseline", "rr", "cc"),
        machine=MachineSpec.coerce("t3d", nprocs=NPROCS),
        overrides={"prim.*.knee_bytes": KNEE_BYTES},
        config_overrides={"simple": SIMPLE_SMALL},
        jobs=2,
        cache=False,
    )
    refine_s = time.perf_counter() - t0

    knees = [
        c
        for c in refined.crossovers
        if (c.experiment, c.reference) == ("cc", "rr")
    ]
    assert knees, refined.crossovers
    knee = knees[0]
    assert knee.x_high - knee.x_low <= TOL, knee
    assert refined.points_evaluated * 5 <= refined.dense_points, (
        f"refinement above the 1/5-dense bar: {refined.points_evaluated} "
        f"points vs {refined.dense_points} dense"
    )

    # -- the 10^4-variant map: pack once per key, one batched call per
    # contender, contours straight off the raw time grids --------------
    programs = {}
    matrices = {}
    for key in MAP_KEYS:
        spec = experiment_spec(key)
        programs[key] = build_benchmark(
            "simple", config=SIMPLE_SMALL, opt=spec.opt
        )
        matrices[key] = pack_variant_specs(
            "t3d", NPROCS, spec.library, _map_specs()
        )
    # warm compile/plan caches so the timed region is pure evaluation
    for key in MAP_KEYS:
        warm = pack_variant_specs(
            "t3d", NPROCS, experiment_spec(key).library, _map_specs()[:1]
        )
        simulate_many(programs[key], warm)

    t0 = time.perf_counter()
    times = {}
    for key in MAP_KEYS:
        run = simulate_many(programs[key], matrices[key])
        times[key] = np.asarray(run.times).reshape(
            len(MAP_YS), len(MAP_XS)
        )
    contours = []
    for j, y in enumerate(MAP_YS):
        ratio = times[MAP_KEYS[0]][j] / times[MAP_KEYS[1]][j]
        crossings = find_crossings(list(zip(MAP_XS, ratio)))
        if crossings:
            contours.append((float(y), crossings[0][2]))
    map_s = time.perf_counter() - t0

    n_variants = len(MAP_XS) * len(MAP_YS)
    assert n_variants == 10_000
    assert map_s < 10.0, (
        f"10^4-variant frontier map above single-digit seconds: {map_s:.2f}s"
    )
    # the knee exists at every latency and moves with it: higher network
    # latency shelters combining, pushing its loss to higher byte costs
    assert len(contours) == len(MAP_YS)
    assert contours[-1][1] > contours[0][1]
    # the refined 1-D knee agrees with the map's contour at the base
    # machine's latency (t3d: 1.2e-5)
    base_knee = np.interp(
        1.2e-5, [y for y, _ in contours], [x for _, x in contours]
    )
    assert abs(knee.x_estimate - base_knee) < 5e-8

    point = {
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
        "bench": "frontier",
        "refine_points": refined.points_evaluated,
        "dense_points": refined.dense_points,
        "refine_savings": round(refined.savings, 1),
        "refine_s": round(refine_s, 3),
        "map_variants": n_variants,
        "map_s": round(map_s, 3),
    }
    trajectory = (
        json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    )
    trajectory.append(point)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")

    record_table(
        "frontier",
        "Frontier engine — SIMPLE combining knee on t3d/16\n"
        f"refined knee:   {knee.x_estimate:.6g} "
        f"(bracket [{knee.x_low:.6g}, {knee.x_high:.6g}], tol {TOL:g})\n"
        f"refinement:     {refined.points_evaluated} points vs "
        f"{refined.dense_points} dense = {refined.savings:.1f}x fewer "
        "(bar: >= 5x)\n"
        f"refine wall:    {refine_s:.2f}s over {refined.rounds} rounds\n"
        f"frontier map:   {n_variants} variants x {len(MAP_KEYS)} keys "
        f"in {map_s:.2f}s  (bar: < 10s)\n"
        f"contour:        knee {contours[0][1]:.3g} @ lat {contours[0][0]:.1e}"
        f" -> {contours[-1][1]:.3g} @ lat {contours[-1][0]:.1e}",
    )

    benchmark.extra_info.update(point)
    chunk = pack_variant_specs(
        "t3d",
        NPROCS,
        experiment_spec(MAP_KEYS[0]).library,
        _map_specs()[:1000],
    )
    benchmark.pedantic(
        lambda: simulate_many(programs[MAP_KEYS[0]], chunk),
        rounds=3,
        iterations=1,
    )
