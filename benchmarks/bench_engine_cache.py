"""Engine cache effectiveness: warm re-runs must be >= 3x faster.

Runs a reduced-scale whole-program study twice against a fresh store:
the cold pass compiles and simulates every cell, the warm pass serves
every cell from the result cache.  Asserts the ISSUE/acceptance bar
(warm at least 3x faster than cold — in practice it is orders of
magnitude) and that the cached results are *identical* to the freshly
computed ones, then benchmarks the warm path.
"""

from __future__ import annotations

import time

from repro import run_study
from repro.programs import BENCHMARKS, small_config


def _study_kwargs(cache_dir):
    overrides = {name: small_config(name) for name in BENCHMARKS}
    # enough work that the cold pass dwarfs cache bookkeeping
    overrides["swm"].update(nsteps=20)
    overrides["tomcatv"].update(niters=6)
    return dict(
        benchmarks=BENCHMARKS,
        nprocs=16,
        config_overrides=overrides,
        cache_dir=cache_dir,
    )


def test_engine_cache_speedup(benchmark, tmp_path):
    kwargs = _study_kwargs(tmp_path / "cache")

    t0 = time.perf_counter()
    cold = run_study(**kwargs)
    cold_s = time.perf_counter() - t0
    assert cold.cache_hits == 0

    t0 = time.perf_counter()
    warm = run_study(**kwargs)
    warm_s = time.perf_counter() - t0
    assert warm.cache_hits == len(warm.outcomes) == len(BENCHMARKS) * 6

    assert dict(warm.results) == dict(cold.results)
    assert cold_s >= 3 * warm_s, (
        f"warm cache not fast enough: cold {cold_s:.3f}s vs warm {warm_s:.3f}s"
    )

    benchmark.extra_info["cold_s"] = round(cold_s, 4)
    benchmark.extra_info["warm_s"] = round(warm_s, 4)
    benchmark.extra_info["speedup"] = round(cold_s / warm_s, 1)
    benchmark.pedantic(lambda: run_study(**kwargs), rounds=3, iterations=1)
