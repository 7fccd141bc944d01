"""Job execution and the per-process compile cache.

:func:`execute_job` is the function the engine submits — inline for
serial runs, through a ``ProcessPoolExecutor`` for parallel ones — so it
must be a module-level importable and everything it touches picklable.

The compile cache is two-level, exploiting the structure of the paper's
study:

* **lowered** programs are keyed by ``(source hash, merged config)`` —
  the front end (parse / analyze / lower) runs once per benchmark per
  process, shared by all six experiment keys;
* **optimized** programs are keyed by ``(source hash, merged config,
  OptimizationConfig)`` — each program is optimized once *per opt
  level*, not once per cell: ``pl`` and ``pl_shmem`` resolve to the same
  ``OptimizationConfig.full()`` and reuse one optimized program, since
  the library is a machine property, not a compiler property.  The
  per-pass :class:`~repro.comm.PipelineReport` of the optimization run
  is cached alongside the program, so cache hits still carry full
  pipeline telemetry.

Reuse is sound because :func:`repro.comm.optimize` returns a fresh
program (documented non-mutating) and :func:`repro.runtime.simulate`
never writes into the program it runs — the paper-table benchmarks
already re-simulate one program object repeatedly.

Caches are per-process: the serial path shares one across the whole
study, each pool worker warms its own.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Tuple, Union

from repro.comm import OptimizationConfig, optimize_with_report
from repro.errors import ExperimentError
from repro.experiments_registry import experiment_spec
from repro.ir.nodes import IRProgram
from repro.obs import core as obs
from repro.programs import benchmark_source
from repro.programs.common import compile_source
from repro.runtime import BatchRun, ExecutionMode, RunResult, SimOptions, simulate

from repro.engine.cache import RECORD_SCHEMA
from repro.engine.jobs import ConfigValue, Job, source_sha

_ConfigItems = Tuple[Tuple[str, ConfigValue], ...]

_LOWERED: Dict[Tuple[str, _ConfigItems], IRProgram] = {}
_OPTIMIZED: Dict[
    Tuple[str, _ConfigItems, OptimizationConfig], Tuple[IRProgram, dict]
] = {}


def clear_compile_cache() -> None:
    """Drop this process's compiled programs (tests; long sessions)."""
    _LOWERED.clear()
    _OPTIMIZED.clear()


def compile_cached(
    benchmark: str, config_items: _ConfigItems, opt: OptimizationConfig
) -> Tuple[IRProgram, dict, float, float, bool, bool]:
    """An optimized program for one benchmark, through the two-level
    cache.

    Returns ``(program, pipeline_report, compile_seconds,
    optimize_seconds, lowered_hit, optimized_hit)``; the report is the
    JSON-safe :meth:`~repro.comm.PipelineReport.as_dict` form and the
    wall times are 0.0 for phases served from cache.
    """
    sha = source_sha(benchmark)
    opt_key = (sha, config_items, opt)
    cached = _OPTIMIZED.get(opt_key)
    if cached is not None:
        obs.add("engine.compile_cache.optimized_hit")
        program, report = cached
        return program, report, 0.0, 0.0, True, True

    obs.add("engine.compile_cache.optimized_miss")
    low_key = (sha, config_items)
    lowered = _LOWERED.get(low_key)
    lowered_hit = lowered is not None
    obs.add(
        "engine.compile_cache.lowered_hit"
        if lowered_hit
        else "engine.compile_cache.lowered_miss"
    )
    compile_s = 0.0
    if lowered is None:
        t0 = time.perf_counter()
        lowered = compile_source(
            benchmark_source(benchmark),
            f"{benchmark}.zl",
            dict(config_items),
            opt=None,
        )
        compile_s = time.perf_counter() - t0
        _LOWERED[low_key] = lowered

    t0 = time.perf_counter()
    program, pipeline_report = optimize_with_report(lowered, opt)
    optimize_s = time.perf_counter() - t0
    report = pipeline_report.as_dict()
    _OPTIMIZED[opt_key] = (program, report)
    return program, report, compile_s, optimize_s, lowered_hit, False


def job_failure(job: Job, exc: BaseException) -> ExperimentError:
    """Name the job that died — a bare worker traceback loses which cell
    of a 24-job matrix failed."""
    return ExperimentError(
        f"job failed for ({job.benchmark}, {job.experiment}, "
        f"{job.effective_library()}): {exc}"
    )


def execute_job(job: Job) -> dict:
    """Run one job and return its JSON-safe record (result + telemetry).

    The record is exactly what the result cache stores and what
    :class:`~repro.engine.core.JobOutcome` reconstructs an
    :class:`~repro.experiments_registry.ExperimentResult` from — floats
    survive the JSON round trip bit-exactly, so cached and fresh runs
    render byte-identical tables.

    Failures are re-raised as :class:`~repro.errors.ExperimentError`
    naming the job, so a pooled study reports which matrix cell died
    instead of a bare worker traceback.
    """
    try:
        return _execute_job(job)
    except ExperimentError:
        raise
    except Exception as exc:
        raise job_failure(job, exc) from exc


def _execute_job(job: Job) -> dict:
    started = time.time()
    t_total = time.perf_counter()
    with obs.span(
        "job",
        benchmark=job.benchmark,
        experiment=job.experiment,
        machine=job.machine.name,
        nprocs=job.machine.nprocs,
        variant=job.machine.variant,
    ):
        spec = experiment_spec(job.experiment)
        machine = job.machine.build(spec.library)

        merged = job.merged_config()
        config_items = tuple(sorted(merged.items()))
        program, pipeline, compile_s, optimize_s, lowered_hit, optimized_hit = (
            compile_cached(job.benchmark, config_items, spec.opt)
        )

        t0 = time.perf_counter()
        result = simulate(
            program,
            machine,
            options=SimOptions(mode=ExecutionMode(job.mode)),
        )
        simulate_s = time.perf_counter() - t0

    return job_record(
        job,
        result,
        result.time,
        library=machine.library,
        config=merged,
        pipeline=pipeline,
        timings={
            "compile_s": compile_s,
            "optimize_s": optimize_s,
            "simulate_s": simulate_s,
            "total_s": time.perf_counter() - t_total,
        },
        compile_cache={
            "lowered_hit": lowered_hit,
            "optimized_hit": optimized_hit,
        },
        started=started,
    )


def job_record(
    job: Job,
    run: Union[RunResult, BatchRun],
    execution_time: float,
    *,
    library: str,
    config: Dict,
    pipeline: dict,
    timings: Dict[str, float],
    compile_cache: Dict[str, bool],
    started: float,
    batched: bool = False,
) -> dict:
    """The cached record of one finished job, scalar or batched.

    ``run`` is the job's own run or its cell's batched run (both carry
    the counts, instrumentation, warnings and fast-path stats read
    here), and ``execution_time`` the job's simulated time.  A batched
    record differs only by ``"batched": True``."""
    record = {
        "schema": RECORD_SCHEMA,
        "fingerprint": job.fingerprint(),
        "benchmark": job.benchmark,
        "experiment": job.experiment,
        "machine": job.machine.name,
        "nprocs": job.machine.nprocs,
        # swept-variant identity: "base" plus {} for the calibrated
        # machines (readers of pre-sweep records must .get these)
        "machine_variant": job.machine.variant,
        "machine_overrides": {k: v for k, v in job.machine.overrides},
        "library": library,
        "mode": job.mode,
        "config": {str(k): v for k, v in config.items()},
        "result": {
            "static_count": int(run.static_comm_count),
            "dynamic_count": int(run.dynamic_comm_count),
            "execution_time": float(execution_time),
            "total_messages": int(run.instrument.total_messages),
            "total_bytes": int(run.instrument.total_bytes),
            "warnings": list(run.warnings),
            "fastpath": (
                run.fastpath.as_dict() if run.fastpath is not None else None
            ),
        },
        "pipeline": pipeline,
        "timings": timings,
        "compile_cache": compile_cache,
        "cache_hit": False,
        "worker_pid": os.getpid(),
        "started_at": started,
    }
    if batched:
        record["batched"] = True
    return record
