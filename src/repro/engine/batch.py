"""Batched execution of cost-only variant jobs.

A sweep whose axes touch only machine *costs* (never ``nprocs``) builds
a job matrix where every ``benchmark x experiment`` cell repeats across
N machine variants.  :func:`run_jobs_batched` runs such a matrix through
one :func:`repro.runtime.simulate_many` call per cell instead of N
engine jobs — same result cache, same record shape, same submission
order.

The records a batched cell produces are interchangeable with the scalar
:func:`~repro.engine.worker.execute_job` records: the batched evaluator
is bit-identical to the scalar fast path per variant, each job is still
fingerprinted and cached individually, and the only addition is a
``"batched": True`` marker.  A sweep warmed by a batched run therefore
serves scalar re-runs from cache, and vice versa.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments_registry import experiment_spec
from repro.machine import pack_variant_specs
from repro.obs import core as obs
from repro.runtime import ExecutionMode, SimOptions, simulate_many

from repro.engine.core import ExperimentEngine, JobOutcome, partition_jobs
from repro.engine.jobs import Job
from repro.engine.worker import compile_cached, job_record

__all__ = ["execute_cell_batched", "run_jobs_batched"]

#: the per-cell grouping key: jobs differing only in machine variant
#: share one compiled program and one batched evaluation
_CellKey = Tuple[str, str, tuple, str]


def _cell_key(job: Job) -> _CellKey:
    return (job.benchmark, job.experiment, job.config, job.mode)


def run_jobs_batched(
    engine: ExperimentEngine, jobs: Sequence[Job]
) -> List[JobOutcome]:
    """Run a cost-only variant matrix, batching each cell's misses.

    Mirrors :meth:`ExperimentEngine.run`'s contract — per-job cache
    lookup first, outcomes in submission order — but executes the
    misses cell-by-cell through :func:`execute_cell_batched` instead of
    job-by-job (the engine's dispatcher is not used; the batched
    evaluator replaces that parallelism).
    """
    outcomes, misses = partition_jobs(engine.cache, jobs)

    cells: Dict[_CellKey, List[tuple]] = {}
    for entry in misses:
        cells.setdefault(_cell_key(entry[1]), []).append(entry)

    trace = obs.active_trace()
    for entries in cells.values():
        records = execute_cell_batched([job for _, job, _ in entries])
        for (i, job, fp), record in zip(entries, records):
            engine.cache.put(fp, record)
            if trace is not None:
                record = dict(record, trace=trace)
                obs.event(
                    "engine.job",
                    benchmark=job.benchmark,
                    experiment=job.experiment,
                    status="batched",
                )
            outcomes[i] = JobOutcome(job=job, record=record, cached=False)

    return [o for o in outcomes if o is not None]


def execute_cell_batched(cell_jobs: Sequence[Job]) -> List[dict]:
    """One cell's jobs (same benchmark/experiment/config/mode, variant
    machines) through a single batched evaluation, returning one record
    per job in input order.

    Failures are wrapped as :class:`ExperimentError` naming the cell,
    matching :func:`~repro.engine.worker.execute_job`.
    """
    job0 = cell_jobs[0]
    try:
        return _execute_cell(cell_jobs)
    except ExperimentError:
        raise
    except Exception as exc:
        raise ExperimentError(
            f"batched cell failed for ({job0.benchmark}, {job0.experiment}, "
            f"{job0.effective_library()}): {exc}"
        ) from exc


def _execute_cell(cell_jobs: Sequence[Job]) -> List[dict]:
    started = time.time()
    t_total = time.perf_counter()
    job0 = cell_jobs[0]
    with obs.span(
        "cell:batched",
        benchmark=job0.benchmark,
        experiment=job0.experiment,
        machine=job0.machine.name,
        nprocs=job0.machine.nprocs,
        variants=len(cell_jobs),
    ):
        spec = experiment_spec(job0.experiment)
        libraries = {job.effective_library() for job in cell_jobs}
        if len(libraries) != 1:
            raise ExperimentError(
                f"batched cell mixes libraries {sorted(libraries)}"
            )
        # content-keyed packing memo: every cell of a sweep shares the
        # same variant list, so the (V,)-stacked cost tensors are built
        # once per sweep instead of once per cell
        matrix = pack_variant_specs(
            job0.machine.name,
            job0.machine.nprocs,
            job0.effective_library(),
            [job.machine.overrides for job in cell_jobs],
        )

        merged = job0.merged_config()
        config_items = tuple(sorted(merged.items()))
        program, pipeline, compile_s, optimize_s, lowered_hit, optimized_hit = (
            compile_cached(job0.benchmark, config_items, spec.opt)
        )

        t0 = time.perf_counter()
        batch = simulate_many(
            program,
            matrix,
            options=SimOptions(mode=ExecutionMode(job0.mode)),
        )
        simulate_s = time.perf_counter() - t0

    run = batch.run(program.name)
    # per-record attribution of the shared phases: the batch's wall time
    # is split evenly, compile telemetry lands on the first record (the
    # later variants would have been compile-cache hits serially anyway)
    per_simulate = simulate_s / len(cell_jobs)
    total_s = time.perf_counter() - t_total
    records: List[dict] = []
    for v, job in enumerate(cell_jobs):
        records.append(
            job_record(
                job,
                run,
                run.times[v],
                library=matrix.base.library,
                config=merged,
                pipeline=pipeline,
                timings={
                    "compile_s": compile_s if v == 0 else 0.0,
                    "optimize_s": optimize_s if v == 0 else 0.0,
                    "simulate_s": per_simulate,
                    "total_s": total_s / len(cell_jobs),
                },
                compile_cache={
                    "lowered_hit": lowered_hit if v == 0 else True,
                    "optimized_hit": optimized_hit if v == 0 else True,
                },
                started=started,
                batched=True,
            )
        )
    return records
