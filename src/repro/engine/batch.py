"""The engine's routing of cache misses: one batched evaluation per cell.

A *cell* is every job that differs only in its machine's cost overrides:
same benchmark, experiment, config, mode, machine name, processor count
and effective library, so one compiled program and one packed variant
matrix serve all of them.  :func:`run_jobs_batched` runs each TIMING
cell of two or more jobs through one :func:`repro.runtime.simulate_many`
call (:func:`execute_cell_batched`) and hands every other job to the
dispatcher, returning one record per job in submission order.

A batched record is interchangeable with the scalar
:func:`~repro.engine.worker.execute_job` record of its job: the batched
core is bit-identical to the scalar fast path per variant, each job is
still fingerprinted and cached individually, and the only addition is a
``"batched": True`` marker.  A result cache filled by batched runs
therefore serves per-job runs, and vice versa.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments_registry import experiment_spec
from repro.machine import pack_variant_specs
from repro.obs import core as obs
from repro.runtime import ExecutionMode, simulate_many

from repro.engine.dispatch import LocalDispatcher
from repro.engine.jobs import Job
from repro.engine.worker import compile_cached, job_record

__all__ = ["execute_cell_batched", "run_jobs_batched"]

#: what the jobs of one cell share: everything but the cost overrides
_CellKey = Tuple[str, str, tuple, str, str, int, str]


def _cell_key(job: Job) -> _CellKey:
    return (
        job.benchmark,
        job.experiment,
        job.config,
        job.mode,
        job.machine.name,
        job.machine.nprocs,
        job.effective_library(),
    )


def run_jobs_batched(
    dispatcher: LocalDispatcher, jobs: Sequence[Job]
) -> List[dict]:
    """Run ``jobs``, one record each in submission order: every TIMING
    cell of two or more jobs as one batched evaluation, every other job
    through ``dispatcher``."""
    cells: Dict[_CellKey, List[int]] = {}
    for i, job in enumerate(jobs):
        cells.setdefault(_cell_key(job), []).append(i)

    records: List[Optional[dict]] = [None] * len(jobs)
    single: List[int] = []
    for key, members in cells.items():
        if len(members) < 2 or key[3] != ExecutionMode.TIMING.value:
            single.extend(members)
            continue
        obs.add("engine.batched.jobs", len(members))
        cell = execute_cell_batched([jobs[i] for i in members])
        for i, record in zip(members, cell):
            records[i] = record
            obs.event(
                "engine.job",
                benchmark=jobs[i].benchmark,
                experiment=jobs[i].experiment,
                status="batched",
            )
    single.sort()
    for i, record in zip(single, dispatcher.dispatch([jobs[i] for i in single])):
        records[i] = record
    return records


def execute_cell_batched(cell_jobs: Sequence[Job]) -> List[dict]:
    """One cell's jobs through a single batched evaluation, returning
    one record per job in input order.

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
        run = simulate_many(program, matrix)
        simulate_s = time.perf_counter() - t0

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
