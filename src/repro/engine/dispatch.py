"""The dispatch layer: how a list of cache-missing jobs gets executed.

:class:`LocalDispatcher` runs them inline when serial, or ``pool.map``
over a ``ProcessPoolExecutor`` with an amortizing chunksize when
``workers > 1``.  Records come back in submission order, which is what
keeps ``--jobs 4`` byte-identical to a serial run; the same
:func:`~repro.engine.worker.execute_job` produces every record, so
fingerprints and record bytes do not depend on the worker count.

When the coordinator is tracing, every pool worker starts with the
run's trace context (:func:`repro.obs.distributed.worker_init`), and the
spans and metrics each job captured in its worker are stitched back
(:func:`repro.obs.distributed.absorb`) before the record reaches the
result cache or the caller.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.obs import core as obs
from repro.obs import distributed

from repro.engine.jobs import Job
from repro.engine.worker import execute_job

__all__ = ["LocalDispatcher"]


def _job_failure(job: Job, exc: BaseException) -> ExperimentError:
    """Name the job that died — a bare worker traceback loses which cell
    of a 24-job matrix failed."""
    return ExperimentError(
        f"job failed for ({job.benchmark}, {job.experiment}, "
        f"{job.effective_library()}): {exc}"
    )


def _pool_kwargs() -> dict:
    """Extra ``ProcessPoolExecutor`` kwargs: when the coordinator is
    tracing, initialize every pool worker with the run's trace id and
    the enclosing span id so per-job captures stitch under it (no-op
    kwargs otherwise — the disabled path constructs the pool exactly as
    before)."""
    parent = obs.trace_parent()
    if parent is None:
        return {}
    return {"initializer": distributed.worker_init, "initargs": parent}


def _job_event(job: Job, status: str) -> None:
    """One ``engine.job`` lifecycle event per job completion (cache hits
    emit theirs with ``status="cached"`` in the engine's partition)."""
    if not obs.enabled():
        return
    obs.event(
        "engine.job",
        benchmark=job.benchmark,
        experiment=job.experiment,
        status=status,
    )


class LocalDispatcher:
    """The engine loop: inline, or ``pool.map`` over ``workers``."""

    def __init__(self, *, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def dispatch(self, jobs: Sequence[Job]) -> List[dict]:
        if not jobs:
            return []
        obs.add("engine.dispatch.jobs", len(jobs))
        pooled = bool(self.workers and self.workers > 1 and len(jobs) > 1)
        if pooled:
            from concurrent.futures import ProcessPoolExecutor

            # Larger chunks amortize pickling/IPC; the /4 keeps enough
            # chunks in flight to balance uneven job costs.
            chunksize = max(1, len(jobs) // (self.workers * 4))
            with ProcessPoolExecutor(
                max_workers=self.workers, **_pool_kwargs()
            ) as pool:
                return _drain(
                    pool.map(execute_job, jobs, chunksize=chunksize), jobs
                )
        records = []
        for job in jobs:
            try:
                records.append(execute_job(job))
            except ExperimentError:
                raise
            except Exception as exc:
                raise _job_failure(job, exc) from exc
            _job_event(job, "done")
        return records


def _drain(results: Iterable[dict], todo: Sequence[Job]) -> List[dict]:
    """Collect pool results, re-raising the first failure with a job's
    identity.  :func:`~repro.engine.worker.execute_job` already names the
    exact job in its :class:`ExperimentError`; this catch covers failures
    the worker could not wrap (a killed process, an unpicklable record),
    blaming the first undelivered job (``pool.map`` yields in submission
    order, so that is the count of records collected so far)."""
    records: List[dict] = []
    it = iter(results)
    while True:
        try:
            record = next(it)
        except StopIteration:
            return records
        except ExperimentError:
            raise
        except Exception as exc:
            raise _job_failure(todo[len(records)], exc) from exc
        distributed.absorb(record)
        _job_event(todo[len(records)], "done")
        records.append(record)
