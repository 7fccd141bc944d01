"""The dispatch layer: how the cache-missing jobs that the engine does
not batch (:mod:`repro.engine.batch`) get executed.

:class:`LocalDispatcher` runs them inline when serial, or ``pool.map``
over a ``ProcessPoolExecutor`` with an amortizing chunksize when
``workers > 1``.  Records come back in submission order, which is what
keeps ``--jobs 4`` byte-identical to a serial run; the same
:func:`~repro.engine.worker.execute_job` produces every record, so
fingerprints and record bytes do not depend on the worker count.

While tracing is on (:func:`repro.obs.core.enabled`), jobs always run
inline, so a trace holds exactly the work of the process that records
it: every span, counter and warning lands in the active recorder as it
happens.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.obs import core as obs

from repro.engine.jobs import Job
from repro.engine.worker import execute_job, job_failure

__all__ = ["LocalDispatcher"]


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
        pooled = bool(
            self.workers
            and self.workers > 1
            and len(jobs) > 1
            and not obs.enabled()
        )
        if pooled:
            from concurrent.futures import ProcessPoolExecutor

            # Larger chunks amortize pickling/IPC; the /4 keeps enough
            # chunks in flight to balance uneven job costs.
            chunksize = max(1, len(jobs) // (self.workers * 4))
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                return _drain(
                    pool.map(execute_job, jobs, chunksize=chunksize), jobs
                )
        records = []
        for job in jobs:
            records.append(execute_job(job))
            obs.event(
                "engine.job",
                benchmark=job.benchmark,
                experiment=job.experiment,
                status="done",
            )
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
            raise job_failure(todo[len(records)], exc) from exc
        records.append(record)
