"""The parallel, content-addressed experiment engine.

The paper's whole-program study is a job matrix — ``experiment key x
benchmark x machine`` — that is embarrassingly parallel and highly
cacheable.  This package runs it that way:

* :mod:`repro.engine.jobs` — picklable :class:`Job`/:class:`MachineSpec`
  value objects and SHA-256 content fingerprints;
* :mod:`repro.engine.worker` — job execution with a two-level compile
  cache (front end once per benchmark, optimizer once per opt level);
* :mod:`repro.engine.cache` — the result cache: :class:`DirCache`
  (the ``.repro-cache/`` layout) and :class:`NullCache` (``--no-cache``);
* :mod:`repro.engine.dispatch` — :class:`LocalDispatcher`, which runs
  cache misses inline or over a process pool;
* :mod:`repro.engine.core` — :class:`ExperimentEngine` (cache
  partition + dispatch) and the :func:`run_study` facade;
* :mod:`repro.engine.batch` — cost-only variant matrices through one
  :func:`repro.runtime.simulate_many` call per cell, records
  interchangeable with the scalar worker's.

See ``docs/ENGINE.md`` for the job-matrix model, the result cache,
and the telemetry schema.
"""

from repro.engine.batch import execute_cell_batched, run_jobs_batched
from repro.engine.cache import (
    RECORD_SCHEMA,
    CacheBackend,
    CacheStats,
    DirCache,
    NullCache,
    ResultCache,
    default_cache_root,
    make_cache,
)
from repro.engine.core import (
    ExperimentEngine,
    JobOutcome,
    StudyResult,
    build_matrix,
    load_telemetry,
    partition_jobs,
    run_study,
)
from repro.engine.dispatch import LocalDispatcher
from repro.engine.jobs import ENGINE_VERSION, Job, MachineSpec, source_sha
from repro.engine.worker import clear_compile_cache, execute_job

__all__ = [
    "CacheBackend",
    "CacheStats",
    "DirCache",
    "ENGINE_VERSION",
    "ExperimentEngine",
    "Job",
    "JobOutcome",
    "LocalDispatcher",
    "MachineSpec",
    "NullCache",
    "RECORD_SCHEMA",
    "ResultCache",
    "StudyResult",
    "build_matrix",
    "clear_compile_cache",
    "default_cache_root",
    "execute_cell_batched",
    "execute_job",
    "load_telemetry",
    "make_cache",
    "partition_jobs",
    "run_jobs_batched",
    "run_study",
    "source_sha",
]
