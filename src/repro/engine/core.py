"""The experiment engine: job matrix -> (cached, parallel) results.

:class:`ExperimentEngine` turns a list of :class:`~repro.engine.jobs.Job`
into :class:`JobOutcome` records: each job is first looked up in the
on-disk result cache by content fingerprint; the misses go to
:func:`~repro.engine.batch.run_jobs_batched`, which evaluates each TIMING
cell of two or more cost variants in one batched call and runs every
other job through :func:`~repro.engine.worker.execute_job`, inline when
serial or traced and otherwise over a ``ProcessPoolExecutor`` when
``jobs > 1``.
Outcomes always come back in submission order regardless of completion
order, which is what makes ``--jobs 4`` byte-identical to a serial run.

:func:`run_study` is the public facade (re-exported as
``repro.run_study``): build the paper's ``benchmark x experiment``
matrix on one machine, run it through an engine, and return a
:class:`StudyResult` — a mapping ``benchmark -> [ExperimentResult, ...]``
(directly consumable by every ``repro.analysis.figures`` function) that
also carries the per-job telemetry records.
"""

from __future__ import annotations

import json
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ExperimentError
from repro.experiments_registry import EXPERIMENT_KEYS, ExperimentResult
from repro.obs import core as obs
from repro.programs import BENCHMARKS
from repro.runtime import ExecutionMode

from repro.engine.batch import run_jobs_batched
from repro.engine.cache import RECORD_SCHEMA, CacheBackend, make_cache
from repro.engine.dispatch import LocalDispatcher
from repro.engine.jobs import ConfigValue, Job, MachineSpec

ConfigOverride = Union[Mapping[str, ConfigValue], Iterable[str], None]


@dataclass(frozen=True)
class JobOutcome:
    """One finished job: the submitted :class:`Job`, its full telemetry
    record, and whether it was served from the result cache."""

    job: Job
    record: dict
    cached: bool

    @property
    def result(self) -> ExperimentResult:
        r = self.record["result"]
        return ExperimentResult(
            benchmark=self.record["benchmark"],
            experiment=self.record["experiment"],
            library=self.record["library"],
            static_count=r["static_count"],
            dynamic_count=r["dynamic_count"],
            execution_time=r["execution_time"],
        )


class ExperimentEngine:
    """Runs jobs through the result cache, then the misses through
    :func:`~repro.engine.batch.run_jobs_batched`: batched per cell, the
    rest through a :class:`LocalDispatcher`.

    Parameters
    ----------
    jobs:
        Worker process count; ``None`` or ``1`` runs inline (sharing one
        compile cache across the whole study), ``N > 1`` fans the misses
        that are not batched out over a worker pool.  Batched cells, and
        every miss while tracing is on, run inline whatever the count.
    cache:
        Consult/populate the result cache (default on).
    cache_dir:
        Cache root; defaults to ``.repro-cache/`` (or ``REPRO_CACHE_DIR``).
    """

    def __init__(
        self,
        *,
        jobs: Optional[int] = None,
        cache: bool = True,
        cache_dir: Union[str, Path, None] = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.cache: CacheBackend = make_cache(cache, cache_dir)
        self.dispatcher = LocalDispatcher(workers=jobs)

    def run(self, jobs: Sequence[Job]) -> List[JobOutcome]:
        """Run every job, returning outcomes in submission order."""
        with obs.span("engine:run", jobs=len(jobs), cache=self.cache.kind):
            outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
            misses: List[Tuple[int, Job, str]] = []
            trace = obs.active_trace()
            for i, job in enumerate(jobs):
                fp = job.fingerprint()
                record = self.cache.get(fp)
                if record is None:
                    obs.add("engine.result_cache.miss")
                    misses.append((i, job, fp))
                    continue
                obs.add("engine.result_cache.hit")
                record = dict(record, cache_hit=True)
                if trace is not None:
                    record["trace"] = trace
                    obs.event(
                        "engine.job",
                        benchmark=job.benchmark,
                        experiment=job.experiment,
                        status="cached",
                    )
                outcomes[i] = JobOutcome(job=job, record=record, cached=True)

            todo = [job for _, job, _ in misses]
            records = run_jobs_batched(self.dispatcher, todo)
            for (i, job, fp), record in zip(misses, records):
                self.cache.put(fp, record)
                if trace is not None:
                    # the outcome copy carries the run's trace id into
                    # telemetry envelopes; the cached record stays
                    # trace-free (it is content, not provenance)
                    record = dict(record, trace=trace)
                outcomes[i] = JobOutcome(job=job, record=record, cached=False)
            return outcomes


def build_matrix(
    benchmarks: Iterable[str],
    keys: Iterable[str] = EXPERIMENT_KEYS,
    machine: Union[MachineSpec, str, None] = None,
    config_overrides: Optional[Mapping[str, ConfigOverride]] = None,
    mode: Union[ExecutionMode, str] = ExecutionMode.TIMING,
) -> List[Job]:
    """The study's job matrix: every benchmark under every key, in the
    paper's presentation order."""
    spec = MachineSpec.coerce(machine)
    mode_str = mode.value if isinstance(mode, ExecutionMode) else str(mode)
    keys = tuple(keys)
    return [
        Job.make(
            benchmark=bench,
            experiment=key,
            machine=spec,
            config=_coerce_config((config_overrides or {}).get(bench)),
            mode=mode_str,
        )
        for bench in benchmarks
        for key in keys
    ]


def _coerce_config(override: ConfigOverride) -> Optional[Dict[str, ConfigValue]]:
    """Accept a mapping or an iterable of ``name=value`` strings."""
    if override is None:
        return None
    if isinstance(override, MappingABC):
        return dict(override)
    from repro.frontend import parse_config_assignments

    return parse_config_assignments(override)


@dataclass
class StudyResult(MappingABC):
    """Engine results shaped like the legacy suite dict.

    Behaves as a mapping ``benchmark -> [ExperimentResult, ...]`` in key
    order — every ``repro.analysis.figures`` function consumes it
    unchanged — while keeping the underlying :class:`JobOutcome` list
    (and so the full telemetry) reachable.
    """

    results: Dict[str, List[ExperimentResult]]
    outcomes: List[JobOutcome] = field(default_factory=list, repr=False)
    #: Where the records went: the cache's ``describe()`` —
    #: ``{"backend": kind, "location": resolved root}`` — so a telemetry
    #: document is attributable to its store (the resolved
    #: ``REPRO_CACHE_DIR`` used to be invisible).
    cache_info: Optional[dict] = None

    def __getitem__(self, benchmark: str) -> List[ExperimentResult]:
        return self.results[benchmark]

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def telemetry(self) -> List[dict]:
        """Per-job telemetry records, in submission order."""
        return [o.record for o in self.outcomes]

    @property
    def cache_hits(self) -> int:
        return sum(o.cached for o in self.outcomes)

    def write_telemetry(self, path: Union[str, Path]) -> Path:
        """Persist the telemetry records as a JSON document.

        The envelope is versioned by the same ``RECORD_SCHEMA`` constant
        the per-job records carry, so the document version can never
        drift from the records inside it; read it back with
        :func:`load_telemetry`.  When the study ran through the engine,
        the envelope also carries its ``cache`` attribution (cache kind
        + resolved root).
        """
        path = Path(path)
        doc = {"schema": RECORD_SCHEMA, "records": self.telemetry}
        if self.cache_info is not None:
            doc["cache"] = self.cache_info
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return path


def load_telemetry(path: Union[str, Path]) -> List[dict]:
    """Read back a telemetry document written by
    :meth:`StudyResult.write_telemetry`.

    Rejects non-telemetry files and unknown schema versions — of the
    envelope *and* of every record inside it — instead of handing the
    caller records shaped for a different engine version.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ExperimentError(f"cannot read telemetry {path}: {exc}") from None
    except ValueError as exc:
        raise ExperimentError(f"telemetry {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("records"), list):
        raise ExperimentError(f"{path} is not a telemetry document")
    if doc.get("schema") != RECORD_SCHEMA:
        raise ExperimentError(
            f"telemetry {path} has envelope schema {doc.get('schema')!r}; "
            f"this version reads schema {RECORD_SCHEMA}"
        )
    for i, record in enumerate(doc["records"]):
        if not isinstance(record, dict) or record.get("schema") != RECORD_SCHEMA:
            raise ExperimentError(
                f"telemetry {path}: record {i} has schema "
                f"{record.get('schema') if isinstance(record, dict) else None!r}; "
                f"expected {RECORD_SCHEMA}"
            )
    return doc["records"]


def run_study(
    *,
    benchmarks: Union[str, Iterable[str]] = BENCHMARKS,
    keys: Iterable[str] = EXPERIMENT_KEYS,
    machine: Union[MachineSpec, str, None] = None,
    nprocs: Optional[int] = None,
    library: Optional[str] = None,
    config_overrides: Optional[Mapping[str, ConfigOverride]] = None,
    mode: Union[ExecutionMode, str] = ExecutionMode.TIMING,
    jobs: Optional[int] = None,
    cache: bool = True,
    cache_dir: Union[str, Path, None] = None,
    telemetry: Union[str, Path, None] = None,
) -> StudyResult:
    """Run the whole-program study through the experiment engine.

    Keyword-only by design: every axis of the matrix is named.

    Parameters
    ----------
    benchmarks:
        Benchmark name(s); defaults to the paper's four.
    keys:
        Experiment keys in output order; defaults to Figure 9's six.
    machine, nprocs, library:
        The target machine — a name (``"t3d"``/``"paragon"``) or a
        :class:`MachineSpec`.  ``nprocs`` defaults to the paper's 64;
        ``library=None`` uses each key's library.
    config_overrides:
        ``benchmark -> overrides`` where overrides are a mapping or an
        iterable of ``"name=value"`` strings (parsed by
        :func:`repro.frontend.parse_config_assignments`).
    mode:
        ``ExecutionMode`` or its value string; TIMING by default.
    jobs, cache, cache_dir:
        Engine knobs — see :class:`ExperimentEngine`.
    telemetry:
        Optional path; when given, the telemetry records are written
        there as JSON.

    Returns
    -------
    StudyResult
        ``benchmark -> [ExperimentResult, ...]`` plus telemetry.
    """
    if isinstance(benchmarks, str):
        benchmarks = (benchmarks,)
    benchmarks = tuple(benchmarks)
    keys = tuple(keys)
    # `nprocs or 64` would silently promote an (invalid) 0 to the paper's
    # default; pass the value through so MachineSpec rejects it
    spec = MachineSpec.coerce(
        machine, nprocs=64 if nprocs is None else nprocs, library=library
    )

    matrix = build_matrix(
        benchmarks,
        keys,
        machine=spec,
        config_overrides=config_overrides,
        mode=mode,
    )
    engine = ExperimentEngine(jobs=jobs, cache=cache, cache_dir=cache_dir)
    outcomes = engine.run(matrix)

    results: Dict[str, List[ExperimentResult]] = {b: [] for b in benchmarks}
    for outcome in outcomes:
        results[outcome.job.benchmark].append(outcome.result)

    study = StudyResult(
        results=results, outcomes=outcomes, cache_info=engine.cache.describe()
    )
    if telemetry is not None:
        study.write_telemetry(telemetry)
    return study
