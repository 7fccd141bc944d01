"""Sweep expansion and execution.

:func:`expand_axes` takes the cartesian product of the axes into
:class:`SweepPoint`\\ s — each one a derived
:class:`~repro.engine.MachineSpec` (``nprocs`` swept through the spec's
processor count, every other axis through a validated
:mod:`repro.machine.variants` override) whose machine is probe-built
eagerly, so an unknown primitive name or out-of-domain value fails
before any job runs.

:func:`run_sweep` then builds the ``benchmark x experiment`` matrix for
every point with :func:`~repro.engine.core.build_matrix` and submits the
whole thing as *one* job list to *one*
:class:`~repro.engine.ExperimentEngine` — swept cells ride the same
result cache, process pool, and telemetry as the paper study, and each
variant's jobs fingerprint independently through the override content.

The engine batches on its own: the TIMING misses of one ``benchmark x
experiment`` cell at one processor count, two or more cost variants,
run as one :func:`repro.simulate_many` call, bit-identical to the
per-job path and writing the same per-variant cache records.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.cache import RECORD_SCHEMA
from repro.engine.core import (
    ConfigOverride,
    ExperimentEngine,
    JobOutcome,
    StudyResult,
    build_matrix,
)
from repro.engine.jobs import MachineSpec
from repro.errors import MachineError
from repro.experiments_registry import EXPERIMENT_KEYS, ExperimentResult
from repro.machine.variants import OverrideValue
from repro.obs import core as obs
from repro.programs import BENCHMARKS
from repro.runtime import ExecutionMode
from repro.sweep.axes import NPROCS_AXIS, AxisValue, SweepAxis

__all__ = ["SweepPoint", "SweepResult", "expand_axes", "run_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the sweep grid: axis coordinates and the derived
    machine they resolve to."""

    coords: Tuple[Tuple[str, AxisValue], ...]
    machine: MachineSpec

    @property
    def variant(self) -> str:
        """The machine's content-stable variant id (``"base"`` when only
        ``nprocs`` is swept)."""
        return self.machine.variant

    def coord(self, axis: str) -> AxisValue:
        for name, value in self.coords:
            if name == axis:
                return value
        raise KeyError(f"sweep point has no axis {axis!r}")

    def label(self) -> str:
        if not self.coords:
            return "base"
        return ",".join(f"{name}={value:g}" for name, value in self.coords)


def expand_axes(
    axes: Sequence[SweepAxis],
    base: Union[MachineSpec, str, None] = None,
    library: Optional[str] = None,
) -> Tuple[SweepPoint, ...]:
    """The cartesian product of ``axes`` over a base machine spec.

    Points come out in row-major order (last axis fastest), each with
    its machine probe-built once for validation.  Axis overrides stack
    on top of any overrides already pinned on ``base``; an axis may
    re-sweep a pinned path (the axis value wins).
    """
    spec = MachineSpec.coerce(base, library=library)
    names = [axis.name for axis in axes]
    if len(set(names)) != len(names):
        raise MachineError(f"duplicate sweep axes in {names}")

    points: List[SweepPoint] = []
    for combo in itertools.product(*(axis.values for axis in axes)):
        coords = tuple(zip(names, combo))
        nprocs = spec.nprocs
        overrides: Dict[str, OverrideValue] = dict(spec.overrides)
        for name, value in coords:
            if name == NPROCS_AXIS:
                nprocs = int(value)
            else:
                overrides[name] = value
        machine = MachineSpec.coerce(spec, nprocs=nprocs, overrides=overrides)
        machine.build()  # validate primitive names / grids eagerly
        points.append(SweepPoint(coords=coords, machine=machine))
    return tuple(points)


@dataclass
class SweepResult:
    """Every outcome of a sweep, sliceable by point.

    ``outcomes`` is flat in submission order — one
    ``len(benchmarks) * len(keys)`` block per point — exactly as the
    engine returned them.  :meth:`study` reshapes one point's block into
    a :class:`~repro.engine.StudyResult` so the whole
    :mod:`repro.analysis.figures` surface works per swept cell.
    """

    axes: Tuple[SweepAxis, ...]
    points: Tuple[SweepPoint, ...]
    benchmarks: Tuple[str, ...]
    keys: Tuple[str, ...]
    outcomes: List[JobOutcome] = field(repr=False)
    #: which cache served the run (``DirCache.describe()`` or
    #: ``NullCache.describe()``)
    cache_info: Optional[dict] = None

    @property
    def cells_per_point(self) -> int:
        return len(self.benchmarks) * len(self.keys)

    @property
    def cells(self) -> int:
        return len(self.outcomes)

    @property
    def cache_hits(self) -> int:
        return sum(o.cached for o in self.outcomes)

    def point_outcomes(self, index: int) -> List[JobOutcome]:
        n = self.cells_per_point
        return self.outcomes[index * n : (index + 1) * n]

    def iter_points(self) -> Iterator[Tuple[SweepPoint, List[JobOutcome]]]:
        for i, point in enumerate(self.points):
            yield point, self.point_outcomes(i)

    def study(self, index: int) -> StudyResult:
        """One point's block as a figures-compatible study result."""
        block = self.point_outcomes(index)
        results: Dict[str, List[ExperimentResult]] = {
            b: [] for b in self.benchmarks
        }
        for outcome in block:
            results[outcome.job.benchmark].append(outcome.result)
        return StudyResult(results=results, outcomes=block)

    @property
    def telemetry(self) -> List[dict]:
        return [o.record for o in self.outcomes]

    def write_telemetry(self, path: Union[str, Path]) -> Path:
        """Persist the flat telemetry records (same envelope as
        :meth:`~repro.engine.StudyResult.write_telemetry`, readable with
        :func:`repro.load_telemetry`)."""
        path = Path(path)
        doc = {"schema": RECORD_SCHEMA, "records": self.telemetry}
        if self.cache_info is not None:
            doc["cache"] = self.cache_info
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return path


def run_sweep(
    *,
    axes: Iterable[SweepAxis],
    benchmarks: Union[str, Iterable[str]] = BENCHMARKS,
    keys: Iterable[str] = EXPERIMENT_KEYS,
    machine: Union[MachineSpec, str, None] = None,
    library: Optional[str] = None,
    overrides: Optional[Mapping[str, OverrideValue]] = None,
    config_overrides: Optional[Mapping[str, ConfigOverride]] = None,
    mode: Union[ExecutionMode, str] = ExecutionMode.TIMING,
    jobs: Optional[int] = None,
    cache: bool = True,
    cache_dir: Union[str, Path, None] = None,
    telemetry: Union[str, Path, None] = None,
) -> SweepResult:
    """Run the benchmark x experiment matrix over every sweep point.

    Keyword-only, mirroring :func:`repro.run_study`; the extra knobs:

    axes:
        The swept parameters (:class:`SweepAxis` list); the grid is
        their cartesian product.
    overrides:
        Machine-parameter overrides pinned at *every* point (e.g. hold
        ``prim.*.per_byte_beyond`` high while sweeping the knee).
    machine:
        The base machine (name or spec) the variants derive from; its
        ``nprocs`` is the default when no ``nprocs`` axis is given.

    All cells go through one engine run: the on-disk result cache keys
    each variant by override content, so re-invoking a sweep (or growing
    one axis) only simulates the new points, and the engine evaluates
    the cost variants of each cell and processor count in one batched
    call (``jobs`` runs the rest).
    """
    axes = tuple(axes)
    if not axes:
        raise MachineError("run_sweep needs at least one axis")
    if isinstance(benchmarks, str):
        benchmarks = (benchmarks,)
    benchmarks = tuple(benchmarks)
    keys = tuple(keys)

    base = MachineSpec.coerce(machine, library=library, overrides=overrides)
    points = expand_axes(axes, base)

    with obs.span(
        "sweep:run",
        axes=" ".join(a.describe() for a in axes),
        points=len(points),
        machine=base.name,
    ):
        matrix = []
        for point in points:
            matrix.extend(
                build_matrix(
                    benchmarks,
                    keys,
                    machine=point.machine,
                    config_overrides=config_overrides,
                    mode=mode,
                )
            )
        obs.add("sweep.points", len(points))
        obs.add("sweep.cells", len(matrix))

        engine = ExperimentEngine(jobs=jobs, cache=cache, cache_dir=cache_dir)
        outcomes = engine.run(matrix)
        obs.add("sweep.cache_hits", sum(o.cached for o in outcomes))

    result = SweepResult(
        axes=axes,
        points=points,
        benchmarks=benchmarks,
        keys=keys,
        outcomes=outcomes,
        cache_info=engine.cache.describe(),
    )
    if telemetry is not None:
        result.write_telemetry(telemetry)
    return result
