"""Adaptive refinement of one cost axis toward its crossovers.

A dense sweep spends almost all of its batched-simulation work on
variants far from any win/loss flip.  :func:`run_refined_sweep` spends
it only where the answer changes: evaluate a coarse grid in one batched
pass per ``benchmark x experiment`` cell, find every interval where an
incremental ratio crosses the threshold **or** the best key flips
(which experiment owns the minimum time), then bisect only those
intervals until each is narrower than the requested tolerance.  Both
come from the shared scans of :mod:`repro.analysis.scaling`
(:func:`~repro.analysis.scaling.scan_crossovers`,
:func:`~repro.analysis.scaling.fastest_keys`), and the crossings the
last round found, of the same threshold, are what the run reports.

Every round is one :func:`repro.sweep.run_sweep` call over just the new
axis values, so it rides the engine's content-addressed result cache —
re-running a refinement (or tightening its tolerance) only simulates
the genuinely new points — and a round that adds two or more values
evaluates each cell's new variants in one batched call, through the
incremental :class:`repro.runtime.BatchEvaluator` append path and the
memoized variant packing.  Evaluated points are bit-identical to a
dense grid containing the same values: refinement changes *which*
variants run, never *how*.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.core import ConfigOverride, JobOutcome
from repro.engine.jobs import MachineSpec
from repro.errors import MachineError
from repro.experiments_registry import EXPERIMENT_KEYS
from repro.machine import variants as machine_variants
from repro.obs import core as obs
from repro.programs import BENCHMARKS
from repro.sweep.axes import NPROCS_AXIS, SweepAxis
from repro.sweep.core import SweepResult, run_sweep

if TYPE_CHECKING:  # sweep <-> analysis import cycle: resolved lazily
    from repro.analysis.scaling import Crossover

__all__ = ["RefinedSweep", "WinnerFlip", "run_refined_sweep"]


@dataclass(frozen=True)
class WinnerFlip:
    """Between two adjacent evaluated axis values, a different
    experiment key owns the minimum time."""

    benchmark: str
    x_low: float
    x_high: float
    from_key: str
    to_key: str


@dataclass
class RefinedSweep:
    """A refinement run: the merged sweep plus what drove it.

    ``sweep`` holds every evaluated point in axis order and is a plain
    :class:`~repro.sweep.SweepResult` — the whole scaling/figures
    surface applies unchanged.
    """

    sweep: SweepResult
    axis: str
    lo: float
    hi: float
    tol: float
    threshold: float
    rounds: int
    #: axis values evaluated per round, in evaluation order
    round_values: List[List[float]]
    #: per-round content fingerprint (sha256 over the round's inputs)
    round_fingerprints: List[str]
    crossovers: List[Crossover] = field(default_factory=list)
    winner_flips: List[WinnerFlip] = field(default_factory=list)

    @property
    def points_evaluated(self) -> int:
        return len(self.sweep.points)

    @property
    def dense_points(self) -> int:
        """Points an equivalent dense grid (step ``tol`` over
        ``[lo, hi]``) would have evaluated."""
        span = self.hi - self.lo
        steps = max(1, int(-(-span // self.tol)))  # ceil
        return steps + 1

    @property
    def savings(self) -> float:
        """Dense-grid evaluations per refined evaluation (>1 means the
        refinement did less work than the dense grid)."""
        return self.dense_points / max(1, self.points_evaluated)


def _round_fingerprint(
    axis: str,
    values: Sequence[float],
    benchmarks: Sequence[str],
    keys: Sequence[str],
    machine: MachineSpec,
    threshold: float,
) -> str:
    payload = json.dumps(
        {
            "axis": axis,
            "values": list(values),
            "benchmarks": list(benchmarks),
            "keys": list(keys),
            "machine": machine.name,
            "nprocs": machine.nprocs,
            "library": machine.library,
            "overrides": list(machine.overrides),
            "threshold": threshold,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _merge_rounds(
    axis: str,
    rounds: Sequence[SweepResult],
) -> SweepResult:
    """One :class:`SweepResult` over every round, points in axis order
    with each point's outcome block carried along."""
    pairs: List[Tuple[object, List[JobOutcome]]] = []
    for sweep in rounds:
        pairs.extend(sweep.iter_points())
    pairs.sort(key=lambda pb: pb[0].coord(axis))
    first = rounds[0]
    return SweepResult(
        axes=(
            SweepAxis(axis, tuple(p.coord(axis) for p, _ in pairs)),
        ),
        points=tuple(p for p, _ in pairs),
        benchmarks=first.benchmarks,
        keys=first.keys,
        outcomes=[o for _, block in pairs for o in block],
        cache_info=rounds[-1].cache_info,
    )


def _winner_flips(sweep: SweepResult, axis: str) -> List[WinnerFlip]:
    """Adjacent evaluated values where the fastest key changes."""
    from repro.analysis.scaling import fastest_keys

    flips: List[WinnerFlip] = []
    for bench in sweep.benchmarks:
        winners = [(float(p.coord(axis)), w) for p, w in fastest_keys(sweep, bench)]
        for (x0, w0), (x1, w1) in zip(winners, winners[1:]):
            if w0 != w1:
                flips.append(
                    WinnerFlip(
                        benchmark=bench,
                        x_low=x0,
                        x_high=x1,
                        from_key=w0,
                        to_key=w1,
                    )
                )
    return flips


#: the most bisection rounds one refinement runs
MAX_ROUNDS = 32


def run_refined_sweep(
    *,
    axis: str,
    lo: float,
    hi: float,
    tol: float,
    coarse: int = 9,
    threshold: float = 1.0,
    benchmarks: Union[str, Iterable[str]] = BENCHMARKS,
    keys: Iterable[str] = EXPERIMENT_KEYS,
    machine: Union[MachineSpec, str, None] = None,
    library: Optional[str] = None,
    overrides: Optional[Mapping[str, object]] = None,
    config_overrides: Optional[Mapping[str, ConfigOverride]] = None,
    jobs: Optional[int] = None,
    cache: bool = True,
    cache_dir=None,
) -> RefinedSweep:
    """Localize every crossover of ``axis`` on ``[lo, hi]`` to ``tol``.

    Starts from a ``coarse``-point uniform grid, then repeatedly bisects
    only the intervals still containing a threshold crossing or a
    winner flip, stopping when every such interval is narrower than
    ``tol`` (or after :data:`MAX_ROUNDS` bisection rounds).  All sweep
    keywords (machine, overrides, caching, ...) match
    :func:`repro.sweep.run_sweep`; the mode is always TIMING.

    Integral axes (``knee_bytes``) bisect on integers and stop when a
    bracket has no interior integer left, whatever ``tol`` says.
    """
    from repro.analysis.scaling import scan_crossovers

    if axis == NPROCS_AXIS:
        raise MachineError(
            "refinement bisects machine-cost values; nprocs is discrete "
            "— sweep it densely with run_sweep"
        )
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise MachineError(f"refinement range is empty: [{lo:g}, {hi:g}]")
    if not tol > 0:
        raise MachineError(f"tolerance must be positive, got {tol:g}")
    if coarse < 2:
        raise MachineError(f"coarse grid needs >= 2 points, got {coarse}")
    base = MachineSpec.coerce(machine, library=library, overrides=overrides)

    integral = (
        axis.rsplit(".", 1)[-1] in machine_variants._INTEGRAL
    )

    def _snap(value: float) -> float:
        return float(int(round(value))) if integral else value

    step = (hi - lo) / (coarse - 1)
    values = [_snap(lo + i * step) for i in range(coarse - 1)] + [_snap(hi)]
    evaluated: set = set()
    rounds: List[SweepResult] = []
    round_values: List[List[float]] = []
    round_fingerprints: List[str] = []
    merged: Optional[SweepResult] = None

    with obs.span(
        "sweep:refine",
        axis=axis,
        lo=lo,
        hi=hi,
        tol=tol,
        machine=base.name,
    ):
        while True:
            new = sorted(
                {v for v in values if v not in evaluated}
            )
            if not new or len(rounds) >= MAX_ROUNDS:
                break
            fp = _round_fingerprint(
                axis, new, tuple(benchmarks) if not isinstance(benchmarks, str)
                else (benchmarks,), tuple(keys), base, threshold
            )
            obs.event(
                "sweep.refine.round",
                round=len(rounds),
                fingerprint=fp,
                new_points=len(new),
            )
            sweep = run_sweep(
                axes=[SweepAxis(axis, tuple(new))],
                benchmarks=benchmarks,
                keys=keys,
                machine=base,
                config_overrides=config_overrides,
                jobs=jobs,
                cache=cache,
                cache_dir=cache_dir,
            )
            evaluated.update(new)
            rounds.append(sweep)
            round_values.append(new)
            round_fingerprints.append(fp)
            obs.add("sweep.refine.rounds", 1)
            obs.add("sweep.refine.points", len(new))

            merged = _merge_rounds(axis, rounds)
            crossovers = scan_crossovers(merged, [axis], threshold)
            flips = _winner_flips(merged, axis)
            intervals = sorted(
                {(float(c.x_low), float(c.x_high)) for c in crossovers}
                | {(f.x_low, f.x_high) for f in flips}
            )
            obs.add("sweep.refine.active_intervals", len(intervals))
            values = []
            for a, b in intervals:
                if b - a <= tol:
                    continue
                mid = _snap((a + b) / 2.0)
                if mid <= a or mid >= b:
                    continue  # float / integer exhaustion: localized
                values.append(mid)

    assert merged is not None  # coarse >= 2 guarantees one round
    result = RefinedSweep(
        sweep=merged,
        axis=axis,
        lo=lo,
        hi=hi,
        tol=tol,
        threshold=threshold,
        rounds=len(rounds),
        round_values=round_values,
        round_fingerprints=round_fingerprints,
        crossovers=crossovers,
        winner_flips=flips,
    )
    obs.add("sweep.refine.crossovers", len(crossovers))
    obs.add("sweep.refine.winner_flips", len(flips))
    return result
