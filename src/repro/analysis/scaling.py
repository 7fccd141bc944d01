"""Scaling analysis over sweep results: curves, crossovers, emission.

The paper's experiments are cumulative — each key adds one optimization
on top of the previous one — so the natural per-optimization signal at
a swept point is the *incremental* ratio ``time(key) / time(prev key)``
(``cc/rr`` prices combining alone, ``pl/cc`` pipelining alone, ...).
A ratio below 1 means the optimization still pays at that point; a
*crossover* is the axis value where the ratio crosses 1.0 — where
combining stops winning as the knee shrinks, or pipelining stops hiding
anything as the latency approaches zero.  Over two axes the crossings
along one, per value of the other, are the crossover map, and
:func:`winner_rows` adds the fastest key at every point.

All functions are pure consumers of a
:class:`~repro.sweep.SweepResult` (or, for the refinement's report and
document, a :class:`~repro.sweep.RefinedSweep`); nothing here
simulates.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.report import format_table
from repro.obs import core as obs
from repro.sweep.axes import AxisValue
from repro.sweep.core import SweepPoint, SweepResult

if TYPE_CHECKING:  # avoid the sweep.refine <-> analysis import cycle
    from repro.sweep.refine import RefinedSweep

__all__ = [
    "SCALING_SCHEMA",
    "Crossover",
    "detect_crossovers",
    "fastest_keys",
    "find_crossings",
    "format_refined_report",
    "format_scaling_report",
    "refined_doc",
    "scaling_rows",
    "scan_crossovers",
    "speedup_curve",
    "winner_rows",
    "write_csv",
    "write_json",
    "write_refined_json",
]

#: Schema version of the emitted CSV/JSON scaling and refinement
#: documents.
SCALING_SCHEMA = 1


@dataclass(frozen=True)
class Crossover:
    """One detected win/loss flip along one axis.

    The ratio ``time(experiment) / time(reference)`` crosses the
    threshold (1.0 for :func:`detect_crossovers`) between axis values
    ``x_low`` and ``x_high``; ``x_estimate`` linearly interpolates the
    crossing point.  ``group`` pins the other axes' coordinates (empty
    for a one-axis sweep).
    """

    benchmark: str
    experiment: str
    reference: str
    axis: str
    group: Tuple[Tuple[str, AxisValue], ...]
    x_low: AxisValue
    x_high: AxisValue
    x_estimate: float
    ratio_low: float
    ratio_high: float

    @property
    def direction(self) -> str:
        """``"win->loss"`` when the ratio rises through the threshold."""
        return "win->loss" if self.ratio_high > self.ratio_low else "loss->win"


def scaling_rows(sweep: SweepResult) -> Tuple[List[str], List[List]]:
    """One row per swept cell, ready for ``format_table``/CSV.

    Columns: the axis coordinates, then identity (benchmark /
    experiment / library / variant), the raw observables, and the two
    scaled views — ``vs_baseline`` (the paper's presentation, scaled to
    the first key at the same point) and ``vs_prev`` (the incremental
    ratio against the previous key, the crossover signal).
    """
    axis_names = [axis.name for axis in sweep.axes]
    headers = axis_names + [
        "benchmark",
        "experiment",
        "library",
        "variant",
        "static",
        "dynamic",
        "time",
        "vs_baseline",
        "vs_prev",
    ]
    rows: List[List] = []
    for point, block in sweep.iter_points():
        coords = [point.coord(name) for name in axis_names]
        by_bench: Dict[str, Dict[str, object]] = {}
        for outcome in block:
            by_bench.setdefault(outcome.job.benchmark, {})[
                outcome.job.experiment
            ] = outcome
        for bench in sweep.benchmarks:
            cells = by_bench.get(bench, {})
            base_time: Optional[float] = None
            prev_time: Optional[float] = None
            for key in sweep.keys:
                outcome = cells.get(key)
                if outcome is None:
                    continue
                res = outcome.result
                if base_time is None:
                    base_time = res.execution_time
                rows.append(
                    coords
                    + [
                        bench,
                        key,
                        res.library,
                        point.variant,
                        res.static_count,
                        res.dynamic_count,
                        res.execution_time,
                        res.execution_time / base_time if base_time else 1.0,
                        res.execution_time / prev_time
                        if prev_time
                        else 1.0,
                    ]
                )
                prev_time = res.execution_time
    return headers, rows


def speedup_curve(
    sweep: SweepResult,
    axis: str,
    benchmark: str,
    experiment: str,
    reference: Optional[str] = None,
) -> List[Tuple[Tuple[Tuple[str, AxisValue], ...], List[Tuple[AxisValue, float]]]]:
    """Ratio-vs-axis curves for one (benchmark, experiment) pair.

    Returns one ``(group, [(x, ratio), ...])`` entry per combination of
    the *other* axes' values, with points ordered by ``x``.  ``ratio``
    is ``time(experiment) / time(reference)``; ``reference`` defaults to
    the key immediately before ``experiment`` in the sweep's key order
    (the incremental view).
    """
    keys = list(sweep.keys)
    if experiment not in keys:
        raise KeyError(f"experiment {experiment!r} not in sweep keys {keys}")
    if reference is None:
        idx = keys.index(experiment)
        reference = keys[idx - 1] if idx > 0 else keys[0]

    groups: Dict[Tuple, List[Tuple[AxisValue, float]]] = {}
    for point, block in sweep.iter_points():
        times: Dict[str, float] = {}
        for outcome in block:
            if outcome.job.benchmark == benchmark:
                times[outcome.job.experiment] = outcome.result.execution_time
        if experiment not in times or reference not in times:
            continue
        x = point.coord(axis)
        group = tuple(
            (name, value) for name, value in point.coords if name != axis
        )
        groups.setdefault(group, []).append(
            (x, times[experiment] / times[reference])
        )
    return [
        (group, sorted(pts, key=lambda p: p[0]))
        for group, pts in sorted(groups.items())
    ]


def find_crossings(
    points: Sequence[Tuple[AxisValue, float]], threshold: float = 1.0
) -> List[Tuple[AxisValue, AxisValue, float, float, float]]:
    """Sign changes of ``ratio - threshold`` along an ordered curve.

    Pure helper over an ordered ``[(x, ratio), ...]`` curve; returns
    ``(x_low, x_high, x_estimate, ratio_low, ratio_high)`` per crossing.
    Between adjacent straddling points ``x_estimate`` linearly
    interpolates, matching the historical formula bit-for-bit.

    Grid points sitting *exactly* on the threshold never terminate the
    scan: a run of ties flanked by opposite signs is one crossing whose
    bracket is the nearest off-threshold neighbours and whose
    ``x_estimate`` is the tie run's midpoint (a single tie estimates
    exactly that grid value).  Ties flanked by the same sign — the curve
    touching the threshold without passing through — report nothing, as
    do ties at either end of the curve.  Non-monotone curves simply
    yield one entry per sign change, in axis order.
    """
    out = []
    prev: Optional[Tuple[AxisValue, float, float]] = None
    ties: List[AxisValue] = []  # threshold-exact x's since ``prev``
    for x, r in points:
        d = r - threshold
        if d == 0:
            if prev is not None:
                ties.append(x)
            continue
        if prev is not None and (d < 0) != (prev[2] < 0):
            x0, r0, d0 = prev
            if ties:
                est = (float(ties[0]) + float(ties[-1])) / 2.0
            else:
                frac = d0 / (d0 - d)
                est = float(x0) + frac * (float(x) - float(x0))
            out.append((x0, x, est, r0, r))
        prev = (x, r, d)
        ties = []
    return out


def scan_crossovers(
    sweep: SweepResult, axes: Sequence[str], threshold: float = 1.0
) -> List[Crossover]:
    """Every crossing of ``threshold`` by every incremental ratio along
    each of ``axes``, in every benchmark and other-axis group, ordered
    by axis, benchmark, key pair, group and ``x``."""
    crossovers: List[Crossover] = []
    keys = list(sweep.keys)
    for axis in axes:
        for bench in sweep.benchmarks:
            for prev, key in zip(keys, keys[1:]):
                for group, curve in speedup_curve(
                    sweep, axis, bench, key, reference=prev
                ):
                    for x0, x1, est, r0, r1 in find_crossings(curve, threshold):
                        crossovers.append(
                            Crossover(
                                benchmark=bench,
                                experiment=key,
                                reference=prev,
                                axis=axis,
                                group=group,
                                x_low=x0,
                                x_high=x1,
                                x_estimate=est,
                                ratio_low=r0,
                                ratio_high=r1,
                            )
                        )
    return crossovers


def detect_crossovers(sweep: SweepResult) -> List[Crossover]:
    """Every win/loss flip of every incremental optimization, along
    every axis, in every benchmark and other-axis group."""
    crossovers = scan_crossovers(
        sweep, [axis.name for axis in sweep.axes if len(axis.values) >= 2]
    )
    obs.add("sweep.crossovers", len(crossovers))
    return crossovers


def fastest_keys(
    sweep: SweepResult, benchmark: str
) -> List[Tuple[SweepPoint, str]]:
    """``(point, key)`` per point where ``benchmark`` ran, in point
    order: the key with the least execution time there (the first in
    key order on a tie)."""
    out: List[Tuple[SweepPoint, str]] = []
    for point, block in sweep.iter_points():
        times = {
            o.job.experiment: o.result.execution_time for o in block if o.job.benchmark == benchmark
        }
        if times:
            out.append((point, min(sweep.keys, key=lambda k: times.get(k, float("inf")))))
    return out


def winner_rows(sweep: SweepResult) -> Tuple[List[str], List[List]]:
    """The fastest key at every point, one row per benchmark and point
    (benchmark-major, then point order): the axis coordinates, the
    benchmark, and the winner from :func:`fastest_keys`."""
    axis_names = [axis.name for axis in sweep.axes]
    rows = [
        [point.coord(name) for name in axis_names] + [bench, winner]
        for bench in sweep.benchmarks
        for point, winner in fastest_keys(sweep, bench)
    ]
    return axis_names + ["benchmark", "winner"], rows


def _crossover_rows(
    crossovers: Sequence[Crossover],
) -> Tuple[List[str], List[List]]:
    headers = [
        "benchmark",
        "experiment",
        "vs",
        "axis",
        "group",
        "direction",
        "x_low",
        "x_high",
        "x_estimate",
        "ratio_low",
        "ratio_high",
    ]
    rows = [
        [
            c.benchmark,
            c.experiment,
            c.reference,
            c.axis,
            ",".join(f"{n}={v:g}" for n, v in c.group) or "-",
            c.direction,
            c.x_low,
            c.x_high,
            c.x_estimate,
            c.ratio_low,
            c.ratio_high,
        ]
        for c in crossovers
    ]
    return headers, rows


def format_scaling_report(
    sweep: SweepResult, crossovers: Optional[Sequence[Crossover]] = None
) -> str:
    """The CLI's text report: the per-cell table, the crossovers and,
    when the sweep runs two or more keys, the fastest key per point."""
    if crossovers is None:
        crossovers = detect_crossovers(sweep)
    headers, rows = scaling_rows(sweep)
    parts = [
        format_table(
            headers,
            rows,
            float_fmt=".6g",
            title=f"Scaling sweep — {sweep.cells} cells over "
            f"{len(sweep.points)} points",
        )
    ]
    if crossovers:
        ch, cr = _crossover_rows(crossovers)
        parts.append(
            format_table(
                ch,
                cr,
                float_fmt=".6g",
                title=f"Crossovers — {len(crossovers)} detected "
                "(incremental ratio crosses 1.0)",
            )
        )
    else:
        parts.append("Crossovers — none detected")
    if len(sweep.keys) >= 2:
        parts.append(
            format_table(
                *winner_rows(sweep),
                float_fmt=".6g",
                title="Fastest key per point",
            )
        )
    return "\n\n".join(parts)


def _format_cell(value):
    """Floats render as ``%.6g`` so CSV artifacts diff cleanly across
    platforms; ints and strings pass through (full precision lives in
    :func:`write_json`)."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return value


def write_csv(path: Union[str, Path], sweep: SweepResult) -> Path:
    """The per-cell scaling table as CSV (header row + one row per
    swept cell, floats formatted ``%.6g``)."""
    path = Path(path)
    headers, rows = scaling_rows(sweep)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])
    return path


def write_json(
    path: Union[str, Path],
    sweep: SweepResult,
    crossovers: Optional[Sequence[Crossover]] = None,
) -> Path:
    """The full scaling document: axes, per-cell rows, crossovers, and
    the fastest key per point (``winners``, one object per
    :func:`winner_rows` row keyed by its columns)."""
    if crossovers is None:
        crossovers = detect_crossovers(sweep)
    headers, rows = scaling_rows(sweep)
    winner_headers, winners = winner_rows(sweep)
    doc = {
        "schema": SCALING_SCHEMA,
        "axes": [
            {"name": a.name, "values": list(a.values)} for a in sweep.axes
        ],
        "benchmarks": list(sweep.benchmarks),
        "keys": list(sweep.keys),
        "points": [
            {
                "coords": dict(p.coords),
                "variant": p.variant,
                "nprocs": p.machine.nprocs,
            }
            for p in sweep.points
        ],
        "columns": headers,
        "rows": rows,
        "crossovers": [asdict(c) for c in crossovers],
        "winners": [dict(zip(winner_headers, row)) for row in winners],
    }
    path = Path(path)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# the refinement's report and document (``repro frontier --refine``)
# ---------------------------------------------------------------------------


def refined_doc(refined: RefinedSweep) -> dict:
    """The full-precision document of one refinement run: localized
    crossovers, winner flips, and the evaluation ledger."""
    return {
        "schema": SCALING_SCHEMA,
        "axis": refined.axis,
        "lo": refined.lo,
        "hi": refined.hi,
        "tol": refined.tol,
        "threshold": refined.threshold,
        "rounds": refined.rounds,
        "round_values": [list(vs) for vs in refined.round_values],
        "round_fingerprints": list(refined.round_fingerprints),
        "points_evaluated": refined.points_evaluated,
        "dense_points": refined.dense_points,
        "savings": refined.savings,
        "crossovers": [asdict(c) for c in refined.crossovers],
        "winner_flips": [asdict(f) for f in refined.winner_flips],
    }


def write_refined_json(
    path: Union[str, Path], refined: RefinedSweep
) -> Path:
    path = Path(path)
    path.write_text(
        json.dumps(refined_doc(refined), indent=1, sort_keys=True) + "\n"
    )
    return path


def format_refined_report(refined: RefinedSweep) -> str:
    """The CLI's text view of a refinement run."""
    parts = [
        f"Refined {refined.axis} on [{refined.lo:.6g}, {refined.hi:.6g}] "
        f"to tol={refined.tol:.6g}: {refined.points_evaluated} evaluations "
        f"over {refined.rounds} rounds "
        f"(dense grid: {refined.dense_points}, {refined.savings:.1f}x fewer)"
    ]
    if refined.crossovers:
        rows = [
            [
                c.benchmark,
                c.experiment,
                c.reference,
                c.direction,
                c.x_low,
                c.x_high,
                c.x_estimate,
            ]
            for c in refined.crossovers
        ]
        parts.append(
            format_table(
                [
                    "benchmark",
                    "experiment",
                    "vs",
                    "direction",
                    "x_low",
                    "x_high",
                    "x_estimate",
                ],
                rows,
                float_fmt=".6g",
                title=f"Localized crossovers — {len(refined.crossovers)}",
            )
        )
    else:
        parts.append("Localized crossovers — none detected")
    if refined.winner_flips:
        rows = [
            [f.benchmark, f.from_key, f.to_key, f.x_low, f.x_high]
            for f in refined.winner_flips
        ]
        parts.append(
            format_table(
                ["benchmark", "from", "to", "x_low", "x_high"],
                rows,
                float_fmt=".6g",
                title=f"Winner flips — {len(refined.winner_flips)}",
            )
        )
    return "\n\n".join(parts)
