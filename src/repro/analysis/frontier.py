"""Frontier analysis: 2-D crossover maps and winner grids.

The paper's win/loss story is one-dimensional per figure — a ratio
against one machine parameter.  This module lifts it to surfaces:

* :func:`crossover_map` traces where each incremental optimization's
  ratio crosses the threshold in a two-axis sweep — one contour point
  per value of the second axis, turning "the combining knee is at 4 KB"
  into "here is the knee as a function of wire latency";
* :func:`winner_map` grids the best experiment key over both axes (the
  discrete view of the same surface).

Both read the one crossing scan and per-point winner of
:mod:`repro.analysis.scaling` (:func:`~repro.analysis.scaling.scan_crossovers`
at the caller's threshold, :func:`~repro.analysis.scaling.fastest_keys`),
as does refinement (:mod:`repro.sweep.refine`).  Everything consumes
:class:`~repro.sweep.SweepResult` / :class:`~repro.sweep.RefinedSweep`
values; nothing here simulates.  Emission follows
:mod:`repro.analysis.scaling`: CSV floats are ``%.6g``, JSON is full
precision under a versioned ``schema`` key.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, List, Sequence, Tuple, Union

from repro.analysis.report import format_table
from repro.analysis.scaling import _format_cell, fastest_keys, scan_crossovers
from repro.sweep.axes import AxisValue
from repro.sweep.core import SweepResult

if TYPE_CHECKING:  # avoid the sweep.refine <-> analysis import cycle
    from repro.sweep.refine import RefinedSweep

__all__ = [
    "FRONTIER_SCHEMA",
    "ContourPoint",
    "crossover_map",
    "format_frontier_report",
    "format_refined_report",
    "frontier_doc",
    "refined_doc",
    "winner_map",
    "write_frontier_csv",
    "write_frontier_json",
    "write_refined_json",
]

#: Schema version of the emitted frontier CSV/JSON documents.
FRONTIER_SCHEMA = 1


@dataclass(frozen=True)
class ContourPoint:
    """One point of a crossover contour: at ``y`` (the second axis),
    the ratio ``time(experiment)/time(reference)`` crosses the
    threshold at ``x_estimate`` along the first axis."""

    benchmark: str
    experiment: str
    reference: str
    y: AxisValue
    x_low: AxisValue
    x_high: AxisValue
    x_estimate: float
    ratio_low: float
    ratio_high: float


def crossover_map(
    sweep: SweepResult,
    x_axis: str,
    y_axis: str,
    threshold: float = 1.0,
) -> List[ContourPoint]:
    """The crossover contours of a two-axis sweep.

    The crossings of ``threshold`` along ``x_axis`` whose other-axis
    group holds ``y_axis`` — the contour of the win/loss boundary in the
    ``(x, y)`` plane, ordered by (benchmark, experiment, y).
    """
    names = [a.name for a in sweep.axes]
    for name in (x_axis, y_axis):
        if name not in names:
            raise KeyError(f"axis {name!r} not in sweep axes {names}")
    out: List[ContourPoint] = []
    for c in scan_crossovers(sweep, [x_axis], threshold):
        coords = dict(c.group)
        if y_axis in coords:
            out.append(ContourPoint(
                c.benchmark, c.experiment, c.reference, coords[y_axis],
                c.x_low, c.x_high, c.x_estimate, c.ratio_low, c.ratio_high,
            ))
    return out


def winner_map(
    sweep: SweepResult, x_axis: str, y_axis: str
) -> List[Tuple[str, AxisValue, AxisValue, str]]:
    """The best key per grid cell: ``(benchmark, y, x, winner)`` rows
    ordered by (benchmark, y, x) — the discrete picture whose
    boundaries :func:`crossover_map` localizes."""
    rows: List[Tuple[str, AxisValue, AxisValue, str]] = []
    for bench in sweep.benchmarks:
        cells = {
            (point.coord(y_axis), point.coord(x_axis)): winner
            for point, winner in fastest_keys(sweep, bench)
        }
        rows.extend((bench, y, x, w) for (y, x), w in sorted(cells.items()))
    return rows


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

_CONTOUR_HEADERS = [
    "benchmark",
    "experiment",
    "vs",
    "y",
    "x_low",
    "x_high",
    "x_estimate",
    "ratio_low",
    "ratio_high",
]


def _contour_rows(contours: Sequence[ContourPoint]) -> List[List]:
    return [
        [
            c.benchmark,
            c.experiment,
            c.reference,
            c.y,
            c.x_low,
            c.x_high,
            c.x_estimate,
            c.ratio_low,
            c.ratio_high,
        ]
        for c in contours
    ]


def write_frontier_csv(
    path: Union[str, Path],
    contours: Sequence[ContourPoint],
    x_axis: str,
    y_axis: str,
) -> Path:
    """The contour table as CSV: a comment-free header row naming the
    axes via the ``x_estimate``/``y`` columns, floats ``%.6g``."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_axis", "y_axis"])
        writer.writerow([x_axis, y_axis])
        writer.writerow(_CONTOUR_HEADERS)
        for row in _contour_rows(contours):
            writer.writerow([_format_cell(cell) for cell in row])
    return path


def frontier_doc(
    sweep: SweepResult,
    x_axis: str,
    y_axis: str,
    threshold: float = 1.0,
) -> dict:
    """The full-precision frontier document for a two-axis sweep."""
    contours = crossover_map(sweep, x_axis, y_axis, threshold)
    winners = winner_map(sweep, x_axis, y_axis)
    return {
        "schema": FRONTIER_SCHEMA,
        "x_axis": x_axis,
        "y_axis": y_axis,
        "threshold": threshold,
        "benchmarks": list(sweep.benchmarks),
        "keys": list(sweep.keys),
        "contours": [asdict(c) for c in contours],
        "winners": [
            {"benchmark": b, "y": y, "x": x, "winner": w}
            for b, y, x, w in winners
        ],
    }


def write_frontier_json(
    path: Union[str, Path],
    sweep: SweepResult,
    x_axis: str,
    y_axis: str,
    threshold: float = 1.0,
) -> Path:
    path = Path(path)
    doc = frontier_doc(sweep, x_axis, y_axis, threshold)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def refined_doc(refined: RefinedSweep) -> dict:
    """The full-precision document of one refinement run: localized
    crossovers, winner flips, and the evaluation ledger."""
    return {
        "schema": FRONTIER_SCHEMA,
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


def format_frontier_report(
    sweep: SweepResult,
    x_axis: str,
    y_axis: str,
    threshold: float = 1.0,
) -> str:
    """The CLI's text view of a two-axis frontier: contours, then the
    winner grid."""
    contours = crossover_map(sweep, x_axis, y_axis, threshold)
    parts = []
    if contours:
        parts.append(
            format_table(
                _CONTOUR_HEADERS,
                _contour_rows(contours),
                float_fmt=".6g",
                title=f"Crossover contours — x={x_axis}, y={y_axis}, "
                f"{len(contours)} points",
            )
        )
    else:
        parts.append(
            f"Crossover contours — none (x={x_axis}, y={y_axis})"
        )
    winners = winner_map(sweep, x_axis, y_axis)
    parts.append(
        format_table(
            ["benchmark", "y", "x", "winner"],
            [list(row) for row in winners],
            float_fmt=".6g",
            title="Winner grid — fastest key per cell",
        )
    )
    return "\n\n".join(parts)


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
