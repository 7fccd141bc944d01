"""The experiment harness: the paper's evaluation section as code.

:mod:`repro.analysis.figures` regenerates each figure/table's rows from
a :func:`repro.engine.run_study` grid over the keys defined in
:mod:`repro.experiments_registry`;
:mod:`repro.analysis.attribution` breaks each cell's reduction down by
optimizer pass using engine telemetry;
:mod:`repro.analysis.scaling` turns :mod:`repro.sweep` results into
per-optimization curves, crossovers, and CSV/JSON documents;
:mod:`repro.analysis.composition` measures whether rr/cc/pl compose
multiplicatively (predicted-from-singles vs measured-combined) across
the benchmark x machine-variant grid;
:mod:`repro.analysis.report` renders them as aligned text tables.
"""

from repro.analysis.composition import (
    CompositionCell,
    CompositionResult,
    composition_rows,
    format_composition_report,
    run_composition,
)
from repro.analysis.attribution import (
    figure8_by_pass,
    pass_attribution,
    pipeline_report,
    report_reconciles,
)
from repro.analysis.frontier import (
    ContourPoint,
    ParetoPoint,
    crossover_map,
    pareto_front,
    pareto_surface,
    winner_map,
)
from repro.analysis.report import format_table
from repro.analysis.scaling import (
    Crossover,
    detect_crossovers,
    format_scaling_report,
    scaling_rows,
    speedup_curve,
)

__all__ = [
    "CompositionCell",
    "CompositionResult",
    "ContourPoint",
    "Crossover",
    "composition_rows",
    "format_composition_report",
    "run_composition",
    "ParetoPoint",
    "crossover_map",
    "pareto_front",
    "pareto_surface",
    "winner_map",
    "detect_crossovers",
    "figure8_by_pass",
    "format_scaling_report",
    "pass_attribution",
    "pipeline_report",
    "report_reconciles",
    "format_table",
    "scaling_rows",
    "speedup_curve",
]
