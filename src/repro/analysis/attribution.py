"""Per-pass attribution: which pass earned how much of each reduction.

The paper's Figure 8 reports *end-to-end* static/dynamic count
reductions per experiment key.  With the optimizer refactored into an
instrumented pass pipeline, every engine telemetry record carries a
``pipeline`` report — per-pass transfers removed, merges performed,
hiding distance gained, pass wall time — so the reduction can be
attributed to the individual pass that produced it: a finer-grained
Figure 8.

Input is anything that yields engine telemetry records: a
:class:`~repro.engine.StudyResult` (its ``.telemetry``), a plain list of
record dicts, or a ``--telemetry`` JSON document's ``records`` list.
Records written by pre-pipeline engine versions (no ``pipeline`` field)
are skipped.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.comm import PipelineReport

Rows = Tuple[List[str], List[List]]

RecordSource = Union[Iterable[Mapping], "object"]


def _records(source: RecordSource) -> List[Mapping]:
    """Telemetry records from a StudyResult, a record list, or a
    ``--telemetry`` document."""
    telemetry = getattr(source, "telemetry", None)
    if telemetry is not None:
        return list(telemetry)
    if isinstance(source, Mapping) and "records" in source:
        return list(source["records"])
    return list(source)


def pipeline_report(record: Mapping) -> Optional[PipelineReport]:
    """The record's :class:`~repro.comm.PipelineReport`, or None for
    records from engines that predate the pass pipeline."""
    data = record.get("pipeline")
    if not data:
        return None
    return PipelineReport.from_dict(data)


def report_reconciles(record: Mapping) -> bool:
    """True when the record's per-pass totals explain its static count:
    ``planned - removed - merged == final == result.static_count``."""
    report = pipeline_report(record)
    if report is None:
        return False
    return (
        report.reconciles()
        and report.final == record["result"]["static_count"]
    )


def pass_attribution(
    source: RecordSource,
    benchmarks: Optional[Sequence[str]] = None,
    experiments: Optional[Sequence[str]] = None,
) -> Rows:
    """Per-pass breakdown of every cell's static-count reduction.

    One row per ``(benchmark, experiment, pass)``: transfers the pass
    removed, messages it merged away, hiding distance it gained (or, for
    combining, traded away), and its *share* of the cell's total static
    reduction (blank when the cell reduced nothing).  Rows keep
    telemetry order — benchmark-major, keys in Figure 9 order, passes in
    pipeline order.  Pass wall time stays out, so the table is the same
    on every run; it lives in each record's ``pipeline.passes[].wall_s``
    and in the ``pass:*`` spans.
    """
    headers = [
        "benchmark",
        "experiment",
        "pass",
        "removed",
        "merged",
        "distance",
        "share",
    ]
    rows: List[List] = []
    for record in _records(source):
        if benchmarks is not None and record["benchmark"] not in benchmarks:
            continue
        if experiments is not None and record["experiment"] not in experiments:
            continue
        report = pipeline_report(record)
        if report is None:
            continue
        reduction = report.planned - report.final
        for stats in report.passes:
            contributed = stats.removed + stats.merged
            share = (
                f"{contributed / reduction:.0%}" if reduction else ""
            )
            rows.append(
                [
                    record["benchmark"],
                    record["experiment"],
                    stats.name,
                    stats.removed,
                    stats.merged,
                    stats.distance_gained,
                    share,
                ]
            )
    return headers, rows


def figure8_by_pass(source: RecordSource) -> Rows:
    """The finer-grained Figure 8: for each benchmark, the fraction of
    the naive static count that each pass eliminates under the paper's
    full pipeline (the ``pl`` key), plus the surviving fraction.

    Where Figure 8 shows *that* ``cc`` reaches e.g. 0.3x baseline, this
    table shows *which pass* got it there.
    """
    headers = [
        "benchmark",
        "naive",
        "redundancy",
        "combining",
        "remaining",
    ]
    rows: List[List] = []
    for record in _records(source):
        if record["experiment"] != "pl":
            continue
        report = pipeline_report(record)
        if report is None or not report.planned:
            continue
        removed: Dict[str, int] = {
            s.name: s.removed + s.merged for s in report.passes
        }
        rows.append(
            [
                record["benchmark"],
                report.planned,
                removed.get("redundancy", 0) / report.planned,
                removed.get("combining", 0) / report.planned,
                report.final / report.planned,
            ]
        )
    return headers, rows
