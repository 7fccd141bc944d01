"""Telemetry-driven regression tracking: baseline snapshots and diffs.

A **baseline** freezes the measurable surface of one study — every
``benchmark x experiment`` cell's communication counts, message/byte
volumes, and model execution time, plus the machine shape it was taken
on — into a small JSON document that lives in the repository
(``baselines/``).  A later run is *diffed* against it field by field,
and every field must match exactly: static/dynamic communication
counts, message counts and byte volumes are deterministic model
outputs, and so are the model times, which a rerun reproduces to the
last bit.  Any drift is a behavior change (an optimizer pass got
stronger, weaker, or broken; a cost moved by one ulp; a loop stopped
extrapolating).

``python -m repro compare --baseline PATH`` wires this into CI: a drift
exits nonzero and prints one line per drifted field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Union

from repro.errors import BaselineError

__all__ = [
    "BASELINE_KIND",
    "BASELINE_SCHEMA",
    "Drift",
    "diff_baseline",
    "format_drifts",
    "load_baseline",
    "snapshot_study",
    "write_baseline",
]

#: Bump when the baseline document shape changes; loaders reject others.
#: 2: cells pin the simulator fast-path counters
#: (``sim.fastpath.compiled`` / ``extrapolated_trips`` / ``fallbacks``),
#: so the gate catches the compiled path silently disengaging, not just
#: drifting numbers.
BASELINE_SCHEMA = 2
BASELINE_KIND = "repro-baseline"


def snapshot_study(study, note: str = "") -> dict:
    """Freeze a :class:`~repro.engine.core.StudyResult` into a baseline
    document.

    Reads the per-job telemetry records, so cached and fresh runs
    snapshot identically.  ``note`` is free-form provenance (the CLI
    records the command line).
    """
    records = list(study.telemetry)
    if not records:
        raise BaselineError("cannot snapshot an empty study")
    cells: Dict[str, Dict[str, dict]] = {}
    for record in records:
        result = record["result"]
        fastpath = result.get("fastpath")
        cells.setdefault(record["benchmark"], {})[record["experiment"]] = {
            "static_count": int(result["static_count"]),
            "dynamic_count": int(result["dynamic_count"]),
            "total_messages": int(result["total_messages"]),
            "total_bytes": int(result["total_bytes"]),
            "execution_time": float(result["execution_time"]),
            # fast-path engagement is part of the pinned surface: a cell
            # that stops compiling (or starts falling back) is a
            # regression even when its numbers still match
            "sim.fastpath.compiled": int(fastpath is not None),
            "sim.fastpath.extrapolated_trips": int(
                fastpath["extrapolated_trips"] if fastpath else 0
            ),
            "sim.fastpath.fallbacks": int(
                fastpath["fallbacks"] if fastpath else 0
            ),
        }
    first = records[0]
    return {
        "schema": BASELINE_SCHEMA,
        "kind": BASELINE_KIND,
        "machine": first["machine"],
        "nprocs": first["nprocs"],
        "mode": first["mode"],
        "note": note,
        "benchmarks": cells,
    }


def write_baseline(path: Union[str, Path], snapshot: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    return path


def load_baseline(path: Union[str, Path]) -> dict:
    """Read and validate a baseline document.

    Rejects anything that is not a ``repro-baseline`` of a known schema
    — a truncated file, a telemetry dump, or a baseline written by a
    future version all fail loudly instead of diffing as garbage.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from None
    except ValueError as exc:
        raise BaselineError(f"baseline {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("kind") != BASELINE_KIND:
        raise BaselineError(f"{path} is not a repro baseline document")
    if doc.get("schema") != BASELINE_SCHEMA:
        raise BaselineError(
            f"baseline {path} has schema {doc.get('schema')!r}; "
            f"this version reads schema {BASELINE_SCHEMA} "
            "(regenerate with `repro compare --update`)"
        )
    if not isinstance(doc.get("benchmarks"), dict):
        raise BaselineError(f"baseline {path} has no benchmarks table")
    return doc


@dataclass(frozen=True)
class Drift:
    """One field of one cell that left its baseline envelope."""

    benchmark: str
    experiment: str
    field: str
    expected: object
    actual: object

    def describe(self) -> str:
        return (
            f"{self.benchmark}/{self.experiment}: {self.field} "
            f"expected {self.expected}, got {self.actual}"
        )


def diff_baseline(current: dict, baseline: dict) -> List[Drift]:
    """Every way ``current`` drifted from ``baseline``.

    Every field the baseline records for a cell compares with ``!=``,
    times included.  Cells present in the baseline but absent from the
    run (and the machine shape itself) drift too; cells the baseline
    never recorded are ignored, so a baseline may cover a subset of a
    larger run.
    """
    drifts: List[Drift] = []
    for shape_field in ("machine", "nprocs", "mode"):
        if current.get(shape_field) != baseline.get(shape_field):
            drifts.append(
                Drift(
                    "*",
                    "*",
                    shape_field,
                    baseline.get(shape_field),
                    current.get(shape_field),
                )
            )
    for bench, experiments in baseline["benchmarks"].items():
        current_bench = current["benchmarks"].get(bench)
        if current_bench is None:
            drifts.append(Drift(bench, "*", "cell", "present", "missing"))
            continue
        for key, expected in experiments.items():
            actual = current_bench.get(key)
            if actual is None:
                drifts.append(Drift(bench, key, "cell", "present", "missing"))
                continue
            for f, want in expected.items():
                if actual.get(f) != want:
                    drifts.append(Drift(bench, key, f, want, actual.get(f)))
    return drifts


def format_drifts(drifts: Iterable[Drift]) -> str:
    lines = [drift.describe() for drift in drifts]
    if not lines:
        return "no drift from baseline"
    plural = "s" if len(lines) != 1 else ""
    return "\n".join([f"{len(lines)} drift{plural} from baseline:"] + [
        f"  {line}" for line in lines
    ])
