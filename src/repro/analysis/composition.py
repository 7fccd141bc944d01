"""The optimization-composition study: do rr, cc, and pl *compose*?

The paper reports cumulative results — ``rr``, then ``rr+cc``, then
``rr+cc+pl`` — and never asks whether the combined win is what the
individual wins would predict.  This module quantifies exactly that.
For one program on one machine variant it measures five points:

===========  ================================================
key          optimization configuration
===========  ================================================
baseline     message vectorization only
rr           redundancy removal alone
cc_only      combining alone
pl_only      pipelining alone
pl           all three combined (rr + cc + pl)
===========  ================================================

and derives, with ``T(k)`` the measured execution time under key ``k``:

* per-optimization speedups ``s_rr = T(baseline)/T(rr)``,
  ``s_cc = T(baseline)/T(cc_only)``, ``s_pl = T(baseline)/T(pl_only)``;
* the multiplicative prediction ``predicted = s_rr * s_cc * s_pl``;
* the measured combined speedup ``measured = T(baseline)/T(pl)``;
* the **composition factor** ``factor = measured / predicted`` —
  1 when the optimizations compose multiplicatively, below 1 when they
  overlap (two optimizations removing the *same* cost, the common
  case: rr deletes a transfer that cc would have merged), above 1 when
  they enable each other (combining succeeds only after redundancy
  removal shrinks a block's transfer set).

The single-optimization measurements are *independent* by construction.
Deriving per-optimization ratios from the paper's cumulative chain
instead (``T(rr)/T(cc)`` etc.) telescopes: their product is identically
the combined ratio, so every factor would be exactly 1 — a circular
calculation, not a result.  ``cc_only``/``pl_only`` exist as experiment
keys (:data:`repro.experiments_registry.COMPOSITION_KEYS`) precisely to
break that circle.

The whole grid — every program under every key on every machine
variant — is submitted as one :class:`~repro.engine.ExperimentEngine`
run, so cells are content-cached exactly like any study, each program
and key's machine variants evaluate in one batched call, and generated
programs (``gen_<seed>``) ride through the registry like
the bundled benchmarks.  Results emit as a ``%.6g`` CSV artifact and a
full-precision versioned JSON document, mirroring
:mod:`repro.analysis.scaling`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.report import format_table
from repro.analysis.scaling import _format_cell
from repro.engine.core import (
    ConfigOverride,
    ExperimentEngine,
    build_matrix,
    write_telemetry,
)
from repro.engine.jobs import MachineSpec
from repro.errors import ExperimentError
from repro.experiments_registry import COMPOSITION_KEYS
from repro.machine.variants import OverrideValue, describe_overrides, variant_id
from repro.obs import core as obs
from repro.programs import BENCHMARKS, KERNELS
from repro.runtime import ExecutionMode

__all__ = [
    "COMPOSITION_SCHEMA",
    "CompositionCell",
    "CompositionResult",
    "DEFAULT_VARIANTS",
    "composition_rows",
    "format_composition_report",
    "run_composition",
    "write_csv",
    "write_json",
]

#: Schema version of the emitted CSV/JSON composition documents.
COMPOSITION_SCHEMA = 1

#: Default machine-variant grid: the calibrated base machine plus a
#: high-latency variant (10x the T3D's 12us wire).  Latency is the
#: parameter the three optimizations all attack — rr sends fewer
#: messages, cc fewer-but-larger, pl hides the wire — so it is where
#: composition (shared savings) is most visible.
DEFAULT_VARIANTS: Tuple[Mapping[str, OverrideValue], ...] = (
    {},
    {"net.latency": 1.2e-4},
)


@dataclass(frozen=True)
class CompositionCell:
    """One program on one machine variant: times, speedups, factor."""

    benchmark: str
    machine: str
    nprocs: int
    variant: str
    #: human-readable override list (``"base"`` for the unswept machine)
    variant_desc: str
    #: execution time per composition key
    times: Dict[str, float]
    #: speedup of each optimization alone over baseline
    speedup_rr: float
    speedup_cc: float
    speedup_pl: float
    #: multiplicative prediction s_rr * s_cc * s_pl
    predicted: float
    #: measured combined speedup T(baseline) / T(pl)
    measured: float
    #: measured / predicted
    factor: float


@dataclass
class CompositionResult:
    """The composition study's full grid plus its provenance."""

    cells: List[CompositionCell]
    benchmarks: Tuple[str, ...]
    machine: str
    nprocs: int
    variants: Tuple[Tuple[Tuple[str, OverrideValue], ...], ...]
    outcomes: List = None  # JobOutcomes, for telemetry

    def cell(self, benchmark: str, variant: str) -> CompositionCell:
        for c in self.cells:
            if c.benchmark == benchmark and c.variant == variant:
                return c
        raise ExperimentError(
            f"no composition cell for {benchmark!r} on variant {variant!r}"
        )

    @property
    def factors(self) -> Dict[str, Dict[str, float]]:
        """``benchmark -> variant -> factor``."""
        out: Dict[str, Dict[str, float]] = {}
        for c in self.cells:
            out.setdefault(c.benchmark, {})[c.variant] = c.factor
        return out


def _coerce_variants(
    variants: Optional[Sequence[Mapping[str, OverrideValue]]],
) -> Tuple[Dict[str, OverrideValue], ...]:
    if variants is None:
        variants = DEFAULT_VARIANTS
    coerced = tuple(dict(v) for v in variants)
    if not coerced:
        raise ExperimentError("composition needs at least one machine variant")
    return coerced


def run_composition(
    *,
    benchmarks: Union[str, Iterable[str], None] = None,
    machine: Union[MachineSpec, str, None] = None,
    nprocs: Optional[int] = None,
    library: Optional[str] = None,
    variants: Optional[Sequence[Mapping[str, OverrideValue]]] = None,
    config_overrides: Optional[Mapping[str, ConfigOverride]] = None,
    jobs: Optional[int] = None,
    cache: bool = True,
    cache_dir: Union[str, Path, None] = None,
    telemetry: Union[str, Path, None] = None,
) -> CompositionResult:
    """Run the composition study over a benchmark x machine-variant grid.

    Parameters mirror :func:`repro.run_study`, plus ``variants``: a
    sequence of machine parameter override mappings (see
    :mod:`repro.machine.variants`), each defining one grid column;
    defaults to :data:`DEFAULT_VARIANTS` (base + high latency).
    ``benchmarks`` defaults to the paper's four plus the classic
    kernels; any registry name works, including ``gen_<seed>``.

    Every (program, key, variant) cell runs TIMING mode through one
    engine run — cached, and bit-identical at any ``jobs`` count like
    any study; the engine batches each (program, key)'s variants.
    """
    if benchmarks is None:
        benchmarks = BENCHMARKS + KERNELS
    elif isinstance(benchmarks, str):
        benchmarks = (benchmarks,)
    benchmarks = tuple(benchmarks)
    if not benchmarks:
        raise ExperimentError("composition needs at least one benchmark")
    variant_sets = _coerce_variants(variants)

    base_spec = MachineSpec.coerce(
        machine, nprocs=64 if nprocs is None else nprocs, library=library
    )

    with obs.span(
        "composition:run",
        benchmarks=len(benchmarks),
        variants=len(variant_sets),
    ):
        matrix = []
        spans: List[Tuple[str, MachineSpec]] = []
        for overrides in variant_sets:
            # variant overrides stack on any overrides pinned on the base
            # spec (the CLI's --set) instead of replacing them
            merged = dict(base_spec.overrides)
            merged.update(overrides)
            spec = MachineSpec.coerce(base_spec, overrides=merged)
            if any(vid == spec.variant for vid, _ in spans):
                raise ExperimentError(
                    "duplicate machine variant in composition grid: "
                    f"{describe_overrides(merged)!r} (after merging base "
                    "overrides) appears more than once"
                )
            spans.append((spec.variant, spec))
            matrix.extend(
                build_matrix(
                    benchmarks,
                    COMPOSITION_KEYS,
                    machine=spec,
                    config_overrides=config_overrides,
                    mode=ExecutionMode.TIMING,
                )
            )

        engine = ExperimentEngine(jobs=jobs, cache=cache, cache_dir=cache_dir)
        outcomes = engine.run(matrix)

    # (variant, benchmark) -> key -> time
    times: Dict[Tuple[str, str], Dict[str, float]] = {}
    for outcome in outcomes:
        job = outcome.job
        cell = times.setdefault((job.machine.variant, job.benchmark), {})
        cell[job.experiment] = outcome.result.execution_time

    cells: List[CompositionCell] = []
    for vid, spec in spans:
        desc = describe_overrides(dict(spec.overrides))
        for bench in benchmarks:
            t = times[(vid, bench)]
            cells.append(_derive_cell(bench, spec, vid, desc, t))

    result = CompositionResult(
        cells=cells,
        benchmarks=benchmarks,
        machine=base_spec.name,
        nprocs=base_spec.nprocs,
        variants=tuple(spec.overrides for _, spec in spans),
        outcomes=outcomes,
    )
    if telemetry is not None:
        write_telemetry(
            telemetry, [o.record for o in outcomes], engine.cache.describe()
        )
    return result


def _derive_cell(
    benchmark: str,
    spec: MachineSpec,
    variant: str,
    variant_desc: str,
    t: Mapping[str, float],
) -> CompositionCell:
    missing = [k for k in COMPOSITION_KEYS if k not in t]
    if missing:
        raise ExperimentError(
            f"composition cell {benchmark!r}/{variant} is missing keys: "
            f"{', '.join(missing)}"
        )
    base = t["baseline"]
    if base <= 0:
        raise ExperimentError(
            f"composition cell {benchmark!r}/{variant} has non-positive "
            f"baseline time {base!r}"
        )
    s_rr = base / t["rr"]
    s_cc = base / t["cc_only"]
    s_pl = base / t["pl_only"]
    predicted = s_rr * s_cc * s_pl
    measured = base / t["pl"]
    return CompositionCell(
        benchmark=benchmark,
        machine=spec.name,
        nprocs=spec.nprocs,
        variant=variant,
        variant_desc=variant_desc,
        times={k: t[k] for k in COMPOSITION_KEYS},
        speedup_rr=s_rr,
        speedup_cc=s_cc,
        speedup_pl=s_pl,
        predicted=predicted,
        measured=measured,
        factor=measured / predicted,
    )


# ---------------------------------------------------------------------------
# presentation: table rows, text report, CSV/JSON artifacts
# ---------------------------------------------------------------------------


def composition_rows(
    result: CompositionResult,
) -> Tuple[List[str], List[List]]:
    """One row per (program, variant) cell, for ``format_table``/CSV."""
    headers = (
        ["benchmark", "machine", "nprocs", "variant", "overrides"]
        + [f"t_{k}" for k in COMPOSITION_KEYS]
        + ["s_rr", "s_cc", "s_pl", "predicted", "measured", "factor"]
    )
    rows = [
        [
            c.benchmark,
            c.machine,
            c.nprocs,
            c.variant,
            c.variant_desc,
            *[c.times[k] for k in COMPOSITION_KEYS],
            c.speedup_rr,
            c.speedup_cc,
            c.speedup_pl,
            c.predicted,
            c.measured,
            c.factor,
        ]
        for c in result.cells
    ]
    return headers, rows


def format_composition_report(result: CompositionResult) -> str:
    """The CLI's text report: the per-cell table plus a factor summary."""
    headers, rows = composition_rows(result)
    factors = [c.factor for c in result.cells]
    lo, hi = min(factors), max(factors)
    mean = sum(factors) / len(factors)
    parts = [
        format_table(
            headers,
            rows,
            float_fmt=".6g",
            title=(
                f"Composition study — {len(result.benchmarks)} programs x "
                f"{len(result.variants)} variants on {result.machine}"
                f"({result.nprocs})"
            ),
        ),
        (
            f"Composition factor (measured/predicted): "
            f"min {lo:.6g}, mean {mean:.6g}, max {hi:.6g} — "
            "1 = perfectly multiplicative, <1 = overlapping savings, "
            ">1 = enabling"
        ),
    ]
    return "\n\n".join(parts)


def write_csv(path: Union[str, Path], result: CompositionResult) -> Path:
    """The per-cell composition table as CSV (header row + one row per
    cell, floats formatted ``%.6g``)."""
    path = Path(path)
    headers, rows = composition_rows(result)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])
    return path


def write_json(path: Union[str, Path], result: CompositionResult) -> Path:
    """The full composition document: grid, per-cell records (full
    precision), and the factor summary."""
    factors = [c.factor for c in result.cells]
    doc = {
        "schema": COMPOSITION_SCHEMA,
        "machine": result.machine,
        "nprocs": result.nprocs,
        "benchmarks": list(result.benchmarks),
        "keys": list(COMPOSITION_KEYS),
        "variants": [
            {
                "variant": variant_id(dict(v)),
                "overrides": {path_: value for path_, value in v},
            }
            for v in result.variants
        ],
        "cells": [asdict(c) for c in result.cells],
        "summary": {
            "factor_min": min(factors),
            "factor_mean": sum(factors) / len(factors),
            "factor_max": max(factors),
        },
    }
    path = Path(path)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path
