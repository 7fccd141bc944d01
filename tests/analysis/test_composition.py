"""Tests for the optimization-composition study.

The load-bearing property is *anti-circularity*: composition factors
must be derived from independently measured single-optimization runs
(``rr``, ``cc_only``, ``pl_only``), never from ratios along the paper's
cumulative chain — those telescope, making every factor identically 1.
The golden tests pin the CSV header and ``%.6g`` cell format and the
versioned JSON schema so the emitted artifacts stay diffable.
"""

import csv
import json

import pytest

from repro.analysis.composition import (
    COMPOSITION_SCHEMA,
    DEFAULT_VARIANTS,
    CompositionCell,
    composition_rows,
    format_composition_report,
    run_composition,
    write_csv,
    write_json,
)
from repro.engine import MachineSpec, load_telemetry
from repro.errors import ExperimentError
from repro.experiments_registry import COMPOSITION_KEYS, EXPERIMENT_KEYS

BENCHES = ("jacobi", "gen_0")
CONFIGS = {
    "jacobi": {"n": 12, "niters": 2},
    "gen_0": {"n": 12, "niters": 1},
}
VARIANTS = ({}, {"net.latency": 6e-5})

EXPECTED_CSV_HEADER = (
    "benchmark,machine,nprocs,variant,overrides,"
    "t_baseline,t_rr,t_cc_only,t_pl_only,t_pl,"
    "s_rr,s_cc,s_pl,predicted,measured,factor"
)


@pytest.fixture(scope="module")
def study():
    return run_composition(
        benchmarks=BENCHES,
        machine="t3d",
        nprocs=4,
        variants=VARIANTS,
        config_overrides=CONFIGS,
        cache=False,
    )


def test_composition_keys_are_independent_by_construction():
    assert COMPOSITION_KEYS == ("baseline", "rr", "cc_only", "pl_only", "pl")
    # the single-optimization keys exist only for this study
    assert "cc_only" not in EXPERIMENT_KEYS
    assert "pl_only" not in EXPERIMENT_KEYS


def test_grid_shape(study):
    assert study.benchmarks == BENCHES
    assert study.nprocs == 4
    assert len(study.cells) == len(BENCHES) * len(VARIANTS)
    variants = {c.variant for c in study.cells}
    assert "base" in variants and len(variants) == 2
    for cell in study.cells:
        assert set(cell.times) == set(COMPOSITION_KEYS)
        assert all(t > 0 for t in cell.times.values())


def test_factors_derive_from_single_optimization_runs(study):
    """Each cell's speedups/prediction recompute exactly from its own
    times using the independent keys."""
    for c in study.cells:
        base = c.times["baseline"]
        assert c.speedup_rr == base / c.times["rr"]
        assert c.speedup_cc == base / c.times["cc_only"]
        assert c.speedup_pl == base / c.times["pl_only"]
        assert c.predicted == c.speedup_rr * c.speedup_cc * c.speedup_pl
        assert c.measured == base / c.times["pl"]
        assert c.factor == c.measured / c.predicted


def test_anti_circularity(study):
    """A chain-derived 'prediction' telescopes to the measured speedup —
    factor identically 1 for every cell.  The implementation must not do
    that: somewhere in the grid prediction and measurement genuinely
    disagree."""
    for c in study.cells:
        chain_prediction = (
            (c.times["baseline"] / c.times["rr"])      # baseline -> rr
            * (c.times["rr"] / c.times["pl"])          # rr -> combined
        )
        assert chain_prediction == pytest.approx(c.measured)
    assert any(
        abs(c.factor - 1.0) > 1e-6 for c in study.cells
    ), "every factor is exactly 1 — the computation is circular"


def test_two_variant_grid_batches_with_per_job_factors(study):
    """Each (program, key) cell's two variants run as one batched
    evaluation, with the factors of per-job runs: a one-variant grid
    has one job per cell, so none of it batches."""
    assert all(o.record.get("batched") for o in study.outcomes)
    for variant in VARIANTS:
        alone = run_composition(
            benchmarks=BENCHES,
            machine="t3d",
            nprocs=4,
            variants=(variant,),
            config_overrides=CONFIGS,
            cache=False,
        )
        assert not any(o.record.get("batched") for o in alone.outcomes)
        for cell in alone.cells:
            batched = study.cell(cell.benchmark, cell.variant)
            assert batched.times == cell.times
            assert batched.factor == cell.factor


def test_factor_sanity_bounds(study):
    for c in study.cells:
        assert 0.2 < c.factor < 5.0, (c.benchmark, c.variant, c.factor)


def test_cell_accessor(study):
    cell = study.cell("jacobi", "base")
    assert isinstance(cell, CompositionCell)
    assert cell.machine == "t3d"
    with pytest.raises(ExperimentError, match="no composition cell"):
        study.cell("jacobi", "nonesuch")
    assert set(study.factors) == set(BENCHES)


def test_report_renders(study):
    report = format_composition_report(study)
    assert "Composition factor (measured/predicted)" in report
    assert "jacobi" in report and "gen_0" in report


# ---------------------------------------------------------------------------
# artifact goldens
# ---------------------------------------------------------------------------


def test_csv_golden(study, tmp_path):
    path = write_csv(tmp_path / "comp.csv", study)
    lines = path.read_text().splitlines()
    assert lines[0] == EXPECTED_CSV_HEADER
    assert len(lines) == 1 + len(study.cells)
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    for row, cell in zip(rows, study.cells):
        assert row["benchmark"] == cell.benchmark
        assert row["variant"] == cell.variant
        # every float cell is rendered %.6g, exactly
        assert row["factor"] == f"{cell.factor:.6g}"
        assert row["t_baseline"] == f"{cell.times['baseline']:.6g}"
        assert row["predicted"] == f"{cell.predicted:.6g}"


def test_json_golden(study, tmp_path):
    path = write_json(tmp_path / "comp.json", study)
    doc = json.loads(path.read_text())
    assert doc["schema"] == COMPOSITION_SCHEMA == 1
    assert doc["machine"] == "t3d"
    assert doc["nprocs"] == 4
    assert doc["benchmarks"] == list(BENCHES)
    assert doc["keys"] == list(COMPOSITION_KEYS)
    assert len(doc["variants"]) == 2
    assert doc["variants"][0] == {"variant": "base", "overrides": {}}
    assert doc["variants"][1]["overrides"] == {"net.latency": 6e-5}
    assert len(doc["cells"]) == len(study.cells)
    # full precision: the JSON round-trips the exact floats
    for raw, cell in zip(doc["cells"], study.cells):
        assert raw["factor"] == cell.factor
        assert raw["times"] == cell.times
    summary = doc["summary"]
    factors = [c.factor for c in study.cells]
    assert summary["factor_min"] == min(factors)
    assert summary["factor_max"] == max(factors)


def test_rows_align_with_header(study):
    headers, rows = composition_rows(study)
    assert ",".join(headers) == EXPECTED_CSV_HEADER
    assert all(len(row) == len(headers) for row in rows)


# ---------------------------------------------------------------------------
# engine plumbing and validation
# ---------------------------------------------------------------------------


def test_telemetry_roundtrip(tmp_path):
    tel = tmp_path / "tel.json"
    result = run_composition(
        benchmarks="jacobi",
        machine="t3d",
        nprocs=4,
        variants=({},),
        config_overrides=CONFIGS,
        cache=False,
        telemetry=tel,
    )
    records = load_telemetry(tel)
    assert len(records) == len(COMPOSITION_KEYS) == len(result.outcomes)
    assert {r["experiment"] for r in records} == set(COMPOSITION_KEYS)
    # the one envelope writer records the cache, as studies and sweeps do
    assert json.loads(tel.read_text())["cache"] == {"backend": "null", "location": None}


def test_base_overrides_merge_into_variants():
    """Overrides pinned on the base spec (the CLI's --set) apply under
    every variant instead of being replaced by the variant's own."""
    pinned = MachineSpec.coerce("t3d", overrides={"net.bandwidth": 6e7})
    result = run_composition(
        benchmarks="jacobi",
        machine=pinned,
        nprocs=4,
        variants=VARIANTS,
        config_overrides=CONFIGS,
        cache=False,
    )
    for overrides in result.variants:
        assert dict(overrides)["net.bandwidth"] == 6e7


def test_default_variants_cover_base_and_high_latency():
    assert DEFAULT_VARIANTS[0] == {}
    assert DEFAULT_VARIANTS[1] == {"net.latency": 1.2e-4}


def test_empty_grid_rejected():
    with pytest.raises(ExperimentError, match="at least one benchmark"):
        run_composition(benchmarks=(), nprocs=4, cache=False)
    with pytest.raises(ExperimentError, match="at least one machine variant"):
        run_composition(
            benchmarks="jacobi", nprocs=4, variants=(), cache=False
        )


def test_duplicate_variants_rejected():
    with pytest.raises(ExperimentError, match="duplicate machine variant"):
        run_composition(
            benchmarks="jacobi",
            nprocs=4,
            variants=({}, {}),
            config_overrides=CONFIGS,
            cache=False,
        )


def test_unknown_benchmark_rejected():
    with pytest.raises(ExperimentError, match="unknown benchmark"):
        run_composition(benchmarks="linpack", nprocs=4, cache=False)
