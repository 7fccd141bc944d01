"""Tests for the per-figure regeneration functions (small scale)."""

import math

import pytest

from repro import run_study
from repro.analysis import figures as fig
from repro.programs import small_config


@pytest.fixture(scope="module")
def suite():
    """A small-scale whole-program study over two benchmarks."""
    return run_study(
        benchmarks=("tomcatv", "swm"),
        nprocs=16,
        config_overrides={
            "tomcatv": small_config("tomcatv"),
            "swm": small_config("swm"),
        },
        cache=False,
    )


def test_figure3_rows():
    headers, rows = fig.figure3_machines()
    assert len(rows) == 2
    assert "Paragon" in rows[0][0] and "T3D" in rows[1][0]


def test_figure5_matches_bindings():
    headers, rows = fig.figure5_bindings()
    table = {row[0]: row[1:] for row in rows}
    assert table["SR"] == ["csend", "isend", "hsend", "pvm_send", "shmem_put"]
    assert table["DR"][0] == "no-op"


def test_figure6_rows_cover_sizes():
    headers, rows = fig.figure6_overhead(sizes=(8, 1024), reps=50)
    assert [r[0] for r in rows] == [8, 1024]
    assert len(headers) == 6


def test_figure8_scaled_counts(suite):
    headers, rows = fig.figure8_counts(suite)
    for row in rows:
        # every scaled count in (0, 1]
        assert all(0 < v <= 1 for v in row[1:])


def test_figure10a_baseline_column_is_one(suite):
    headers, rows = fig.figure10a_times(suite)
    for row in rows:
        assert row[1] == pytest.approx(1.0)


def test_figure10b_has_both_libraries(suite):
    headers, rows = fig.figure10b_times(suite)
    assert headers == ["benchmark", "pl", "pl with shmem"]
    assert all(len(r) == 3 for r in rows)


def test_figure11_maxlat_never_below_maxcomb(suite):
    headers, rows = fig.figure11_heuristic_counts(suite)
    for row in rows:
        assert row[2] >= row[1]  # static
        assert row[4] >= row[3]  # dynamic


def test_table_full_includes_paper_columns(suite):
    headers, rows = fig.table_full("tomcatv", suite)
    assert "paper scaled" in headers
    by_key = {r[0]: r for r in rows}
    assert by_key["baseline"][4] == pytest.approx(1.0)
    # the paper's SP-only NaN never leaks into tomcatv
    assert not any(isinstance(v, float) and math.isnan(v) for v in by_key["pl"])


def test_paper_values_table1():
    static, dynamic, time = fig.paper_value("tomcatv", "baseline")
    assert (static, dynamic) == (46, 40400)
    assert time == pytest.approx(2.491051)


def test_figure7_line_counts_positive():
    headers, rows = fig.figure7_programs()
    assert len(rows) == 4
    for row in rows:
        assert row[2] > 50  # our generated C is substantial
        assert row[3] > 0
