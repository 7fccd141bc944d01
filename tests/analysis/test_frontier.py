"""Tests for frontier analysis (`repro.analysis.frontier`)."""

import csv
import json

import pytest

from repro.analysis.frontier import (
    FRONTIER_SCHEMA,
    ContourPoint,
    crossover_map,
    format_frontier_report,
    format_refined_report,
    frontier_doc,
    refined_doc,
    winner_map,
    write_frontier_csv,
    write_frontier_json,
    write_refined_json,
)
from repro.engine import MachineSpec
from repro.sweep import SweepAxis, run_refined_sweep, run_sweep

SIMPLE_SMALL = {"n": 16, "niters": 2, "ncond": 2}
X = "prim.*.per_byte_beyond"
Y = "net.latency"


@pytest.fixture(scope="module")
def grid_sweep(tmp_path_factory):
    """A small two-axis grid: the combining knee as a function of wire
    latency."""
    return run_sweep(
        axes=[
            SweepAxis(X, (0.0, 3e-7, 1e-6)),
            SweepAxis(Y, (1e-5, 5e-5)),
        ],
        benchmarks="simple",
        keys=("baseline", "rr", "cc"),
        machine=MachineSpec.coerce("t3d", nprocs=16),
        overrides={"prim.*.knee_bytes": 32},
        config_overrides={"simple": SIMPLE_SMALL},
        cache_dir=tmp_path_factory.mktemp("cache"),
        jobs=2,
    )


# ---------------------------------------------------------------------------
# maps over a real grid
# ---------------------------------------------------------------------------


class TestCrossoverMap:
    def test_contour_per_latency(self, grid_sweep):
        contours = crossover_map(grid_sweep, X, Y)
        cc = [c for c in contours if (c.experiment, c.reference) == ("cc", "rr")]
        assert {c.y for c in cc} == {1e-5, 5e-5}
        for c in cc:
            assert isinstance(c, ContourPoint)
            assert c.benchmark == "simple"
            assert c.x_low <= c.x_estimate <= c.x_high
            assert c.ratio_low < 1.0 < c.ratio_high

    def test_knee_moves_with_latency(self, grid_sweep):
        # higher wire latency makes combining win longer: the knee's
        # x-estimate grows with y
        cc = sorted(
            (
                c
                for c in crossover_map(grid_sweep, X, Y)
                if (c.experiment, c.reference) == ("cc", "rr")
            ),
            key=lambda c: c.y,
        )
        assert cc[0].x_estimate < cc[-1].x_estimate

    def test_unknown_axis_raises(self, grid_sweep):
        with pytest.raises(KeyError, match="not in sweep axes"):
            crossover_map(grid_sweep, X, "net.bandwidth")


class TestWinnerMap:
    def test_grid_shape_and_order(self, grid_sweep):
        rows = winner_map(grid_sweep, X, Y)
        assert len(rows) == 6  # 3 x-values x 2 y-values
        assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))
        assert all(r[3] in grid_sweep.keys for r in rows)

    def test_winner_flips_along_x(self, grid_sweep):
        rows = winner_map(grid_sweep, X, Y)
        at_low_lat = [r[3] for r in rows if r[1] == 1e-5]
        assert at_low_lat[0] == "cc"  # free combining wins
        assert at_low_lat[-1] == "rr"  # expensive beyond-knee bytes lose


# ---------------------------------------------------------------------------
# emission: %.6g CSV, versioned JSON
# ---------------------------------------------------------------------------


class TestEmission:
    def test_csv_golden_formatting(self, grid_sweep, tmp_path):
        contours = crossover_map(grid_sweep, X, Y)
        path = write_frontier_csv(tmp_path / "frontier.csv", contours, X, Y)
        with path.open() as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["x_axis", "y_axis"]
        assert got[1] == [X, Y]
        assert got[2] == [
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
        assert len(got) == 3 + len(contours)
        est_col = got[2].index("x_estimate")
        for text_row, c in zip(got[3:], contours):
            assert text_row[est_col] == f"{c.x_estimate:.6g}"
            mantissa = text_row[est_col].split("e")[0].replace(".", "")
            assert len(mantissa.lstrip("-").lstrip("0")) <= 6

    def test_json_schema(self, grid_sweep, tmp_path):
        path = write_frontier_json(tmp_path / "frontier.json", grid_sweep, X, Y)
        doc = json.loads(path.read_text())
        assert doc["schema"] == FRONTIER_SCHEMA
        assert doc["x_axis"] == X and doc["y_axis"] == Y
        assert doc["threshold"] == 1.0
        assert doc["benchmarks"] == ["simple"]
        assert doc["keys"] == ["baseline", "rr", "cc"]
        assert len(doc["winners"]) == 6
        assert doc["contours"]
        # full precision: round-trips bit for bit
        contours = crossover_map(grid_sweep, X, Y)
        assert doc["contours"][0]["x_estimate"] == contours[0].x_estimate
        assert doc == frontier_doc(grid_sweep, X, Y)

    def test_report_mentions_contours_and_winners(self, grid_sweep):
        report = format_frontier_report(grid_sweep, X, Y)
        assert "Crossover contours" in report
        assert "Winner grid" in report


class TestRefinedEmission:
    @pytest.fixture(scope="class")
    def refined(self, tmp_path_factory):
        return run_refined_sweep(
            axis=X,
            lo=0.0,
            hi=1e-6,
            tol=1e-8,
            coarse=5,
            benchmarks="simple",
            keys=("baseline", "rr", "cc"),
            machine=MachineSpec.coerce("t3d", nprocs=16),
            overrides={"prim.*.knee_bytes": 32},
            config_overrides={"simple": SIMPLE_SMALL},
            cache_dir=tmp_path_factory.mktemp("refined"),
            jobs=2,
        )

    def test_refined_json_ledger(self, refined, tmp_path):
        path = write_refined_json(tmp_path / "refined.json", refined)
        doc = json.loads(path.read_text())
        assert doc["schema"] == FRONTIER_SCHEMA
        assert doc["axis"] == X
        assert doc["rounds"] == refined.rounds
        assert doc["round_fingerprints"] == refined.round_fingerprints
        assert doc["points_evaluated"] == refined.points_evaluated
        assert doc["dense_points"] == refined.dense_points
        assert doc["crossovers"] and doc["winner_flips"]
        assert doc == json.loads(json.dumps(refined_doc(refined)))

    def test_refined_report(self, refined):
        report = format_refined_report(refined)
        assert "Refined" in report and "evaluations" in report
        assert "Localized crossovers" in report
        assert "Winner flips" in report
