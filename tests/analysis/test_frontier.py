"""Crossover frontiers over a two-axis sweep: the crossings along one
axis per value of the other (`scan_crossovers`) and the fastest key per
point (`winner_rows`) — the map `repro sweep --axis X --axis Y` prints."""

import json

import pytest

from repro.analysis.scaling import (
    format_scaling_report,
    scan_crossovers,
    winner_rows,
    write_json,
)
from repro.engine import MachineSpec
from repro.sweep import SweepAxis, run_sweep

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


def _knee_crossings(sweep):
    """The cc/rr crossings along ``X``, one group per value of ``Y``."""
    return [
        c
        for c in scan_crossovers(sweep, [X])
        if (c.experiment, c.reference) == ("cc", "rr")
    ]


# ---------------------------------------------------------------------------
# the crossings along X, grouped by Y
# ---------------------------------------------------------------------------


class TestCrossoverMap:
    def test_contour_per_latency(self, grid_sweep):
        cc = _knee_crossings(grid_sweep)
        assert sorted(dict(c.group)[Y] for c in cc) == [1e-5, 5e-5]
        for c in cc:
            assert c.benchmark == "simple"
            assert c.axis == X
            assert c.x_low <= c.x_estimate <= c.x_high
            assert c.ratio_low < 1.0 < c.ratio_high

    def test_knee_moves_with_latency(self, grid_sweep):
        # higher wire latency makes combining win longer: the knee's
        # x-estimate grows with y
        cc = sorted(_knee_crossings(grid_sweep), key=lambda c: dict(c.group)[Y])
        assert cc[0].x_estimate < cc[-1].x_estimate

    def test_unknown_axis_raises(self, grid_sweep):
        with pytest.raises(KeyError, match="no axis 'net.bandwidth'"):
            scan_crossovers(grid_sweep, ["net.bandwidth"])


# ---------------------------------------------------------------------------
# the fastest key per point
# ---------------------------------------------------------------------------


class TestWinnerMap:
    def test_grid_shape_and_order(self, grid_sweep):
        headers, rows = winner_rows(grid_sweep)
        assert headers == [X, Y, "benchmark", "winner"]
        assert len(rows) == 6  # 3 x-values x 2 y-values, one benchmark
        assert [(r[0], r[1]) for r in rows] == [
            (p.coord(X), p.coord(Y)) for p in grid_sweep.points
        ]
        assert all(r[2] == "simple" for r in rows)
        assert all(r[3] in grid_sweep.keys for r in rows)

    def test_winner_flips_along_x(self, grid_sweep):
        _, rows = winner_rows(grid_sweep)
        at_low_lat = {r[0]: r[3] for r in rows if r[1] == 1e-5}
        assert at_low_lat[0.0] == "cc"  # free combining wins
        assert at_low_lat[1e-6] == "rr"  # expensive beyond-knee bytes lose

    def test_json_winners(self, grid_sweep, tmp_path):
        doc = json.loads(write_json(tmp_path / "map.json", grid_sweep).read_text())
        headers, rows = winner_rows(grid_sweep)
        assert doc["winners"] == [dict(zip(headers, row)) for row in rows]
        at_low_lat = {
            w[X]: w["winner"] for w in doc["winners"] if w[Y] == 1e-5
        }
        assert (at_low_lat[0.0], at_low_lat[1e-6]) == ("cc", "rr")
        # the crossings along X keep full precision: bit for bit
        knees = [
            c["x_estimate"]
            for c in doc["crossovers"]
            if c["axis"] == X and (c["experiment"], c["reference"]) == ("cc", "rr")
        ]
        assert knees == [c.x_estimate for c in _knee_crossings(grid_sweep)]


class TestEmission:
    def test_report_mentions_contours_and_winners(self, grid_sweep):
        report = format_scaling_report(grid_sweep)
        assert "Crossovers" in report and "win->loss" in report
        winners = report.split("\n\n")[-1].splitlines()
        assert winners[0] == "Fastest key per point"
        assert len(winners) == 3 + 6  # title, header, rule, one row per point
