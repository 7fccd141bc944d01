"""Tests for the scaling analysis layer (`repro.analysis.scaling`)."""

import csv
import json

import pytest

from repro.analysis.scaling import (
    SCALING_SCHEMA,
    detect_crossovers,
    find_crossings,
    format_refined_report,
    format_scaling_report,
    refined_doc,
    scaling_rows,
    speedup_curve,
    write_csv,
    write_json,
    write_refined_json,
)
from repro.engine import MachineSpec
from repro.sweep import SweepAxis, run_refined_sweep, run_sweep

SIMPLE_SMALL = {"n": 16, "niters": 2, "ncond": 2}


# ---------------------------------------------------------------------------
# find_crossings: the pure interpolation helper
# ---------------------------------------------------------------------------


class TestFindCrossings:
    def test_simple_rising_crossing(self):
        pts = [(0.0, 0.5), (10.0, 1.5)]
        ((x0, x1, est, r0, r1),) = find_crossings(pts)
        assert (x0, x1) == (0.0, 10.0)
        assert est == pytest.approx(5.0)
        assert (r0, r1) == (0.5, 1.5)

    def test_interpolation_is_proportional(self):
        ((_, _, est, _, _),) = find_crossings([(0.0, 0.9), (1.0, 1.3)])
        assert est == pytest.approx(0.25)

    def test_no_crossing_when_same_side(self):
        assert find_crossings([(0, 0.5), (1, 0.9), (2, 0.99)]) == []

    def test_touching_threshold_is_not_a_crossing(self):
        # dips to exactly 1.0 and retreats: never passes through
        assert find_crossings([(0, 0.5), (1, 1.0), (2, 0.5)]) == []
        assert find_crossings([(0, 1.5), (1, 1.0), (2, 1.5)]) == []

    def test_exact_grid_point_crossing(self):
        # passes *through* the threshold at a grid point: one crossing
        # estimated exactly there, bracketed by the off-threshold
        # neighbours
        ((x0, x1, est, r0, r1),) = find_crossings(
            [(0, 0.5), (1, 1.0), (2, 1.5)]
        )
        assert (x0, x1) == (0, 2)
        assert est == 1.0
        assert (r0, r1) == (0.5, 1.5)

    def test_tie_run_midpoint(self):
        # a plateau exactly on the threshold between opposite signs is
        # one crossing at the plateau's midpoint
        ((x0, x1, est, _, _),) = find_crossings(
            [(0, 1.2), (1, 1.0), (2, 1.0), (3, 1.0), (4, 0.8)]
        )
        assert (x0, x1) == (0, 4)
        assert est == 2.0

    def test_leading_and_trailing_ties_are_not_crossings(self):
        assert find_crossings([(0, 1.0), (1, 1.5)]) == []
        assert find_crossings([(0, 0.5), (1, 1.0)]) == []
        assert find_crossings([(0, 1.0), (1, 1.0)]) == []

    def test_multiple_crossings(self):
        pts = [(0, 0.5), (1, 1.5), (2, 0.5)]
        crossings = find_crossings(pts)
        assert len(crossings) == 2
        assert crossings[0][2] < crossings[1][2]

    def test_non_monotone_with_exact_ties(self):
        # up through a tie, back down through a straddle: two crossings
        pts = [(0, 0.5), (1, 1.0), (2, 1.5), (3, 0.5)]
        crossings = find_crossings(pts)
        assert len(crossings) == 2
        assert crossings[0][2] == 1.0
        assert 2.0 < crossings[1][2] < 3.0

    def test_custom_threshold(self):
        assert find_crossings([(0, 1.0), (1, 3.0)], threshold=2.0)

    def test_custom_threshold_tie(self):
        ((_, _, est, _, _),) = find_crossings(
            [(0, 1.0), (1, 2.0), (2, 3.0)], threshold=2.0
        )
        assert est == 1.0


# ---------------------------------------------------------------------------
# end-to-end over a real (tiny) sweep: the paper's combining knee
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def knee_sweep(tmp_path_factory):
    """Sweep the beyond-knee cost with the knee pinned tight: combining
    flips from win to loss as concatenated messages start paying."""
    return run_sweep(
        axes=[SweepAxis("prim.*.per_byte_beyond", (0.0, 3e-7, 1e-6))],
        benchmarks="simple",
        keys=("baseline", "rr", "cc"),
        machine=MachineSpec.coerce("t3d", nprocs=16),
        overrides={"prim.*.knee_bytes": 32},
        config_overrides={"simple": SIMPLE_SMALL},
        cache_dir=tmp_path_factory.mktemp("cache"),
        jobs=2,
    )


class TestScalingRows:
    def test_shape_and_columns(self, knee_sweep):
        headers, rows = scaling_rows(knee_sweep)
        assert headers[0] == "prim.*.per_byte_beyond"
        assert headers[1:] == [
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
        assert len(rows) == knee_sweep.cells == 9

    def test_first_key_is_its_own_reference(self, knee_sweep):
        headers, rows = scaling_rows(knee_sweep)
        vs_base = headers.index("vs_baseline")
        for row in rows:
            if row[headers.index("experiment")] == "baseline":
                assert row[vs_base] == 1.0


class TestSpeedupCurve:
    def test_incremental_reference_defaults_to_previous_key(self, knee_sweep):
        ((group, pts),) = speedup_curve(
            knee_sweep, "prim.*.per_byte_beyond", "simple", "cc"
        )
        assert group == ()
        xs = [x for x, _ in pts]
        assert xs == sorted(xs) and len(pts) == 3
        # cc/rr ratio rises with the beyond-knee cost and crosses 1.0
        ratios = [r for _, r in pts]
        assert ratios[0] < 1.0 < ratios[-1]

    def test_unknown_experiment_raises(self, knee_sweep):
        with pytest.raises(KeyError, match="not in sweep keys"):
            speedup_curve(knee_sweep, "prim.*.per_byte_beyond", "simple", "pl")


class TestDetectCrossovers:
    def test_combining_knee_crossover_detected(self, knee_sweep):
        crossovers = detect_crossovers(knee_sweep)
        assert crossovers
        c = next(
            c for c in crossovers if (c.experiment, c.reference) == ("cc", "rr")
        )
        assert c.axis == "prim.*.per_byte_beyond"
        assert c.direction == "win->loss"
        assert c.x_low < c.x_estimate < c.x_high
        assert c.ratio_low < 1.0 < c.ratio_high

    def test_report_mentions_crossover(self, knee_sweep):
        report = format_scaling_report(knee_sweep)
        assert "Scaling sweep" in report
        assert "Crossovers" in report and "win->loss" in report

    def test_winner_table_needs_two_keys(self):
        one_key = run_sweep(
            axes=[SweepAxis("net.latency", (1e-6, 1e-4))],
            benchmarks="simple",
            keys=("cc",),
            machine=MachineSpec.coerce("t3d", nprocs=4),
            config_overrides={"simple": SIMPLE_SMALL},
            cache=False,
        )
        assert "Fastest key per point" not in format_scaling_report(one_key)


class TestEmission:
    def test_csv_round_trips(self, knee_sweep, tmp_path):
        path = write_csv(tmp_path / "scaling.csv", knee_sweep)
        with path.open() as fh:
            got = list(csv.reader(fh))
        headers, rows = scaling_rows(knee_sweep)
        assert got[0] == headers
        assert len(got) == 1 + len(rows)
        # floats are emitted as %.6g (full precision lives in the JSON)
        time_col = headers.index("time")
        for text_row, row in zip(got[1:], rows):
            assert text_row[time_col] == f"{row[time_col]:.6g}"

    def test_csv_golden_formatting(self, knee_sweep, tmp_path):
        """Every float cell renders as %.6g — byte-stable across
        platforms; ints and strings pass through untouched."""
        path = write_csv(tmp_path / "scaling.csv", knee_sweep)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "prim.*.per_byte_beyond,benchmark,experiment,library,variant,"
            "static,dynamic,time,vs_baseline,vs_prev"
        )
        for line in lines[1:]:
            cells = line.split(",")
            # axis coordinate and time both pass through %.6g
            assert cells[0] == f"{float(cells[0]):.6g}"
            assert cells[7] == f"{float(cells[7]):.6g}"
            # counts stay bare integers (no float formatting applied)
            assert cells[5].isdigit() and cells[6].isdigit()
            # a %.6g artifact never carries >6 significant digits
            mantissa = cells[7].split("e")[0].replace(".", "")
            assert len(mantissa.lstrip("-").lstrip("0")) <= 6

    def test_json_schema(self, knee_sweep, tmp_path):
        path = write_json(tmp_path / "scaling.json", knee_sweep)
        doc = json.loads(path.read_text())
        assert doc["schema"] == SCALING_SCHEMA
        assert doc["axes"] == [
            {"name": "prim.*.per_byte_beyond", "values": [0.0, 3e-7, 1e-6]}
        ]
        assert doc["benchmarks"] == ["simple"]
        assert doc["keys"] == ["baseline", "rr", "cc"]
        assert len(doc["points"]) == 3
        assert all(p["nprocs"] == 16 for p in doc["points"])
        assert len(doc["rows"]) == 9
        assert doc["crossovers"]
        assert {"benchmark", "experiment", "reference", "axis", "x_estimate"} <= set(
            doc["crossovers"][0]
        )
        # the fastest key per point: combining wins until the knee
        assert [(w["prim.*.per_byte_beyond"], w["benchmark"], w["winner"])
                for w in doc["winners"]] == [
            (0.0, "simple", "cc"), (3e-7, "simple", "cc"), (1e-6, "simple", "rr")
        ]


class TestRefinedEmission:
    @pytest.fixture(scope="class")
    def refined(self, tmp_path_factory):
        return run_refined_sweep(
            axis="prim.*.per_byte_beyond",
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
        assert doc["schema"] == SCALING_SCHEMA
        assert doc["axis"] == "prim.*.per_byte_beyond"
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
