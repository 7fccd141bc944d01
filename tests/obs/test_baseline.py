"""Tests for baseline snapshots and regression diffs."""

import json
import math

import pytest

from repro import BaselineError, run_study
from repro.obs import (
    BASELINE_SCHEMA,
    diff_baseline,
    format_drifts,
    load_baseline,
    snapshot_study,
    write_baseline,
)
from repro.programs import small_config


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    return run_study(
        benchmarks=("swm",),
        keys=("baseline", "cc"),
        nprocs=16,
        config_overrides={"swm": small_config("swm")},
        cache_dir=tmp_path_factory.mktemp("cache"),
    )


@pytest.fixture
def snapshot(study):
    return snapshot_study(study, note="test")


class TestSnapshot:
    def test_shape(self, snapshot):
        assert snapshot["schema"] == BASELINE_SCHEMA
        assert snapshot["kind"] == "repro-baseline"
        assert snapshot["machine"] == "t3d"
        assert snapshot["nprocs"] == 16
        assert snapshot["note"] == "test"
        cell = snapshot["benchmarks"]["swm"]["cc"]
        assert set(cell) == {
            "static_count",
            "dynamic_count",
            "total_messages",
            "total_bytes",
            "execution_time",
            "sim.fastpath.compiled",
            "sim.fastpath.extrapolated_trips",
            "sim.fastpath.fallbacks",
        }

    def test_fastpath_engagement_is_pinned(self, snapshot):
        # a TIMING study runs the compiled path by default; the baseline
        # records that fact so a silent disengagement drifts
        cell = snapshot["benchmarks"]["swm"]["cc"]
        assert cell["sim.fastpath.compiled"] == 1
        changed = json.loads(json.dumps(snapshot))
        changed["benchmarks"]["swm"]["cc"]["sim.fastpath.compiled"] = 0
        drifts = diff_baseline(changed, snapshot)
        assert [d.field for d in drifts] == ["sim.fastpath.compiled"]

    def test_empty_study_rejected(self):
        class Empty:
            telemetry = []

        with pytest.raises(BaselineError, match="empty"):
            snapshot_study(Empty())


class TestRoundTrip:
    def test_write_load_diff_is_clean(self, tmp_path, snapshot):
        path = write_baseline(tmp_path / "sub" / "b.json", snapshot)
        loaded = load_baseline(path)
        assert diff_baseline(snapshot, loaded) == []

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text("{ not json")
        with pytest.raises(BaselineError, match="not valid JSON"):
            load_baseline(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(BaselineError, match="cannot read"):
            load_baseline(tmp_path / "missing.json")

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"schema": 2, "records": []}))
        with pytest.raises(BaselineError, match="not a repro baseline"):
            load_baseline(path)

    def test_load_rejects_future_schema(self, tmp_path, snapshot):
        path = write_baseline(
            tmp_path / "b.json", dict(snapshot, schema=BASELINE_SCHEMA + 1)
        )
        with pytest.raises(BaselineError, match="schema"):
            load_baseline(path)


def _copy(snapshot):
    return json.loads(json.dumps(snapshot))


class TestDiff:
    def test_count_drift_is_exact(self, snapshot):
        current = _copy(snapshot)
        current["benchmarks"]["swm"]["cc"]["total_messages"] += 1
        (drift,) = diff_baseline(current, snapshot)
        assert (drift.benchmark, drift.experiment) == ("swm", "cc")
        assert drift.field == "total_messages"
        assert "expected" in drift.describe()

    def test_time_one_ulp_drifts(self, snapshot):
        # times compare exactly, as the tier-1 golden test does
        current = _copy(snapshot)
        cell = current["benchmarks"]["swm"]["cc"]
        want = cell["execution_time"]
        cell["execution_time"] = math.nextafter(want, math.inf)
        (drift,) = diff_baseline(current, snapshot)
        assert (drift.experiment, drift.field) == ("cc", "execution_time")
        assert (drift.expected, drift.actual) == (want, cell["execution_time"])

    def test_missing_cell_drifts(self, snapshot):
        current = _copy(snapshot)
        del current["benchmarks"]["swm"]["cc"]
        drifts = diff_baseline(current, snapshot)
        assert [(d.experiment, d.field) for d in drifts] == [("cc", "cell")]

    def test_missing_benchmark_drifts(self, snapshot):
        current = _copy(snapshot)
        current["benchmarks"] = {}
        (drift,) = diff_baseline(current, snapshot)
        assert (drift.benchmark, drift.actual) == ("swm", "missing")

    def test_machine_shape_drifts(self, snapshot):
        current = dict(_copy(snapshot), nprocs=64)
        drifts = diff_baseline(current, snapshot)
        assert [(d.field, d.expected, d.actual) for d in drifts] == [
            ("nprocs", 16, 64)
        ]

    def test_baseline_may_cover_a_subset(self, snapshot):
        baseline = _copy(snapshot)
        del baseline["benchmarks"]["swm"]["cc"]
        # the run has extra cells the baseline never recorded: fine
        assert diff_baseline(snapshot, baseline) == []

    def test_format_drifts(self, snapshot):
        assert format_drifts([]) == "no drift from baseline"
        current = _copy(snapshot)
        current["benchmarks"]["swm"]["cc"]["static_count"] += 1
        out = format_drifts(diff_baseline(current, snapshot))
        assert out.startswith("1 drift from baseline:")
        assert "swm/cc: static_count" in out
