"""Tests for the parameter-sweep subsystem (`repro.sweep`)."""

import pytest

from repro import MachineError, load_telemetry
from repro.engine import Job, MachineSpec, execute_job
from repro.sweep import SweepAxis, expand_axes, parse_axis, run_sweep
from repro.sweep.axes import parse_axes

SIMPLE_SMALL = {"n": 16, "niters": 2, "ncond": 2}


# ---------------------------------------------------------------------------
# axis parsing and validation
# ---------------------------------------------------------------------------


class TestParseAxis:
    def test_integers(self):
        axis = parse_axis("nprocs=4,16,64")
        assert axis.name == "nprocs"
        assert axis.values == (4, 16, 64)
        assert all(isinstance(v, int) for v in axis.values)

    def test_floats_and_scientific(self):
        axis = parse_axis("net.latency=1e-6,1.2e-5,0.0001")
        assert axis.values == (1e-6, 1.2e-5, 1e-4)

    def test_integral_float_becomes_int(self):
        assert parse_axis("prim.*.knee_bytes=1e2").values == (100,)

    @pytest.mark.parametrize(
        "text", ["nprocs", "=1,2", "nprocs=", "nprocs=1,,2", "nprocs=1,two"]
    )
    def test_malformed_specs(self, text):
        with pytest.raises(MachineError):
            parse_axis(text)

    def test_unknown_path_rejected(self):
        with pytest.raises(MachineError, match="unknown override path"):
            parse_axis("net.color=1,2")

    def test_duplicate_values_rejected(self):
        with pytest.raises(MachineError, match="repeats"):
            parse_axis("nprocs=4,4")

    def test_nprocs_must_be_positive_integers(self):
        with pytest.raises(MachineError, match="positive"):
            parse_axis("nprocs=4,0")
        with pytest.raises(MachineError, match="integers"):
            SweepAxis("nprocs", (2.5,))

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(MachineError, match="twice"):
            parse_axes(["nprocs=2,4", "nprocs=8,16"])

    def test_describe_round_trips(self):
        assert parse_axis("net.latency=1e-06,0.0001").describe() == (
            "net.latency=1e-06,0.0001"
        )


# ---------------------------------------------------------------------------
# point expansion
# ---------------------------------------------------------------------------


class TestExpandAxes:
    def test_row_major_product(self):
        points = expand_axes(
            [SweepAxis("nprocs", (4, 16)), SweepAxis("net.latency", (1e-6, 1e-5))],
            "t3d",
        )
        assert [p.coords for p in points] == [
            (("nprocs", 4), ("net.latency", 1e-6)),
            (("nprocs", 4), ("net.latency", 1e-5)),
            (("nprocs", 16), ("net.latency", 1e-6)),
            (("nprocs", 16), ("net.latency", 1e-5)),
        ]
        assert [p.machine.nprocs for p in points] == [4, 4, 16, 16]

    def test_nprocs_axis_leaves_variant_base(self):
        points = expand_axes([SweepAxis("nprocs", (4, 16))], "t3d")
        assert {p.variant for p in points} == {"base"}

    def test_override_axes_get_distinct_variants(self):
        points = expand_axes([SweepAxis("net.latency", (1e-6, 1e-5))], "t3d")
        variants = {p.variant for p in points}
        assert "base" not in variants
        assert len(variants) == 2

    def test_axis_wins_over_pinned_override(self):
        base = MachineSpec.coerce("t3d", overrides={"net.latency": 5e-5})
        points = expand_axes([SweepAxis("net.latency", (1e-6,))], base)
        assert dict(points[0].machine.overrides)["net.latency"] == 1e-6

    def test_pinned_overrides_survive_on_every_point(self):
        base = MachineSpec.coerce("t3d", overrides={"prim.*.knee_bytes": 32})
        points = expand_axes([SweepAxis("net.latency", (1e-6, 1e-5))], base)
        for p in points:
            assert dict(p.machine.overrides)["prim.*.knee_bytes"] == 32

    def test_unknown_primitive_fails_eagerly(self):
        with pytest.raises(MachineError, match="no primitive"):
            expand_axes([SweepAxis("prim.bogus.fixed", (1e-6,))], "t3d")

    def test_one_probe_build_per_processor_count(self, monkeypatch):
        built = []
        build = MachineSpec.build

        def counted(spec, *args):
            built.append(spec.nprocs)
            return build(spec, *args)

        monkeypatch.setattr(MachineSpec, "build", counted)
        grid = [
            SweepAxis("net.latency", (1e-6, 2e-6, 4e-6, 8e-6)),
            SweepAxis("prim.*.fixed", (0.0, 1e-6, 2e-6, 4e-6)),
        ]
        assert len(expand_axes(grid, "t3d")) == 16
        assert built == [64]
        built.clear()
        grid = [SweepAxis("nprocs", (4, 9, 16)), SweepAxis("net.latency", (1e-6, 1e-5, 1e-4))]
        assert len(expand_axes(grid, "t3d")) == 9
        assert built == [4, 9, 16]
        # the values of points that are not probed are still validated
        with pytest.raises(MachineError, match="must be positive"):
            expand_axes([SweepAxis("net.bandwidth", (1e8, 0.0))], "t3d")

    def test_points_fingerprint_independently(self):
        points = expand_axes([SweepAxis("net.latency", (1e-6, 1e-5))], "t3d")
        prints = {
            Job.make("simple", "cc", machine=p.machine).fingerprint()
            for p in points
        }
        assert len(prints) == 2

    def test_empty_overrides_do_not_move_fingerprints(self):
        # pre-sweep cache entries must stay valid: a spec with no
        # overrides fingerprints identically to one that never had the
        # field
        plain = Job.make("simple", "cc", machine=MachineSpec(nprocs=16))
        swept = Job.make(
            "simple", "cc", machine=MachineSpec(nprocs=16, overrides=())
        )
        assert plain.fingerprint() == swept.fingerprint()


class TestMachineSpecValidation:
    def test_non_positive_nprocs_rejected(self):
        with pytest.raises(MachineError, match="positive"):
            MachineSpec(nprocs=0)
        with pytest.raises(MachineError, match="positive"):
            MachineSpec(nprocs=-4)

    def test_non_integer_nprocs_rejected(self):
        with pytest.raises(MachineError, match="integer"):
            MachineSpec(nprocs=2.5)
        with pytest.raises(MachineError, match="integer"):
            MachineSpec(nprocs=True)

    def test_variant_property(self):
        assert MachineSpec(nprocs=16).variant == "base"
        spec = MachineSpec.coerce("t3d", overrides={"net.latency": 1e-6})
        assert spec.variant != "base" and len(spec.variant) == 12


# ---------------------------------------------------------------------------
# run_sweep end to end (tiny grids through the real engine)
# ---------------------------------------------------------------------------


def _sweep(tmp_path, **kwargs):
    kwargs.setdefault("axes", [SweepAxis("net.latency", (1e-6, 1e-4))])
    kwargs.setdefault("benchmarks", "simple")
    kwargs.setdefault("keys", ("baseline", "cc"))
    kwargs.setdefault("machine", MachineSpec.coerce("t3d", nprocs=4))
    kwargs.setdefault("config_overrides", {"simple": SIMPLE_SMALL})
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    kwargs.setdefault("jobs", 2)
    return run_sweep(**kwargs)


class TestRunSweep:
    def test_shape_and_slicing(self, tmp_path):
        sweep = _sweep(tmp_path)
        assert len(sweep.points) == 2
        assert sweep.cells_per_point == 2
        assert sweep.cells == 4
        for point, block in sweep.iter_points():
            assert [o.job.experiment for o in block] == ["baseline", "cc"]
            assert all(o.job.machine == point.machine for o in block)

    def test_swept_latency_moves_times(self, tmp_path):
        sweep = _sweep(tmp_path)
        lo, hi = (
            sweep.point_outcomes(i)[0].result.execution_time for i in (0, 1)
        )
        assert lo < hi  # higher latency -> slower baseline

    def test_cache_reuse_across_invocations(self, tmp_path):
        cold = _sweep(tmp_path)
        assert cold.cache_hits == 0
        warm = _sweep(tmp_path)
        assert warm.cache_hits == warm.cells
        for a, b in zip(cold.outcomes, warm.outcomes):
            assert a.result.execution_time == b.result.execution_time

    def test_growing_an_axis_only_simulates_new_points(self, tmp_path):
        _sweep(tmp_path)
        grown = _sweep(
            tmp_path, axes=[SweepAxis("net.latency", (1e-6, 1e-4, 1e-3))]
        )
        assert grown.cells == 6
        assert grown.cache_hits == 4

    def test_study_view_is_figures_compatible(self, tmp_path):
        sweep = _sweep(tmp_path)
        study = sweep.study(0)
        assert set(study.results) == {"simple"}
        assert [r.experiment for r in study.results["simple"]] == [
            "baseline",
            "cc",
        ]

    def test_telemetry_records_variants(self, tmp_path):
        out = tmp_path / "telemetry.json"
        sweep = _sweep(tmp_path, telemetry=out)
        records = load_telemetry(out)
        assert len(records) == sweep.cells
        variants = {r["machine_variant"] for r in records}
        assert len(variants) == 2 and "base" not in variants
        assert all("machine_overrides" in r for r in records)

    def test_needs_at_least_one_axis(self, tmp_path):
        with pytest.raises(MachineError, match="at least one axis"):
            run_sweep(axes=[], benchmarks="simple")


# ---------------------------------------------------------------------------
# routing: the engine batches the cost variants of each cell
# ---------------------------------------------------------------------------


def _per_job(tmp_path, values, **kwargs):
    """One single-point sweep per ``net.latency`` value, concatenated:
    each cell then has one job, so none of them batches."""
    return [
        outcome
        for value in values
        for outcome in _sweep(
            tmp_path, axes=[SweepAxis("net.latency", (value,))], **kwargs
        ).outcomes
    ]


def _same_result(a, b):
    """Two records' results agree bit for bit."""
    for field in (
        "execution_time",
        "static_count",
        "dynamic_count",
        "total_messages",
        "total_bytes",
        "warnings",
    ):
        assert a["result"][field] == b["result"][field], (a["fingerprint"], field)


class TestBatchedRouting:
    def test_cost_only_sweep_batches_by_default(self, tmp_path):
        sweep = _sweep(tmp_path)
        assert all(o.record.get("batched") for o in sweep.outcomes)

    def test_nprocs_axis_falls_back(self, tmp_path):
        sweep = _sweep(tmp_path, axes=[SweepAxis("nprocs", (2, 4))])
        assert not any(o.record.get("batched") for o in sweep.outcomes)

    def test_nprocs_by_cost_sweep_batches_each_processor_count(self, tmp_path):
        sweep = _sweep(
            tmp_path,
            axes=[
                SweepAxis("nprocs", (2, 4)),
                SweepAxis("net.latency", (1e-6, 1e-4)),
            ],
        )
        assert sweep.cells == 8
        assert all(o.record.get("batched") for o in sweep.outcomes)
        for outcome in sweep.outcomes:
            reference = execute_job(outcome.job)
            assert "batched" not in reference
            _same_result(outcome.record, reference)

    def test_single_point_falls_back(self, tmp_path):
        sweep = _sweep(tmp_path, axes=[SweepAxis("net.latency", (1e-6,))])
        assert not any(o.record.get("batched") for o in sweep.outcomes)

    def test_numeric_mode_falls_back(self, tmp_path):
        sweep = _sweep(tmp_path, mode="numeric")
        assert not any(o.record.get("batched") for o in sweep.outcomes)

    def test_batched_matches_per_job_bitwise(self, tmp_path):
        batched = _sweep(tmp_path, cache_dir=tmp_path / "a")
        scalar = _per_job(tmp_path, (1e-6, 1e-4), cache_dir=tmp_path / "b")
        assert all(o.record.get("batched") for o in batched.outcomes)
        assert not any(o.record.get("batched") for o in scalar)
        assert batched.cells == len(scalar)
        for a, b in zip(batched.outcomes, scalar):
            assert a.job == b.job
            assert a.result == b.result
            _same_result(a.record, b.record)

    def test_cache_interop_batched_then_scalar(self, tmp_path):
        cold = _sweep(tmp_path)
        assert cold.cache_hits == 0
        warm = _per_job(tmp_path, (1e-6, 1e-4))
        assert all(o.cached for o in warm)
        for a, b in zip(cold.outcomes, warm):
            assert a.result.execution_time == b.result.execution_time

    def test_cache_interop_scalar_then_batched(self, tmp_path):
        cold = _per_job(tmp_path, (1e-6, 1e-4))
        assert not any(o.cached for o in cold)
        warm = _sweep(tmp_path)
        assert warm.cache_hits == warm.cells
        for a, b in zip(cold, warm.outcomes):
            assert a.result.execution_time == b.result.execution_time

    def test_growing_an_axis_batches_only_new_points(self, tmp_path):
        _sweep(tmp_path)
        grown = _sweep(
            tmp_path,
            axes=[SweepAxis("net.latency", (1e-6, 1e-4, 1e-3, 1e-2))],
        )
        assert grown.cells == 8
        assert grown.cache_hits == 4
        fresh = [o for o in grown.outcomes if not o.cached]
        assert all(o.record.get("batched") for o in fresh)

    def test_cell_left_with_one_miss_runs_per_job(self, tmp_path):
        _sweep(tmp_path)
        grown = _sweep(
            tmp_path, axes=[SweepAxis("net.latency", (1e-6, 1e-4, 1e-3))]
        )
        fresh = [o for o in grown.outcomes if not o.cached]
        assert len(fresh) == 2
        assert not any(o.record.get("batched") for o in fresh)
