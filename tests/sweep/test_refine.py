"""Tests for adaptive refinement (`repro.sweep.refine`)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MachineError
from repro.engine import MachineSpec
from repro.sweep import RefinedSweep, SweepAxis, run_refined_sweep, run_sweep

SIMPLE_SMALL = {"n": 16, "niters": 2, "ncond": 2}
AXIS = "prim.*.per_byte_beyond"


def _refine(tmp_path, **kwargs):
    kwargs.setdefault("axis", AXIS)
    kwargs.setdefault("lo", 0.0)
    kwargs.setdefault("hi", 1e-6)
    kwargs.setdefault("tol", 1e-8)
    kwargs.setdefault("coarse", 5)
    kwargs.setdefault("benchmarks", "simple")
    kwargs.setdefault("keys", ("baseline", "rr", "cc"))
    kwargs.setdefault("machine", MachineSpec.coerce("t3d", nprocs=16))
    kwargs.setdefault("overrides", {"prim.*.knee_bytes": 32})
    kwargs.setdefault("config_overrides", {"simple": SIMPLE_SMALL})
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    kwargs.setdefault("jobs", 2)
    return run_refined_sweep(**kwargs)


@pytest.fixture(scope="module")
def refined(tmp_path_factory):
    """Refine the paper's combining knee: cc flips from win to loss as
    the beyond-knee byte cost grows."""
    return _refine(tmp_path_factory.mktemp("refine"))


class TestRefinement:
    def test_localizes_crossover_to_tolerance(self, refined):
        assert isinstance(refined, RefinedSweep)
        c = next(
            c
            for c in refined.crossovers
            if (c.experiment, c.reference) == ("cc", "rr")
        )
        assert c.direction == "win->loss"
        assert c.x_high - c.x_low <= refined.tol
        assert c.x_low <= c.x_estimate <= c.x_high

    def test_winner_flip_matches_crossover(self, refined):
        (flip,) = [f for f in refined.winner_flips if f.benchmark == "simple"]
        assert (flip.from_key, flip.to_key) == ("cc", "rr")
        c = refined.crossovers[0]
        assert flip.x_low == c.x_low and flip.x_high == c.x_high

    def test_beats_dense_grid_by_5x(self, refined):
        # the tentpole claim: >= 5x fewer evaluations than the dense
        # grid at the same resolution
        assert refined.points_evaluated * 5 <= refined.dense_points
        assert refined.savings >= 5.0

    def test_round_structure(self, refined):
        assert refined.rounds == len(refined.round_values)
        assert refined.rounds == len(refined.round_fingerprints)
        assert len(refined.round_values[0]) == 5  # the coarse grid
        assert all(len(vs) >= 1 for vs in refined.round_values)
        # fingerprints are content hashes: distinct per round
        assert len(set(refined.round_fingerprints)) == refined.rounds
        assert all(
            len(fp) == 16 and int(fp, 16) >= 0
            for fp in refined.round_fingerprints
        )

    def test_reported_crossings_straddle_the_threshold(self, tmp_path):
        """A refinement bisects toward crossings of its threshold and
        reports those crossings, not the crossings of 1.0."""
        refined = _refine(tmp_path, threshold=0.97)
        assert refined.crossovers
        for c in refined.crossovers:
            assert (c.ratio_low - 0.97) * (c.ratio_high - 0.97) < 0
            assert c.x_high - c.x_low <= refined.tol

    def test_merged_sweep_is_ordered_and_complete(self, refined):
        xs = [float(p.coord(AXIS)) for p in refined.sweep.points]
        assert xs == sorted(xs)
        assert len(xs) == len(set(xs))
        assert set(xs) == {v for vs in refined.round_values for v in vs}
        assert refined.sweep.cells_per_point == 3

    def test_evaluated_points_bit_identical_to_dense(self, refined, tmp_path):
        """Refinement changes *which* variants run, never *how*: a dense
        sweep over exactly the refined value set reproduces every
        execution time bit for bit."""
        values = tuple(float(p.coord(AXIS)) for p in refined.sweep.points)
        dense = run_sweep(
            axes=[SweepAxis(AXIS, values)],
            benchmarks="simple",
            keys=("baseline", "rr", "cc"),
            machine=MachineSpec.coerce("t3d", nprocs=16),
            overrides={"prim.*.knee_bytes": 32},
            config_overrides={"simple": SIMPLE_SMALL},
            cache_dir=tmp_path / "dense",
            jobs=2,
        )
        assert dense.cells == len(refined.sweep.outcomes)
        refined_times = {
            (o.job.machine.overrides, o.job.experiment): o.result.execution_time
            for o in refined.sweep.outcomes
        }
        for o in dense.outcomes:
            key = (o.job.machine.overrides, o.job.experiment)
            assert o.result.execution_time == refined_times[key]

    def test_cache_reuse_across_refinements(self, tmp_path):
        cold = _refine(tmp_path)
        warm = _refine(tmp_path)
        assert warm.round_fingerprints == cold.round_fingerprints
        assert warm.sweep.cache_hits == len(warm.sweep.outcomes)


class TestValidation:
    def test_nprocs_axis_rejected(self, tmp_path):
        with pytest.raises(MachineError, match="nprocs"):
            _refine(tmp_path, axis="nprocs")

    def test_empty_range_rejected(self, tmp_path):
        with pytest.raises(MachineError, match="empty"):
            _refine(tmp_path, lo=1e-6, hi=1e-6)

    def test_bad_tolerance_rejected(self, tmp_path):
        with pytest.raises(MachineError, match="positive"):
            _refine(tmp_path, tol=0.0)

    def test_coarse_too_small_rejected(self, tmp_path):
        with pytest.raises(MachineError, match=">= 2"):
            _refine(tmp_path, coarse=1)


class TestIntegralAxis:
    def test_knee_bisection_stays_integral(self, tmp_path):
        refined = _refine(
            tmp_path,
            axis="prim.*.knee_bytes",
            lo=8,
            hi=512,
            tol=1.0,
            coarse=3,
            overrides={"prim.*.per_byte_beyond": 5e-7},
        )
        xs = [p.coord("prim.*.knee_bytes") for p in refined.sweep.points]
        assert all(float(x) == int(x) for x in xs)
        # integer exhaustion terminates even below fractional tolerance
        assert refined.rounds <= 32


class TestDifferential:
    """Refined crossovers agree with a dense grid's to within the
    tolerance — the refinement only skips work, never changes answers."""

    @settings(max_examples=4, deadline=None)
    @given(knee=st.sampled_from((16, 32, 64)))
    def test_refined_matches_dense(self, tmp_path_factory, knee):
        tmp = tmp_path_factory.mktemp("diff")
        tol = 5e-9
        refined = _refine(
            tmp,
            tol=tol,
            overrides={"prim.*.knee_bytes": knee},
            cache_dir=tmp / "refined",
        )
        dense = run_sweep(
            axes=[
                SweepAxis(
                    AXIS, tuple(i * 1e-6 / 40 for i in range(41))
                )
            ],
            benchmarks="simple",
            keys=("baseline", "rr", "cc"),
            machine=MachineSpec.coerce("t3d", nprocs=16),
            overrides={"prim.*.knee_bytes": knee},
            config_overrides={"simple": SIMPLE_SMALL},
            cache_dir=tmp / "dense",
            jobs=2,
        )
        from repro.analysis.scaling import detect_crossovers

        dense_cross = [
            c
            for c in detect_crossovers(dense)
            if (c.experiment, c.reference) == ("cc", "rr")
        ]
        refined_cross = [
            c
            for c in refined.crossovers
            if (c.experiment, c.reference) == ("cc", "rr")
        ]
        assert len(refined_cross) == len(dense_cross)
        for rc, dc in zip(refined_cross, dense_cross):
            # the dense grid brackets the truth within its own step; the
            # refined estimate must land inside that bracket (padded by
            # the refinement tolerance)
            assert dc.x_low - tol <= rc.x_estimate <= dc.x_high + tol


@pytest.mark.slow
class TestFullMatrixDifferential:
    """The tier-2 sweep: every benchmark, the full message-passing key
    chain, refined vs dense."""

    @pytest.mark.parametrize("bench", ["simple", "tomcatv", "swm", "sp"])
    def test_refined_matches_dense(self, bench, tmp_path):
        from repro.analysis.scaling import detect_crossovers
        from repro.programs import small_config

        config = {bench: small_config(bench)}
        tol = 1e-8
        refined = run_refined_sweep(
            axis=AXIS,
            lo=0.0,
            hi=1e-6,
            tol=tol,
            coarse=9,
            benchmarks=bench,
            keys=("baseline", "rr", "cc"),
            machine=MachineSpec.coerce("t3d", nprocs=16),
            overrides={"prim.*.knee_bytes": 32},
            config_overrides=config,
            cache_dir=tmp_path / "refined",
            jobs=2,
        )
        dense = run_sweep(
            axes=[SweepAxis(AXIS, tuple(i * 1e-6 / 100 for i in range(101)))],
            benchmarks=bench,
            keys=("baseline", "rr", "cc"),
            machine=MachineSpec.coerce("t3d", nprocs=16),
            overrides={"prim.*.knee_bytes": 32},
            config_overrides=config,
            cache_dir=tmp_path / "dense",
            jobs=2,
        )
        dense_cross = detect_crossovers(dense)
        for rc in refined.crossovers:
            matches = [
                dc
                for dc in dense_cross
                if (dc.benchmark, dc.experiment, dc.reference)
                == (rc.benchmark, rc.experiment, rc.reference)
                and dc.x_low - tol <= rc.x_estimate <= dc.x_high + tol
            ]
            assert matches, (
                f"refined crossover {rc} not bracketed by dense grid"
            )
