"""Differential suite for the batched many-variant evaluator.

``simulate_many``'s contract mirrors the scalar fast path's: every row
of the batch must be *bit-identical* to running that variant alone —
through the compiled fast path, which is itself bit-identical to the
interpreted walk.  ``tests/runtime/test_parity.py`` holds it over the
corpus; these tests hold it across the paper matrix (against that
harness's scalar runs), under hypothesis-generated variant sets, on
extrapolating loops and on a dense 512-variant grid (``-m slow``), plus
the entry point's variant validation and the evaluator cache it runs
through.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import (
    ExecutionMode,
    compile_program,
    machine_by_name,
    simulate,
    simulate_many,
)
from repro.errors import MachineError, RuntimeFault
from repro.experiments_registry import EXPERIMENT_KEYS, experiment_spec
from repro.machine import pack_variants
from repro.programs import BENCHMARKS
from repro.runtime import BatchEvaluator
from tests.conftest import cap_repeats
from tests.runtime.test_fastpath import (
    REPEAT_SRC,
    TOGGLE_SRC,
    _steady_program,
    machine_for,
    variant_overrides,
)
from tests.runtime.test_parity import (
    DIVERSE_OVERRIDES,
    _variants,
    assert_same_row,
    corpus_key,
    corpus_program,
    corpus_runs,
    run_pair,
)


class TestPaperMatrixParity:
    """Every benchmark x experiment key x machine, base plus two
    variants, bit-identical to per-variant scalar fast runs (the
    engine-parity harness's runs of that cell)."""

    @pytest.mark.parametrize("machine_name", ["t3d", "paragon"])
    @pytest.mark.parametrize("key", EXPERIMENT_KEYS)
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_parity(self, bench, key, machine_name):
        base = machine_for(machine_name)(key)
        variants = _variants(base, [{}, DIVERSE_OVERRIDES[1], DIVERSE_OVERRIDES[3]])
        run = simulate_many(corpus_program(bench, corpus_key(key)), variants)
        _, scalars = corpus_runs(bench, corpus_key(key), base.library)
        for row, v in enumerate((0, 1, 3)):
            assert_same_row(run, row, scalars[v])


class TestDiverseVariantParity:
    def test_all_dispatch_paths(self):
        """One batch over variants hitting every vectorized cost path,
        against both the scalar fast path and the interpreted walk."""
        key = "pl"
        program = _steady_program(key)
        base = machine_for("t3d")(key)
        variants = _variants(base, DIVERSE_OVERRIDES)
        run = simulate_many(program, variants)
        # the variants must actually diverge, or parity is vacuous
        assert len({float(t) for t in run.times}) > 2
        assert run.dynamic_comm_count > 0
        for v, machine in enumerate(variants):
            _, fast = run_pair(program, machine)
            assert_same_row(run, v, fast)

    def test_multiple_programs(self):
        """Several programs over one packed variant matrix, one call
        each: rows stay per-variant exact."""
        programs = [_steady_program("pl"), _steady_program("cc")]
        base = machine_for("t3d")("pl")
        variants = _variants(base, DIVERSE_OVERRIDES[:3])
        matrix = pack_variants(variants)
        for program in programs:
            run = simulate_many(program, matrix)
            assert run.times.shape == (3,)
            for v, machine in enumerate(variants):
                assert_same_row(run, v, simulate(program, machine, ExecutionMode.TIMING))

    def test_steady_state_extrapolation_engages(self):
        program = _steady_program("pl")
        base = machine_for("t3d")("pl")
        fp = simulate_many(program, _variants(base, DIVERSE_OVERRIDES)).fastpath
        assert fp is not None
        assert fp.extrapolated_loops >= 1
        assert fp.extrapolated_trips >= 20

    def test_period_two_extrapolation_engages(self):
        """The batch extrapolates once the whole clock matrix cycles,
        and every row still equals its scalar run."""
        program = compile_program(
            TOGGLE_SRC, "toggle.zl", opt=experiment_spec("pl").opt
        )
        variants = _variants(machine_for("t3d")("pl"), DIVERSE_OVERRIDES)
        run = simulate_many(program, variants)
        assert run.fastpath.extrapolated_loops >= 1
        assert run.fastpath.extrapolated_trips >= 20
        assert len({float(t) for t in run.times}) > 2
        for v, machine in enumerate(variants):
            assert_same_row(run, v, simulate(program, machine, ExecutionMode.TIMING))

    def test_repeat_cap_warning_parity(self):
        program = compile_program(
            REPEAT_SRC, "rep.zl", opt=experiment_spec("pl").opt
        )
        cap_repeats(program, 50)
        base = machine_for("t3d")("pl")
        variants = _variants(base, DIVERSE_OVERRIDES[:4])
        run = BatchEvaluator(program, base).evaluate(variants)
        assert any("capped" in w for w in run.warnings)
        for v, machine in enumerate(variants):
            assert_same_row(run, v, simulate(program, machine, ExecutionMode.TIMING))


class TestHypothesisDifferential:
    """Batched vs scalar fast vs interpreted on generated variant sets."""

    @given(
        override_sets=st.lists(variant_overrides, min_size=1, max_size=5),
        machine_name=st.sampled_from(["t3d", "paragon"]),
        key=st.sampled_from(EXPERIMENT_KEYS),
    )
    def test_batch_matches_both_scalar_paths(
        self, override_sets, machine_name, key
    ):
        program = _steady_program(key)
        base = machine_for(machine_name)(key)
        variants = _variants(base, override_sets)
        run = simulate_many(program, variants)
        for v, machine in enumerate(variants):
            _, fast = run_pair(program, machine)
            assert_same_row(run, v, fast)


class TestValidation:
    def test_mixed_nprocs_rejected(self):
        program = _steady_program("pl")
        variants = [machine_by_name("t3d", 16, "pvm"), machine_by_name("t3d", 4, "pvm")]
        with pytest.raises(MachineError, match="cost-only"):
            simulate_many(program, variants)

    def test_mixed_machines_rejected(self):
        program = _steady_program("pl")
        variants = [
            machine_by_name("t3d", 16, "pvm"),
            machine_by_name("paragon", 16, "nx"),
        ]
        with pytest.raises(MachineError):
            simulate_many(program, variants)

    def test_no_variants_rejected(self):
        with pytest.raises((MachineError, RuntimeFault)):
            simulate_many(_steady_program("pl"), [])


@pytest.mark.slow
class TestDenseGrid:
    def test_512_variant_grid_bit_equal(self):
        """An 8x8x8 grid over latency x software overhead x bandwidth —
        every one of the 512 rows bit-equal to its scalar fast run."""
        program = _steady_program("pl")
        base = machine_for("t3d")("pl")
        lats = np.linspace(1e-6, 1e-4, 8)
        fixes = np.linspace(1e-5, 1e-4, 8)
        bands = np.linspace(2e7, 4e8, 8)
        overrides = [
            {
                "net.latency": float(lat),
                "prim.*.fixed": float(fix),
                "net.bandwidth": float(bw),
            }
            for lat in lats
            for fix in fixes
            for bw in bands
        ]
        assert len(overrides) == 512
        variants = _variants(base, overrides)
        run = simulate_many(program, variants)
        assert len({float(t) for t in run.times}) > 100
        for v, machine in enumerate(variants):
            assert_same_row(run, v, simulate(program, machine, ExecutionMode.TIMING))


# ---------------------------------------------------------------------------
# the incremental-append evaluator
# ---------------------------------------------------------------------------


class TestBatchEvaluator:
    def test_incremental_append_bit_identity(self):
        """Appending variant batches against shared lowered state gives
        the same rows as standalone scalar runs, bit for bit."""
        program = _steady_program("cc")
        base = machine_for("t3d")("cc")
        ev = BatchEvaluator(program, base)
        first = _variants(base, DIVERSE_OVERRIDES[:3])
        second = _variants(base, DIVERSE_OVERRIDES[3:])
        run1 = ev.evaluate(first)
        run2 = ev.evaluate(second)
        for v, machine in enumerate(first):
            assert_same_row(run1, v, simulate(program, machine, ExecutionMode.TIMING))
        for v, machine in enumerate(second):
            assert_same_row(run2, v, simulate(program, machine, ExecutionMode.TIMING))

    def test_matches_one_shot_simulate_many(self):
        program = _steady_program("rr")
        base = machine_for("t3d")("rr")
        variants = _variants(base, DIVERSE_OVERRIDES)
        ev_run = BatchEvaluator(program, base).evaluate(variants)
        one_shot = simulate_many(program, variants)
        assert np.array_equal(ev_run.times, one_shot.times)
        assert np.array_equal(ev_run.clocks, one_shot.clocks)

    def test_mismatched_variant_base_rejected(self):
        program = _steady_program("cc")
        ev = BatchEvaluator(program, machine_for("t3d")("cc"))
        other = machine_for("paragon")("cc")
        with pytest.raises(RuntimeFault, match="this evaluator was built"):
            ev.evaluate([other])

    def test_process_cache_reuses_by_identity(self):
        from repro.runtime import batch_evaluator, clear_batch_evaluators

        program = _steady_program("cc")
        base = machine_for("t3d")("cc")
        clear_batch_evaluators()
        try:
            ev = batch_evaluator(program, base)
            assert batch_evaluator(program, base) is ev
            # a different machine shape is a different template
            assert batch_evaluator(program, machine_for("paragon")("cc")) is not ev
            clear_batch_evaluators()
            assert batch_evaluator(program, base) is not ev
        finally:
            clear_batch_evaluators()

    def test_simulate_many_routes_through_cached_evaluator(self, monkeypatch):
        from repro.runtime import batch_evaluator, clear_batch_evaluators

        program = _steady_program("cc")
        base = machine_for("t3d")("cc")
        variants = _variants(base, DIVERSE_OVERRIDES[:2])
        evaluated = []
        evaluate = BatchEvaluator.evaluate

        def counting(ev, batch):
            evaluated.append(ev)
            return evaluate(ev, batch)

        monkeypatch.setattr(BatchEvaluator, "evaluate", counting)
        clear_batch_evaluators()
        try:
            simulate_many(program, variants)
            ev = batch_evaluator(program, base)
            assert evaluated == [ev]  # simulate_many populated the cache
            simulate_many(program, variants)
            assert batch_evaluator(program, base) is ev
            assert evaluated == [ev, ev]
        finally:
            clear_batch_evaluators()
