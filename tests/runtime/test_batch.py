"""Differential suite for the batched many-variant evaluator.

``simulate_many``'s contract mirrors the scalar fast path's: every row
of the batch must be *bit-identical* to running that variant alone —
through the compiled fast path, which is itself bit-identical to the
interpreted walk (``test_fastpath``).  These tests enforce the contract
across the paper matrix, under hypothesis-generated variant sets, and on
a dense 512-variant grid (``-m slow``), plus the entry point's variant
validation and the evaluator cache it runs through.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    SimOptions,
    compile_program,
    machine_by_name,
    simulate,
    simulate_many,
)
from repro.errors import MachineError, RuntimeFault
from repro.experiments_registry import EXPERIMENT_KEYS, experiment_spec
from repro.machine import apply_overrides, pack_variants
from repro.programs import BENCHMARKS, build_benchmark, small_config
from repro.runtime import BatchEvaluator
from tests.runtime.test_fastpath import TOGGLE_SRC

NPROCS = 16


def machine_for(name):
    def build(key):
        spec = experiment_spec(key)
        library = "nx" if name == "paragon" else spec.library
        return machine_by_name(name, NPROCS, library)

    return build


STEADY_SRC = """
program steady;
config n : integer = 16;
config k : integer = 30;
region R  = [1..n, 1..n];
region In = [2..n-1, 2..n-1];
direction east = [0, 1];
direction west = [0, -1];
var A, B : [R] double;
var s : double;
procedure main();
begin
  [R] A := index1 + index2;
  for t := 1 to k do
    [In] B := 0.5 * (A@east + A@west);
    [In] A := A * 0.9 + B * 0.1;
    [In] s := +<< A;
  end;
end;
"""

REPEAT_SRC = """
program rep;
config n : integer = 16;
region R  = [1..n, 1..n];
region In = [2..n-1, 2..n-1];
direction east = [0, 1];
var A, B : [R] double;
var s : double;
procedure main();
begin
  [R] A := 1.0;
  repeat
    [In] B := A@east;
    [In] A := A + B * 0.1;
    [In] s := +<< A;
  until s > 0.5;
end;
"""

_PROGRAMS = {}


def _steady_program(key):
    """STEADY_SRC under one experiment key's optimization config — the
    bare ``compile_program`` form inserts no communication at all, so
    every batched test would pass vacuously without ``opt=``."""
    if key not in _PROGRAMS:
        _PROGRAMS[key] = compile_program(
            STEADY_SRC, "steady.zl", opt=experiment_spec(key).opt
        )
    return _PROGRAMS[key]


# A spread of overrides that together exercise every dispatch path the
# batched engine vectorizes: wire cost, raw DR latency, software
# overhead (flat and past the knee), rendezvous spread surcharge, and
# compute rate.
DIVERSE_OVERRIDES = [
    {},
    {"net.latency": 1e-6, "net.bandwidth": 5e7},
    {"net.raw_latency": 9e-5},
    {"prim.*.fixed": 8e-5, "prim.*.spread_penalty": 5e-6},
    {"prim.*.knee_bytes": 32, "prim.*.per_byte_beyond": 1e-6},
    {"compute.flop_time": 2e-8, "compute.loop_overhead": 1e-6},
]


def _variants(base, override_sets):
    return [apply_overrides(base, o) if o else base for o in override_sets]


def scalar_fast(program, machine, **kwargs):
    return simulate(
        program, machine, options=SimOptions.timing(fast=True, **kwargs)
    )


def scalar_interp(program, machine, **kwargs):
    return simulate(
        program, machine, options=SimOptions.timing(fast=False, **kwargs)
    )


def assert_row_parity(run, v, scalar):
    """Row ``v`` of a ``BatchRun`` must be bitwise equal to the scalar
    result of that variant (times, clocks, counts, warnings, scalars)."""
    assert float(run.times[v]) == scalar.time
    assert np.array_equal(run.clocks[v], scalar.clocks)
    assert run.static_comm_count == scalar.static_comm_count
    assert run.dynamic_comm_count == scalar.dynamic_comm_count
    # the shared quantities are variant-independent by construction, so
    # the batch's single instrument must match every variant's
    bi, si = run.instrument, scalar.instrument
    assert np.array_equal(bi.dynamic_comms, si.dynamic_comms)
    assert np.array_equal(bi.messages, si.messages)
    assert np.array_equal(bi.bytes_moved, si.bytes_moved)
    assert bi.reductions == si.reductions
    assert run.warnings == scalar.warnings
    assert run.scalars == scalar.scalars


class TestPaperMatrixParity:
    """Every benchmark x experiment key x machine, base plus two
    variants, bit-identical to per-variant scalar fast runs."""

    @pytest.mark.parametrize("machine_name", ["t3d", "paragon"])
    @pytest.mark.parametrize("key", EXPERIMENT_KEYS)
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_parity(self, bench, key, machine_name):
        spec = experiment_spec(key)
        program = build_benchmark(bench, config=small_config(bench), opt=spec.opt)
        base = machine_for(machine_name)(key)
        variants = _variants(base, [{}, DIVERSE_OVERRIDES[1], DIVERSE_OVERRIDES[3]])
        run = simulate_many(program, variants)
        for v, machine in enumerate(variants):
            assert_row_parity(run, v, scalar_fast(program, machine))


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
            assert_row_parity(run, v, scalar_fast(program, machine))
            interp = scalar_interp(program, machine)
            assert float(run.times[v]) == interp.time
            assert np.array_equal(run.clocks[v], interp.clocks)

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
                assert_row_parity(run, v, scalar_fast(program, machine))

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
            assert_row_parity(run, v, scalar_fast(program, machine))

    def test_repeat_cap_warning_parity(self):
        program = compile_program(
            REPEAT_SRC, "rep.zl", opt=experiment_spec("pl").opt
        )
        base = machine_for("t3d")("pl")
        variants = _variants(base, DIVERSE_OVERRIDES[:4])
        run = BatchEvaluator(program, base, repeat_cap=50).evaluate(variants)
        assert any("capped" in w for w in run.warnings)
        for v, machine in enumerate(variants):
            assert_row_parity(
                run, v, scalar_fast(program, machine, repeat_cap=50)
            )


_pos_float = st.floats(
    1e-8, 1e-4, allow_nan=False, allow_infinity=False, allow_subnormal=False
)

variant_overrides = st.fixed_dictionaries(
    {},
    optional={
        "net.latency": _pos_float,
        "net.bandwidth": st.floats(
            1e6, 1e9, allow_nan=False, allow_infinity=False, allow_subnormal=False
        ),
        "net.raw_latency": _pos_float,
        "prim.*.fixed": _pos_float,
        "prim.*.knee_bytes": st.integers(16, 16384),
        "prim.*.per_byte_beyond": st.floats(
            0, 1e-6, allow_nan=False, allow_infinity=False, allow_subnormal=False
        ),
        "prim.*.spread_penalty": st.floats(
            0, 1e-5, allow_nan=False, allow_infinity=False, allow_subnormal=False
        ),
    },
)


class TestHypothesisDifferential:
    """Batched vs scalar fast vs interpreted on generated variant sets."""

    @given(
        override_sets=st.lists(variant_overrides, min_size=1, max_size=5),
        machine_name=st.sampled_from(["t3d", "paragon"]),
        key=st.sampled_from(EXPERIMENT_KEYS),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_both_scalar_paths(
        self, override_sets, machine_name, key
    ):
        program = _steady_program(key)
        base = machine_for(machine_name)(key)
        variants = _variants(base, override_sets)
        run = simulate_many(program, variants)
        for v, machine in enumerate(variants):
            fast = scalar_fast(program, machine)
            assert_row_parity(run, v, fast)
            interp = scalar_interp(program, machine)
            assert float(run.times[v]) == interp.time
            assert np.array_equal(run.clocks[v], interp.clocks)


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
            scalar = scalar_fast(program, machine)
            assert float(run.times[v]) == scalar.time
            assert np.array_equal(run.clocks[v], scalar.clocks)


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
            assert_row_parity(run1, v, scalar_fast(program, machine))
        for v, machine in enumerate(second):
            assert_row_parity(run2, v, scalar_fast(program, machine))

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
            # a different repeat_cap is different lowered state
            assert batch_evaluator(program, base, repeat_cap=7) is not ev
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
