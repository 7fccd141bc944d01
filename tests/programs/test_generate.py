"""Differential fuzz suite for the seeded ZL program generator.

Every generated program must (a) compile through the real front end,
(b) run bit-identically on the compiled TIMING fast path and the
interpreted oracle, (c) produce batched ``simulate_many`` rows equal to
per-variant scalar ``simulate`` calls, and (d) compute — under full
optimization, distributed — exactly what the sequential reference
computes.  Hypothesis drives seeds and feature profiles; every failure
message carries a copy-pasteable ``python -m repro generate <seed>
--check`` repro line.

The byte-stability golden pins ``generate_source(0)``'s hash: the
engine fingerprints generated programs by source text, so an accidental
generator change silently invalidates every cached ``gen_<seed>``
result.  Changing the generator is allowed — but must be deliberate
(update the hash here and expect cache misses).
"""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.__main__ as cli
from repro import (
    ExecutionMode,
    OptimizationConfig,
    SimOptions,
    emit_c,
    optimize,
    reference_run,
    simulate,
    simulate_many,
    t3d,
)
from repro.errors import ExperimentError
from repro.machine import apply_overrides, paragon
from repro.programs import BENCHMARKS, build_benchmark, small_config
from repro.programs.generate import (
    DEFAULT_PROFILE,
    GeneratorProfile,
    generate_program,
    generate_source,
    generated_name,
    generated_seed,
)
from repro.runtime.interp import ParallelEvaluator

LEVELS = (("baseline", OptimizationConfig.baseline()), ("full", OptimizationConfig.full()))

#: Pinned content hash of ``generate_source(0)`` — see module docstring.
GEN_0_SHA256 = "de13e118c93e91fc6a21c9d44d48bc182755d25b5b64a0fb6691f264a01aa95c"


def _repro_line(seed, profile=None):
    """The copy-pasteable reproduction command for a failing seed."""
    flags = ""
    if profile is not None and profile != DEFAULT_PROFILE:
        flags = "".join(
            f" --profile {name}={getattr(profile, name)}"
            for name in (
                "arrays", "scalars", "directions", "max_offset", "phases",
                "statements", "terms", "reduction_prob", "wrap_prob",
                "scope_block_prob", "repeat_prob", "branch_prob",
                "inner_loop_prob", "n", "niters",
            )
            if getattr(profile, name) != getattr(DEFAULT_PROFILE, name)
        )
    return f"python -m repro generate {seed}{flags} --check"


seeds = st.integers(min_value=0, max_value=10_000)


@st.composite
def profiles(draw):
    """Small but featureful profiles (generation stays cheap)."""
    max_offset = draw(st.integers(1, 3))
    return GeneratorProfile(
        arrays=draw(st.integers(2, 4)),
        scalars=draw(st.integers(1, 3)),
        directions=draw(st.integers(1, 6)),
        max_offset=max_offset,
        phases=draw(st.integers(1, 3)),
        statements=draw(st.integers(1, 5)),
        terms=draw(st.integers(1, 4)),
        reduction_prob=draw(st.sampled_from((0.0, 0.3, 1.0))),
        wrap_prob=draw(st.sampled_from((0.0, 0.2, 1.0))),
        scope_block_prob=draw(st.sampled_from((0.0, 0.5, 1.0))),
        repeat_prob=draw(st.sampled_from((0.0, 0.25, 1.0))),
        branch_prob=draw(st.sampled_from((0.0, 0.5, 1.0))),
        inner_loop_prob=draw(st.sampled_from((0.0, 0.5, 1.0))),
        n=draw(st.sampled_from((2 * max_offset + 4, 12, 16))),
        niters=draw(st.integers(1, 2)),
    )


# ---------------------------------------------------------------------------
# determinism and naming
# ---------------------------------------------------------------------------


def test_seed_zero_source_is_byte_stable():
    source = generate_source(0)
    assert hashlib.sha256(source.encode()).hexdigest() == GEN_0_SHA256, (
        "generate_source(0) changed — deliberate generator changes must "
        "update GEN_0_SHA256 (and will invalidate cached gen_* results)"
    )


@given(seeds, st.none() | profiles())
def test_generation_is_deterministic(seed, profile):
    assert generate_source(seed, profile) == generate_source(seed, profile)


def test_distinct_seeds_distinct_programs():
    sources = {generate_source(s) for s in range(20)}
    assert len(sources) == 20


def test_name_seed_roundtrip():
    for seed in (0, 1, 7, 999_999_999):
        assert generated_seed(generated_name(seed)) == seed
    for bogus in ("gen_", "gen_-1", "gen_1.5", "jacobi", "gen_1234567890",
                  "Gen_3", "gen_3x"):
        assert generated_seed(bogus) is None


def test_invalid_seeds_rejected():
    for bad in (-1, 1.5, "3", True):
        with pytest.raises(ExperimentError):
            generate_source(bad)
        with pytest.raises(ExperimentError):
            generated_name(bad)


# ---------------------------------------------------------------------------
# profile validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"arrays": 1},
        {"scalars": 0},
        {"directions": 0},
        {"max_offset": 0},
        {"phases": 0},
        {"statements": 0},
        {"terms": 0},
        {"niters": 0},
        {"reduction_prob": -0.1},
        {"wrap_prob": 1.5},
        {"branch_prob": 2.0},
        {"n": 5},                      # interior too small for max_offset=2
        {"max_offset": 3, "n": 9},     # n < 2 * max_offset + 4
        {"arrays": 2.5},
    ],
)
def test_bad_profiles_rejected(kwargs):
    with pytest.raises(ExperimentError):
        GeneratorProfile(**kwargs)


def test_minimum_viable_profile_generates():
    profile = GeneratorProfile(
        arrays=2, scalars=1, directions=1, max_offset=1, phases=1,
        statements=1, terms=1, n=6, niters=1,
    )
    program = generate_program(3, profile)
    assert program.config_values["n"] == 6


# ---------------------------------------------------------------------------
# differential properties (hypothesis-driven)
# ---------------------------------------------------------------------------


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_fast_path_matches_oracle(seed):
    """Compiled TIMING fast path == interpreted oracle, bit for bit."""
    machine = t3d(4, "pvm")
    for opt in (OptimizationConfig.baseline(), OptimizationConfig.full()):
        program = generate_program(seed, opt=opt)
        fast = simulate(program, machine, options=SimOptions.timing(fast=True))
        slow = simulate(program, machine, options=SimOptions.timing(fast=False))
        assert fast.time == slow.time, _repro_line(seed)
        assert np.array_equal(fast.clocks, slow.clocks), _repro_line(seed)
        assert fast.static_comm_count == slow.static_comm_count
        assert fast.dynamic_comm_count == slow.dynamic_comm_count


@given(seeds, profiles())
@settings(max_examples=10, deadline=None)
def test_profiled_fast_path_matches_oracle(seed, profile):
    machine = t3d(4, "pvm")
    program = generate_program(seed, profile, opt=OptimizationConfig.full())
    fast = simulate(program, machine, options=SimOptions.timing(fast=True))
    slow = simulate(program, machine, options=SimOptions.timing(fast=False))
    assert fast.time == slow.time, _repro_line(seed, profile)
    assert np.array_equal(fast.clocks, slow.clocks), _repro_line(seed, profile)


@given(seeds)
@settings(max_examples=8, deadline=None)
def test_batched_rows_match_scalar_simulate(seed):
    """Each ``simulate_many`` variant row equals the scalar ``simulate``
    on the correspondingly overridden machine."""
    base = t3d(4, "pvm")
    override_sets = ({}, {"net.latency": 6e-5}, {"net.bandwidth": 6e7})
    machines = [apply_overrides(base, o) for o in override_sets]
    program = generate_program(seed, opt=OptimizationConfig.full())
    run = simulate_many(program, machines)
    assert run.program_name == generated_name(seed)
    for column, machine in enumerate(machines):
        scalar = simulate(program, machine, options=SimOptions.timing())
        assert run.times[column] == scalar.time, _repro_line(seed)
        assert np.array_equal(run.clocks[column], scalar.clocks), _repro_line(seed)
    assert run.static_comm_count == scalar.static_comm_count
    assert run.dynamic_comm_count == scalar.dynamic_comm_count


@given(seeds)
@settings(max_examples=6, deadline=None)
def test_optimized_numerics_match_reference(seed):
    """Fully optimized, distributed execution computes what the
    machine-free sequential reference computes."""
    ref = reference_run(generate_program(seed, opt=OptimizationConfig.baseline()))
    program = generate_program(seed, opt=OptimizationConfig.full())
    res = simulate(program, t3d(4, "pvm"), ExecutionMode.NUMERIC)
    for array in sorted(ref.arrays):
        assert np.allclose(
            res.array(array), ref.array(array), rtol=1e-12, atol=1e-12
        ), f"{array} diverged; {_repro_line(seed)}"


# ---------------------------------------------------------------------------
# dense matrix (nightly / -m slow)
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(25))
def test_dense_differential_matrix(seed):
    """25 seeds x both machines x {baseline, full}: fast == oracle and
    optimized numerics == reference."""
    for machine in (t3d(4, "pvm"), paragon(4, "nx")):
        for opt in (OptimizationConfig.baseline(), OptimizationConfig.full()):
            program = generate_program(seed, opt=opt)
            fast = simulate(program, machine, options=SimOptions.timing(fast=True))
            slow = simulate(program, machine, options=SimOptions.timing(fast=False))
            assert fast.time == slow.time, _repro_line(seed)
            assert np.array_equal(fast.clocks, slow.clocks), _repro_line(seed)
    ref = reference_run(generate_program(seed, opt=OptimizationConfig.baseline()))
    res = simulate(
        generate_program(seed, opt=OptimizationConfig.full()),
        t3d(4, "pvm"),
        ExecutionMode.NUMERIC,
    )
    for array in sorted(ref.arrays):
        assert np.allclose(
            res.array(array), ref.array(array), rtol=1e-12, atol=1e-12
        ), f"{array} diverged; {_repro_line(seed)}"


# ---------------------------------------------------------------------------
# the ``generate --check`` harness: lowering once, and the faults it catches
# ---------------------------------------------------------------------------


def _ir_text(program):
    """The printed IR, descriptor ids counted from the program's first
    (ids are process-wide)."""
    base = min((d.id for d in program.all_descriptors()), default=1) - 1
    text = emit_c(program).text
    return re.sub(r"comm #(\d+)", lambda m: f"comm #{int(m[1]) - base}", text)


def _timing_bytes(program):
    result = simulate(program, t3d(4, "pvm"), options=SimOptions.timing())
    return repr(result.time), result.clocks.tobytes(), result.dynamic_comm_count


@pytest.mark.parametrize("name", [generated_name(s) for s in range(8)] + list(BENCHMARKS))
def test_optimizing_one_lowered_program_twice_matches_fresh_compiles(name):
    """``optimize`` leaves its input unchanged: a lowered program
    optimized at baseline and then at full gives, at each level, the IR
    and TIMING result of a fresh compile at that level."""
    seed = generated_seed(name)
    if seed is None:
        config = small_config(name)
        lowered = build_benchmark(name, config=config)
        fresh = {level: build_benchmark(name, config=config, opt=opt) for level, opt in LEVELS}
    else:
        lowered = generate_program(seed)
        fresh = {level: generate_program(seed, opt=opt) for level, opt in LEVELS}
    reused = {level: optimize(lowered, opt) for level, opt in LEVELS}
    for level, _ in LEVELS:
        assert _ir_text(reused[level]) == _ir_text(fresh[level]), level
        assert _timing_bytes(reused[level]) == _timing_bytes(fresh[level]), level


def test_check_reports_a_walk_one_ulp_off(monkeypatch):
    """The walk's time one ulp later on the Paragon only: both levels
    are reported there, and nothing else."""

    def skewed(program, machine, *args, options=None, **kwargs):
        result = simulate(program, machine, *args, options=options, **kwargs)
        if options is not None and options.fast is False and machine.name == "Intel Paragon":
            result.time = float(np.nextafter(result.time, np.inf))
        return result

    monkeypatch.setattr(cli, "simulate", skewed)
    problems = cli._check_generated(0, DEFAULT_PROFILE)
    assert [p.split(":")[0] for p in problems] == [
        "fast path diverges from oracle (baseline on paragon",
        "fast path diverges from oracle (full on paragon",
    ]


def test_check_reports_numerics_without_delivery(monkeypatch):
    """NUMERIC runs that never deliver leave the receivers' fluff at
    zero, on a program that communicates."""
    lowered = generate_program(0)
    assert optimize(lowered, OptimizationConfig.full()).all_descriptors()
    monkeypatch.setattr(ParallelEvaluator, "deliver", lambda self, plan: None)
    problems = cli._check_generated(0, DEFAULT_PROFILE)
    assert problems
    assert all(
        p.startswith("optimized numerics diverge from the reference (array ")
        for p in problems
    )
