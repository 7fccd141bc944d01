"""Parity tests for the compiled TIMING fast path.

The fast path's contract is *exactness*: for any program, the compiled
schedule must produce bit-identical clocks, counts, volumes, warnings,
and scalars versus the interpreted walk — extrapolation included.  These
tests enforce the contract across the full paper matrix (every benchmark
x experiment key x machine) and on synthetic programs built to hit the
fallback and extrapolation edges.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ExecutionMode,
    SimOptions,
    compile_program,
    machine_by_name,
    simulate,
)
from repro.experiments_registry import EXPERIMENT_KEYS, experiment_spec
from repro.machine import apply_overrides
from repro.programs import BENCHMARKS, build_benchmark, small_config

NPROCS = 16


def run_both(program, machine, **kwargs):
    """One interpreted run, one compiled run; the pair to compare."""
    interp = simulate(program, machine, options=SimOptions.timing(fast=False, **kwargs))
    fast = simulate(program, machine, options=SimOptions.timing(fast=True, **kwargs))
    assert interp.fastpath is None
    assert fast.fastpath is not None
    return interp, fast


def assert_parity(interp, fast):
    """Bitwise equality of every observable the paper's figures read."""
    assert np.array_equal(interp.clocks, fast.clocks)
    assert interp.time == fast.time
    assert interp.static_comm_count == fast.static_comm_count
    assert interp.dynamic_comm_count == fast.dynamic_comm_count
    ii, fi = interp.instrument, fast.instrument
    assert np.array_equal(ii.dynamic_comms, fi.dynamic_comms)
    assert np.array_equal(ii.messages, fi.messages)
    assert np.array_equal(ii.bytes_moved, fi.bytes_moved)
    assert ii.call_counts == fi.call_counts
    assert ii.reductions == fi.reductions
    assert interp.warnings == fast.warnings
    assert interp.scalars == fast.scalars


def machine_for(name):
    # the Paragon model only binds the NX library family; the T3D takes
    # each experiment key's default (PVM / SHMEM)
    def build(key):
        spec = experiment_spec(key)
        library = "nx" if name == "paragon" else spec.library
        return machine_by_name(name, NPROCS, library)

    return build


class TestPaperMatrixParity:
    """Every benchmark x experiment key x machine, at test scale."""

    @pytest.mark.parametrize("machine_name", ["t3d", "paragon"])
    @pytest.mark.parametrize("key", EXPERIMENT_KEYS)
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_parity(self, bench, key, machine_name):
        spec = experiment_spec(key)
        program = build_benchmark(
            bench, config=small_config(bench), opt=spec.opt
        )
        machine = machine_for(machine_name)(key)
        interp, fast = run_both(program, machine)
        assert_parity(interp, fast)


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
    -- the reduction synchronizes the ranks each trip, like the
    -- benchmarks' per-iteration convergence checks; without one the
    -- rank skew grows forever and no steady state exists
    [In] s := +<< A;
  end;
end;
"""

BRANCHY_SRC = """
program branchy;
config n : integer = 16;
region R  = [1..n, 1..n];
region In = [2..n-1, 2..n-1];
direction east = [0, 1];
direction west = [0, -1];
var A, B : [R] double;
procedure main();
begin
  [R] A := index1 + index2;
  for t := 1 to 12 do
    if t < 6.0 then
      [In] B := A@east;
    else
      [In] B := A@west;
    end;
    [R] A := A + B * 0.5;
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
    -- TIMING evaluates reductions as 0.0, so s never crosses the
    -- threshold: the loop runs to the cap, in steady state
    [In] s := +<< A;
  until s > 0.5;
end;
"""


# Loops whose state cycles with period 2 instead of settling to a fixed
# point.  The reduction opens each trip so the ranks resynchronize (it
# bounds skew) while the rest of the trip still leaves per-rank clocks.
TOGGLE_SRC = """
program toggle;
config n : integer = 16;
config k : integer = 40;
region R  = [1..n, 1..n];
region In = [2..n-1, 2..n-1];
direction east = [0, 1];
direction west = [0, -1];
var A, B : [R] double;
var s, f : double;
procedure main();
begin
  [R] A := index1 + index2;
  f := 0.0;
  for t := 1 to k do
    [In] s := +<< A;
    if f < 0.5 then
      [In] B := A@east;
    else
      [In] B := A@west + A@east * 0.5;
    end;
    [In] A := A * 0.9 + B * 0.1;
    f := 1.0 - f;
  end;
end;
"""

# the clocks repeat every trip; only g, which no cost reads, alternates
FLIP_SRC = """
program flip;
config n : integer = 16;
config k : integer = 40;
region R  = [1..n, 1..n];
region In = [2..n-1, 2..n-1];
direction east = [0, 1];
direction west = [0, -1];
var A, B : [R] double;
var s, g : double;
procedure main();
begin
  [R] A := index1 + index2;
  g := 0.0;
  for t := 1 to k do
    [In] s := +<< A;
    [In] B := 0.5 * (A@east + A@west);
    [In] A := A * 0.9 + B * 0.1;
    g := 1.0 - g;
  end;
end;
"""

REPEAT_TOGGLE_SRC = """
program reptoggle;
config n : integer = 16;
region R  = [1..n, 1..n];
region In = [2..n-1, 2..n-1];
direction east = [0, 1];
direction west = [0, -1];
var A, B : [R] double;
var s, f : double;
procedure main();
begin
  [R] A := 1.0;
  f := 0.0;
  repeat
    [In] s := +<< A;
    if f < 0.5 then
      [In] B := A@east;
    else
      [In] B := A@west + A@east;
    end;
    [In] A := A + B * 0.1;
    f := 1.0 - f;
  until s > 0.5;
end;
"""


class TestSteadyStateExtrapolation:
    def test_counted_loop_extrapolates_and_matches(self):
        program = compile_program(STEADY_SRC, "steady.zl")
        machine = machine_by_name("t3d", NPROCS, "pvm")
        interp, fast = run_both(program, machine)
        assert_parity(interp, fast)
        assert fast.fastpath.extrapolated_loops >= 1
        # detection needs a couple of observed iterations; the bulk of
        # the 30 trips must be applied in closed form
        assert fast.fastpath.extrapolated_trips >= 20

    def test_branch_on_loop_var_falls_back(self):
        """A scalar-dependent branch in the body makes the loop
        ineligible — it must step every trip, and still match."""
        program = compile_program(BRANCHY_SRC, "branchy.zl")
        machine = machine_by_name("t3d", NPROCS, "pvm")
        interp, fast = run_both(program, machine)
        assert_parity(interp, fast)
        assert fast.fastpath.fallbacks >= 1
        assert fast.fastpath.extrapolated_loops == 0

    def test_capped_repeat_extrapolates_to_cap(self):
        """A never-converging repeat reaches the cap in closed form with
        the interpreted walk's exact state and warning."""
        program = compile_program(REPEAT_SRC, "rep.zl")
        machine = machine_by_name("t3d", NPROCS, "pvm")
        interp, fast = run_both(program, machine, repeat_cap=50)
        assert_parity(interp, fast)
        assert any("capped" in w for w in fast.warnings)
        assert fast.fastpath.extrapolated_trips > 0


class TestCycleExtrapolation:
    """States that repeat with period 2 extrapolate whole periods."""

    @pytest.mark.parametrize("machine_name", ["t3d", "paragon"])
    @pytest.mark.parametrize("key", ["baseline", "cc", "pl"])
    def test_branch_on_toggled_scalar_extrapolates(self, key, machine_name):
        program = compile_program(
            TOGGLE_SRC, "toggle.zl", opt=experiment_spec(key).opt
        )
        interp, fast = run_both(program, machine_for(machine_name)(key))
        assert_parity(interp, fast)
        assert fast.dynamic_comm_count > 0
        assert fast.fastpath.extrapolated_loops >= 1
        assert fast.fastpath.extrapolated_trips >= 20
        # whole periods only
        assert fast.fastpath.extrapolated_trips % 2 == 0

    def test_scalar_period_with_steady_clocks_extrapolates(self):
        """Equal clocks on consecutive trips are not equal states: the
        monitor must wait for the scalar's period too."""
        program = compile_program(FLIP_SRC, "flip.zl", opt=experiment_spec("pl").opt)
        interp, fast = run_both(program, machine_by_name("t3d", NPROCS, "pvm"))
        assert_parity(interp, fast)
        assert fast.fastpath.extrapolated_loops >= 1
        assert fast.fastpath.extrapolated_trips >= 20
        assert fast.fastpath.extrapolated_trips % 2 == 0

    def test_capped_repeat_with_period_two_reaches_cap(self):
        program = compile_program(
            REPEAT_TOGGLE_SRC, "reptoggle.zl", opt=experiment_spec("pl").opt
        )
        machine = machine_by_name("t3d", NPROCS, "pvm")
        # the cap leaves one trip past the skipped periods to step
        interp, fast = run_both(program, machine, repeat_cap=50)
        assert_parity(interp, fast)
        assert "repeat loop capped at 50 trips without converging" in fast.warnings
        assert fast.fastpath.extrapolated_loops == 1
        assert fast.fastpath.extrapolated_trips >= 20


class TestFastArgumentValidation:
    def test_auto_selects_fast_for_timing(self):
        program = compile_program(STEADY_SRC, "steady.zl")
        machine = machine_by_name("t3d", 4, "pvm")
        auto = simulate(program, machine, ExecutionMode.TIMING)
        assert auto.fastpath is not None

    def test_auto_interprets_when_tracing(self):
        program = compile_program(STEADY_SRC, "steady.zl")
        machine = machine_by_name("t3d", 4, "pvm")
        traced = simulate(program, machine, options=SimOptions.timing(trace_rank=0))
        assert traced.fastpath is None
        assert traced.trace is not None


# ---------------------------------------------------------------------------
# Swept-machine differential suite: the parity contract must hold not just
# on the two calibrated machines but on every derived variant the sweep
# layer can produce — network latencies/bandwidths and primitive-cost
# fields (fixed, knee_bytes, per_byte_beyond, spread_penalty) included.
# ---------------------------------------------------------------------------

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

_PROGRAMS = {}


def _steady_program(key):
    """STEADY_SRC compiled under one experiment key's optimization config
    (cached — compilation dominates otherwise)."""
    if key not in _PROGRAMS:
        _PROGRAMS[key] = compile_program(
            STEADY_SRC, "steady.zl", opt=experiment_spec(key).opt
        )
    return _PROGRAMS[key]


class TestSweptMachineParity:
    """Compiled fast path stays bit-identical on derived variants."""

    @given(
        overrides=variant_overrides,
        machine_name=st.sampled_from(["t3d", "paragon"]),
        key=st.sampled_from(EXPERIMENT_KEYS),
    )
    @settings(max_examples=30, deadline=None)
    def test_variant_parity(self, overrides, machine_name, key):
        base = machine_for(machine_name)(key)
        machine = apply_overrides(base, overrides)
        interp, fast = run_both(_steady_program(key), machine)
        assert_parity(interp, fast)

    def test_variant_differs_from_base(self):
        """Sanity: the derived machine actually changes the simulation —
        the differential suite is not comparing the base against itself."""
        program = _steady_program("cc")
        base = machine_by_name("t3d", NPROCS, "pvm")
        variant = apply_overrides(
            base, {"prim.*.knee_bytes": 8, "prim.*.per_byte_beyond": 1e-6}
        )
        t_base = simulate(program, base, ExecutionMode.TIMING).time
        t_variant = simulate(program, variant, ExecutionMode.TIMING).time
        assert t_base != t_variant

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "overrides",
        [
            {"net.latency": 1e-6},
            {"net.latency": 1e-4, "net.bandwidth": 5e6},
            {"prim.*.knee_bytes": 32, "prim.*.per_byte_beyond": 1e-6},
            {"prim.*.fixed": 8e-5, "prim.*.spread_penalty": 5e-6},
        ],
        ids=["low-lat", "slow-wire", "tight-knee", "heavy-sw"],
    )
    @pytest.mark.parametrize("machine_name", ["t3d", "paragon"])
    @pytest.mark.parametrize("key", EXPERIMENT_KEYS)
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_full_matrix_variant_parity(
        self, bench, key, machine_name, overrides
    ):
        """The full paper matrix on fixed representative variants — the
        nightly/CI-only sweep of the parity contract."""
        spec = experiment_spec(key)
        program = build_benchmark(bench, config=small_config(bench), opt=spec.opt)
        machine = apply_overrides(machine_for(machine_name)(key), overrides)
        interp, fast = run_both(program, machine)
        assert_parity(interp, fast)
