"""Parity tests for the compiled TIMING fast path.

The fast path's contract is *exactness*: for any program, the compiled
schedule must produce bit-identical clocks, counts, volumes, warnings,
and scalars versus the interpreted walk — extrapolation included.
``tests/runtime/test_parity.py`` holds it over the corpus; these tests
hold it across the paper matrix (every benchmark x experiment key x
machine, read from that harness's runs), on synthetic programs built to
hit the fallback and extrapolation edges, and on derived machine
variants.
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
    simulate_many,
)
from repro.experiments_registry import EXPERIMENT_KEYS, experiment_spec
from repro.machine import apply_overrides
from repro.programs import BENCHMARKS, build_benchmark, small_config
from tests.conftest import cap_repeats
from tests.runtime.test_parity import (
    VARIANTS,
    assert_same_row,
    corpus_key,
    corpus_runs,
    run_pair,
)

NPROCS = 16


def machine_for(name):
    # the Paragon model only binds the NX library family; the T3D takes
    # each experiment key's default (PVM / SHMEM)
    def build(key):
        spec = experiment_spec(key)
        library = "nx" if name == "paragon" else spec.library
        return machine_by_name(name, NPROCS, library)

    return build


class TestPaperMatrixParity:
    """Every benchmark x experiment key x machine, at test scale: the
    engine-parity harness's compiled == walk pair of that cell (``pl_shmem``
    is its ``pl`` case on SHMEM), simulated once per session."""

    @pytest.mark.parametrize("machine_name", ["t3d", "paragon"])
    @pytest.mark.parametrize("key", EXPERIMENT_KEYS)
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_parity(self, bench, key, machine_name):
        machine = machine_for(machine_name)(key)
        assert machine == VARIANTS[machine.library][0]
        corpus_runs(bench, corpus_key(key), machine.library)


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
        _, fast = run_pair(program, machine)
        assert fast.fastpath.extrapolated_loops >= 1
        # detection needs a couple of observed iterations; the bulk of
        # the 30 trips must be applied in closed form
        assert fast.fastpath.extrapolated_trips >= 20

    def test_branch_on_loop_var_falls_back(self):
        """A scalar-dependent branch in the body makes the loop
        ineligible — it must step every trip, and still match."""
        program = compile_program(BRANCHY_SRC, "branchy.zl")
        machine = machine_by_name("t3d", NPROCS, "pvm")
        _, fast = run_pair(program, machine)
        assert fast.fastpath.fallbacks >= 1
        assert fast.fastpath.extrapolated_loops == 0

    def test_capped_repeat_extrapolates_to_cap(self):
        """A never-converging repeat reaches the cap in closed form with
        the interpreted walk's exact state and warning."""
        program = cap_repeats(compile_program(REPEAT_SRC, "rep.zl"), 50)
        machine = machine_by_name("t3d", NPROCS, "pvm")
        _, fast = run_pair(program, machine)
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
        _, fast = run_pair(program, machine_for(machine_name)(key))
        assert fast.dynamic_comm_count > 0
        assert fast.fastpath.extrapolated_loops >= 1
        assert fast.fastpath.extrapolated_trips >= 20
        # whole periods only
        assert fast.fastpath.extrapolated_trips % 2 == 0

    def test_scalar_period_with_steady_clocks_extrapolates(self):
        """Equal clocks on consecutive trips are not equal states: the
        monitor must wait for the scalar's period too."""
        program = compile_program(FLIP_SRC, "flip.zl", opt=experiment_spec("pl").opt)
        _, fast = run_pair(program, machine_by_name("t3d", NPROCS, "pvm"))
        assert fast.fastpath.extrapolated_loops >= 1
        assert fast.fastpath.extrapolated_trips >= 20
        assert fast.fastpath.extrapolated_trips % 2 == 0

    def test_capped_repeat_with_period_two_reaches_cap(self):
        program = compile_program(
            REPEAT_TOGGLE_SRC, "reptoggle.zl", opt=experiment_spec("pl").opt
        )
        machine = machine_by_name("t3d", NPROCS, "pvm")
        # the cap leaves one trip past the skipped periods to step
        _, fast = run_pair(cap_repeats(program, 50), machine)
        assert "repeat loop capped at 50 trips without converging" in fast.warnings
        assert fast.fastpath.extrapolated_loops == 1
        assert fast.fastpath.extrapolated_trips >= 20


# c counts the loop's first m trips and then holds, and at the default
# network latency the clocks settle by trip 2, so the state after trip
# m + 1 is the first to equal the one before it.  With m = 0, c never
# moves, and how many trips the clocks take to settle depends on the
# network latency.
COUNTER_SRC = """
program counter;
config n : integer = 16;
config k : integer = 30;
config m : integer = 5;
region R  = [1..n, 1..n];
region In = [2..n-1, 2..n-1];
direction east = [0, 1];
direction west = [0, -1];
var A, B : [R] double;
var s, c : double;
procedure main();
begin
  [R] A := index1 + index2;
  c := 0.0;
  for t := 1 to k do
    [In] s := +<< A;
    [In] B := 0.5 * (A@east + A@west);
    [In] A := A * 0.9 + B * 0.1;
    c := min(c + 1.0, m);
  end;
end;
"""

# each outer trip runs an inner loop that repeats from its second trip
NESTED_SRC = """
program nested;
config n : integer = 16;
config k : integer = 12;
config j : integer = 10;
region R  = [1..n, 1..n];
region In = [2..n-1, 2..n-1];
direction east = [0, 1];
direction west = [0, -1];
direction north = [-1, 0];
var A, B : [R] double;
var s : double;
procedure main();
begin
  [R] A := index1 + index2;
  for t := 1 to k do
    for u := 1 to j do
      [In] s := +<< A;
      [In] B := 0.5 * (A@east + A@west);
      [In] A := A * 0.9 + B * 0.1;
    end;
    [In] B := A@north;
    [In] A := A + B * 0.5;
  end;
end;
"""


def _counter(key, k, m):
    return compile_program(
        COUNTER_SRC, "counter.zl", config={"k": k, "m": m}, opt=experiment_spec(key).opt
    )


class TestFirstRepeat:
    """The monitor proves a period of one at the state's first repeat
    and skips from the period it already stepped, bit for bit against
    the walk, which steps every trip."""

    @pytest.mark.parametrize("machine_name", ["t3d", "paragon"])
    @pytest.mark.parametrize("m", [2, 6, 11])
    def test_period_one_extrapolates_every_trip_after_first_repeat(self, m, machine_name):
        k = 30
        _, fast = run_pair(_counter("pl", k, m), machine_for(machine_name)("pl"))
        assert fast.scalars["c"] == m
        assert fast.fastpath.as_dict() == {
            "extrapolated_trips": k - (m + 1),
            "extrapolated_loops": 1,
            "fallbacks": 0,
        }

    @pytest.mark.parametrize("m", [2, 6])
    def test_one_whole_period_left_extrapolates(self, m):
        machine = machine_for("t3d")("baseline")
        _, fast = run_pair(_counter("baseline", m + 2, m), machine)
        assert fast.fastpath.as_dict() == {
            "extrapolated_trips": 1,
            "extrapolated_loops": 1,
            "fallbacks": 0,
        }
        # proven on the last trip: no trip is left to skip
        _, fast = run_pair(_counter("baseline", m + 1, m), machine)
        assert fast.fastpath.as_dict() == {
            "extrapolated_trips": 0,
            "extrapolated_loops": 0,
            "fallbacks": 1,
        }

    @pytest.mark.parametrize("machine_name", ["t3d", "paragon"])
    @pytest.mark.parametrize("key", ["baseline", "pl"])
    def test_outer_period_holds_an_inner_extrapolation(self, key, machine_name):
        """The outer loop repeats first at trip 2, so the period it
        replays is the stepped trip 2, whose inner loop skipped its last
        trips: their epoch advances must be in the outer pattern."""
        program = compile_program(NESTED_SRC, "nested.zl", opt=experiment_spec(key).opt)
        _, fast = run_pair(program, machine_for(machine_name)(key))
        k, j = 12, 10
        assert fast.fastpath.as_dict() == {
            "extrapolated_trips": (k - 2) + 2 * (j - 2),
            "extrapolated_loops": 3,
            "fallbacks": 0,
        }

    def test_spread_surcharges_scale_with_the_skipped_periods(self):
        """A rendezvous DN that waits adds a spread surcharge to the
        account: the monitor copies it, and the skipped periods add
        theirs, scaled in one multiply.  On this program the scaled
        account is still the walk's, bit for bit."""
        base = apply_overrides(machine_for("t3d")("pl_shmem"), {"net.raw_latency": 1e-3})
        machine = apply_overrides(
            base, {"prim.*.spread_penalty": 0.5, "prim.*.spread_cap": 1e-3}
        )
        program = _counter("pl_shmem", 30, 2)
        _, fast = run_pair(program, machine)
        assert fast.fastpath.extrapolated_trips > 0
        unpenalized = simulate(program, base, options=SimOptions.timing())
        assert np.all(fast.instrument.comm_sw_time > unpenalized.instrument.comm_sw_time)

    @pytest.mark.parametrize(
        "machine_name, latencies, firsts",
        [("t3d", (1e-6, 1.5e-4, 3e-4), [2, 3, 4]), ("paragon", (1e-6, 4e-4), [2, 5])],
        ids=["t3d", "paragon"],
    )
    def test_batch_extrapolates_after_its_last_variant_repeats(
        self, machine_name, latencies, firsts
    ):
        """Each latency variant alone first repeats at the trip ``firsts``
        names; the batch, whose state repeats only when every variant's
        does, extrapolates every trip after the last of them."""
        k = 40
        program, longer = _counter("baseline", k, 0), _counter("baseline", k + 1, 0)
        base = machine_for(machine_name)("baseline")
        variants = [apply_overrides(base, {"net.latency": lat}) for lat in latencies]
        scalars = []
        for machine, first in zip(variants, firsts):
            _, fast = run_pair(program, machine)
            assert fast.fastpath.extrapolated_trips == k - first
            # one trip more skips one trip more: a period of one
            stretched = simulate(longer, machine, options=SimOptions.timing())
            assert stretched.fastpath.extrapolated_trips == k + 1 - first
            scalars.append(fast)
        run = simulate_many(program, variants)
        assert run.fastpath.as_dict() == {
            "extrapolated_trips": k - max(firsts),
            "extrapolated_loops": 1,
            "fallbacks": 0,
        }
        for v, scalar in enumerate(scalars):
            assert_same_row(run, v, scalar)


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
    """STEADY_SRC under one experiment key's optimization config (cached:
    compilation dominates otherwise).  The bare ``compile_program`` form
    inserts no communication at all, so a parity test would pass
    vacuously without ``opt=``."""
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
        run_pair(_steady_program(key), machine)

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
        run_pair(program, machine)
