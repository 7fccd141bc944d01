"""The unified ``SimOptions`` API.

``simulate`` historically took ``repeat_cap`` / ``trace_rank`` / ``fast``
as bare keywords; that shim completed its one-release deprecation cycle
and is gone.  ``options=SimOptions(...)`` is the only spelling for those
settings now — bare keywords are a ``TypeError`` — while positional
``mode`` remains a stable short form.  Mixing ``mode`` with ``options=``
is an error (a silent precedence rule would hide bugs).
"""

import warnings

import pytest

from repro import (
    ExecutionMode,
    SimOptions,
    compile_program,
    simulate,
    t3d,
)
from repro.errors import RuntimeFault

SRC = """
program opts;
config n : integer = 8;
region R  = [1..n, 1..n];
region In = [2..n-1, 2..n-1];
direction east = [0, 1];
var A, B : [R] double;
var s : double;
procedure main();
begin
  [R] A := index1 + index2;
  repeat
    [In] B := A@east;
    [In] A := A + B * 0.1;
    [In] s := +<< A;
  until s > 1.0e30;
end;
"""


@pytest.fixture(scope="module")
def program():
    return compile_program(SRC, "opts.zl")


@pytest.fixture(scope="module")
def machine():
    return t3d(4, "pvm")


class TestSimOptions:
    def test_defaults(self):
        opts = SimOptions()
        assert opts.mode is ExecutionMode.NUMERIC
        assert opts.repeat_cap is None
        assert opts.trace_rank is None
        assert opts.fast is True

    def test_string_mode_coerced(self):
        assert SimOptions(mode="timing").mode is ExecutionMode.TIMING
        assert SimOptions(mode="numeric").mode is ExecutionMode.NUMERIC

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            SimOptions(mode="warp")

    def test_constructors(self):
        t = SimOptions.timing(repeat_cap=7, fast=True)
        assert t.mode is ExecutionMode.TIMING
        assert t.repeat_cap == 7
        assert t.fast is True
        n = SimOptions.numeric(trace_rank=2)
        assert n.mode is ExecutionMode.NUMERIC
        assert n.trace_rank == 2

    def test_frozen(self):
        opts = SimOptions()
        with pytest.raises(Exception):
            opts.repeat_cap = 3


class TestOptionsOnlyAPI:
    def test_bare_repeat_cap_is_gone(self, program, machine):
        with pytest.raises(TypeError, match="repeat_cap"):
            simulate(program, machine, repeat_cap=5)

    def test_bare_trace_rank_is_gone(self, program, machine):
        with pytest.raises(TypeError, match="trace_rank"):
            simulate(program, machine, ExecutionMode.TIMING, trace_rank=0)

    def test_bare_fast_is_gone(self, program, machine):
        with pytest.raises(TypeError, match="fast"):
            simulate(program, machine, ExecutionMode.TIMING, fast=False)

    def test_options_carry_every_setting(self, program, machine):
        traced = simulate(
            program,
            machine,
            options=SimOptions.timing(trace_rank=0, repeat_cap=5),
        )
        assert traced.trace is not None
        walked = simulate(
            program,
            machine,
            options=SimOptions.timing(fast=False, repeat_cap=5),
        )
        assert walked.fastpath is None
        assert walked.time == traced.time
        capped = simulate(
            program, machine, options=SimOptions.numeric(repeat_cap=5)
        )
        assert any("capped" in w for w in capped.warnings)

    def test_positional_mode_is_silent(self, program, machine):
        """Positional mode is NOT deprecated — only the bare keywords."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            res = simulate(
                program,
                machine,
                ExecutionMode.TIMING,
                options=None,
            )
        assert res.time > 0.0

    def test_options_path_is_silent(self, program, machine):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            simulate(program, machine, options=SimOptions.timing(repeat_cap=5))

    def test_mixing_options_and_mode_raises(self, program, machine):
        with pytest.raises(RuntimeFault, match="mode"):
            simulate(
                program,
                machine,
                ExecutionMode.TIMING,
                options=SimOptions.timing(),
            )

    def test_options_equivalent_to_positional_mode(self, program, machine):
        positional = simulate(program, machine, ExecutionMode.TIMING)
        modern = simulate(program, machine, options=SimOptions.timing())
        assert positional.time == modern.time
        assert positional.warnings == modern.warnings
        assert positional.dynamic_comm_count == modern.dynamic_comm_count


class TestTraceRankBoundary:
    """``trace_rank`` is checked where it enters: a rank outside the
    machine, or a non-int, used to run silently with a partial timeline
    (-1 dropped every receive and wait) or fail deep in the engine."""

    @pytest.mark.parametrize("rank", [-1, 4, True, 1.0, "0"])
    @pytest.mark.parametrize("mode", ["timing", "numeric"])
    def test_rejected_naming_value_and_range(self, program, machine, rank, mode):
        with pytest.raises(RuntimeFault) as err:
            simulate(
                program,
                machine,
                options=SimOptions(mode=mode, trace_rank=rank, repeat_cap=3),
            )
        assert repr(rank) in str(err.value)
        assert "[0, 4)" in str(err.value)

    def test_every_rank_in_range_traces(self, program, machine):
        for rank in range(machine.nprocs):
            res = simulate(
                program,
                machine,
                options=SimOptions.timing(trace_rank=rank, repeat_cap=3),
            )
            assert res.trace_rank == rank and res.trace
