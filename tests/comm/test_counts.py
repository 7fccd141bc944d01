"""Unit tests for static count helpers."""

from repro import OptimizationConfig, compile_program
from repro.comm.counts import (
    static_call_count,
    static_comm_count,
    static_message_volume_entries,
)
from repro.ironman.calls import CallKind

SRC = """
program p;
config n : integer = 8;
region R  = [1..n, 1..n];
region In = [2..n-1, 2..n-1];
direction east = [0, 1];
var A, B, C : [R] double;
procedure main();
begin
  [In] C := A@east;
  [In] C := C + B@east;
  work();
end;
procedure work();
begin
  [In] C := C * 0.5 + A@east;
end;
"""


def test_static_count_is_descriptor_count():
    prog = compile_program(SRC, "p.zl", opt=OptimizationConfig.baseline())
    assert static_comm_count(prog) == 3


def test_call_counts_equal_comm_count_per_kind():
    prog = compile_program(SRC, "p.zl", opt=OptimizationConfig.full())
    n = static_comm_count(prog)
    calls = static_call_count(prog)
    assert calls == {kind: n for kind in CallKind}


def test_combined_transfer_counts_once_but_keeps_entries():
    base = compile_program(SRC, "p.zl", opt=OptimizationConfig.baseline())
    cc = compile_program(SRC, "p.zl", opt=OptimizationConfig.rr_cc())
    assert static_comm_count(cc) < static_comm_count(base)
    # combining moves the same data: entry totals match rr output
    rr = compile_program(SRC, "p.zl", opt=OptimizationConfig.rr_only())
    assert static_message_volume_entries(cc) == static_message_volume_entries(rr)


def test_per_block_counts():
    prog = compile_program(SRC, "p.zl", opt=OptimizationConfig.baseline())
    # the call site splits main's statements from work's body
    assert [len(block.descriptors()) for block in prog.walk_blocks()] == [2, 1]
