"""Shared fixtures: small ZL programs and machines used across the suite.

Also pins the hypothesis settings profiles: ``ci`` (the default) is
fixed-seed and deadline-free so tier-1 runs are deterministic and never
flake on machine load; ``nightly`` spends more examples.  Select with
``HYPOTHESIS_PROFILE=nightly pytest ...``.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro import OptimizationConfig, compile_program, paragon, t3d
from repro.ir import nodes as ir

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "nightly",
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

#: A minimal but representative program: setup, a stencil loop with
#: redundant/combinable/pipelinable communication, a reduction, a branch.
DEMO_SOURCE = """
program demo;

config n     : integer = 16;
config steps : integer = 4;

region R  = [1..n, 1..n];
region In = [2..n-1, 2..n-1];

direction east  = [ 0,  1];
direction west  = [ 0, -1];
direction north = [-1,  0];
direction south = [ 1,  0];

var A, B, C, D : [R] double;
var err : double;

procedure init();
begin
  [R] A := index1 * 0.25 + index2 * index2 * 0.01;
  [R] B := index2 - 0.5 * index1;
  [R] C := 0.0;
  [R] D := 0.0;
end;

procedure main();
begin
  init();
  for t := 1 to steps do
    [In] C := A@east - A@west;
    [In] D := B@east + 0.5 * B@west;
    [In] A := A + 0.25 * (C + D) + 0.125 * (A@east - A@west);
    [In] B := B + 0.1 * C;
  end;
  [In] err := max<< abs(C);
  if err > 100.0 then
    [In] C := C * (100.0 / err);
  end;
end;
"""

#: Tiny single-statement program for focused unit tests.
MINI_SOURCE = """
program mini;
config n : integer = 8;
region R  = [1..n, 1..n];
region In = [1..n, 1..n-1];
direction east = [0, 1];
var A, B : [R] double;
procedure main();
begin
  [R] A := index1 * 10.0 + index2;
  [In] B := A@east;
end;
"""


@pytest.fixture
def demo_source() -> str:
    return DEMO_SOURCE


@pytest.fixture
def mini_source() -> str:
    return MINI_SOURCE


@pytest.fixture
def demo_lowered():
    """The demo program, lowered but communication-free."""
    return compile_program(DEMO_SOURCE, "demo.zl")


@pytest.fixture
def demo_optimized():
    """The demo program under full optimization."""
    return compile_program(DEMO_SOURCE, "demo.zl", opt=OptimizationConfig.full())


@pytest.fixture
def mini_lowered():
    return compile_program(MINI_SOURCE, "mini.zl")


@pytest.fixture
def t3d4():
    """A 2x2 T3D partition (PVM)."""
    return t3d(4, "pvm")


@pytest.fixture
def t3d4_shmem():
    return t3d(4, "shmem")


@pytest.fixture
def t3d16():
    """A 4x4 T3D partition (PVM)."""
    return t3d(16, "pvm")


@pytest.fixture
def paragon2():
    return paragon(2, "nx")


def compile_demo(opt=None, **config):
    """Helper used by many tests: compile DEMO_SOURCE with overrides."""
    return compile_program(DEMO_SOURCE, "demo.zl", config=config or None, opt=opt)


def cap_repeats(program, max_trips: int):
    """``program`` with every ``repeat`` loop capped at ``max_trips``
    trips.  Call it before the program's first run: a simulated program
    keeps its lowered templates."""
    for stmt in ir.walk_body(program.body):
        if isinstance(stmt, ir.RepeatLoop):
            stmt.max_trips = max_trips
    return program
