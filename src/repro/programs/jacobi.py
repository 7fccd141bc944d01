"""Jacobi — five-point relaxation, in ZL.

The canonical data-parallel kernel: every interior point is replaced by
the average of its four axis neighbours, double-buffered through ``B``
so the sweep reads only old values, with a ``max<<`` residual reduction
per iteration (ZPL's textbook example program has exactly this shape).

The residual is computed from the *stencil*, not from the
double-buffered copy — ``err = max |stencil(A) - A|`` — which is how
convergence-checked Jacobi is usually written and re-reads all four
shifted values inside the same basic block.  That makes Jacobi the
*redundancy-removal* kernel of the corpus: ``rr`` halves its transfers
(8 per sweep down to 4), while combining finds nothing (each direction
goes to a different neighbour) and pipelining gains only what little
slack the short block offers.  A single-optimization profile the
paper's four re-read-heavy whole programs never isolate this cleanly.
"""

from __future__ import annotations

from typing import Dict

DEFAULT_CONFIG: Dict[str, int] = {"n": 64, "niters": 100}

#: Reduced problem for tests.
SMALL_CONFIG: Dict[str, int] = {"n": 12, "niters": 2}

SOURCE = """
program jacobi;

config n      : integer = 64;
config niters : integer = 100;

region R  = [1..n, 1..n];
region In = [2..n-1, 2..n-1];

direction north = [-1,  0];
direction south = [ 1,  0];
direction east  = [ 0,  1];
direction west  = [ 0, -1];

var A, B : [R] double;
var err  : double;

-- smooth interior over a fixed harmonic boundary field
procedure init();
begin
  [R] A := sin(index1 * 0.2) * cos(index2 * 0.2);
  [R] B := A;
end;

-- the residual re-reads the stencil's four transfers in the same
-- block: redundant under rr, all distinct neighbours under cc
procedure sweep();
begin
  [In] B := 0.25 * (A@north + A@south + A@east + A@west);
  [In] err := max<< abs(0.25 * (A@north + A@south + A@east + A@west) - A);
  [In] A := B;
end;

procedure main();
begin
  init();
  for it := 1 to niters do
    sweep();
  end;
end;
"""
