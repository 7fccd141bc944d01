"""Red-black Gauss-Seidel — checkerboard relaxation, in ZL.

Gauss-Seidel relaxation parallelizes by colouring the grid like a
checkerboard: all *red* points (``index1 + index2`` even) update from
their four black neighbours, then all *black* points update from the
freshly-computed red values.  ZL has no element indexing or strided
regions, so the colouring is expressed with a parity *mask* computed
once in ``init()``:

    ``RED = (1 + cos(pi * (index1 + index2))) / 2``

which is exactly 1 on red points and 0 on black ones
(``cos(pi * k) = (-1)^k``).  Each half-sweep is then a masked
whole-array update, ``A := A + MASK * (stencil - A)`` — points of the
other colour add zero.

The relaxation is *variable-coefficient* (``C`` holds a frozen
coefficient field, as in any non-constant-diffusion problem), which
gives the optimizer the two structures Jacobi lacks: each half-sweep
reads ``C@d`` and ``A@d`` for the same direction *in the same
statement* — pairs to the same neighbour that combining merges under
both heuristics — and the black half-sweep re-reads every ``C@d`` the
red half just fetched, with no intervening write to ``C``, so
redundancy removal deletes them while correctly keeping the ``A@d``
re-reads that the red write killed.  RBGS is the corpus's
*combining-and-selective-rr* kernel, between Jacobi's single-opt
profile and the paper's whole programs.
"""

from __future__ import annotations

from typing import Dict

DEFAULT_CONFIG: Dict[str, int] = {"n": 64, "niters": 60}

#: Reduced problem for tests.
SMALL_CONFIG: Dict[str, int] = {"n": 12, "niters": 2}

SOURCE = """
program rbgs;

config n      : integer = 64;
config niters : integer = 60;

region R  = [1..n, 1..n];
region In = [2..n-1, 2..n-1];

direction north = [-1,  0];
direction south = [ 1,  0];
direction east  = [ 0,  1];
direction west  = [ 0, -1];

var A, C, RED, BLACK : [R] double;
var err              : double;

procedure init();
begin
  -- parity masks: cos(pi*k) = (-1)^k, so RED is 1 where
  -- index1+index2 is even and 0 where it is odd
  [R] RED   := 0.5 * (1.0 + cos(3.14159265358979 * (index1 + index2)));
  [R] BLACK := 1.0 - RED;
  [R] A := sin(index1 * 0.2) * cos(index2 * 0.2);
  -- frozen coefficient field (variable-coefficient diffusion)
  [R] C := 1.0 + 0.1 * sin(index1 * 0.3) * cos(index2 * 0.3);
end;

-- red then black half-sweep: C@d + A@d pair up per neighbour within
-- each statement (combinable); the black half re-reads C@d with no
-- intervening write to C (removable), but its A@d reads are killed by
-- the red write (not removable)
procedure sweep();
begin
  [In] A := A + RED * (0.25 * (C@north * A@north + C@south * A@south
                             + C@east * A@east + C@west * A@west) - C * A);
  [In] A := A + BLACK * (0.25 * (C@north * A@north + C@south * A@south
                               + C@east * A@east + C@west * A@west) - C * A);
  [In] err := max<< abs(C * A);
end;

procedure main();
begin
  init();
  for it := 1 to niters do
    sweep();
  end;
end;
"""
