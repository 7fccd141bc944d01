"""Multigrid ladder — stride-doubling V-cycle, in ZL.

A small three-level multigrid V-cycle, expressed the only way ZL's
single-region model allows: instead of physically restricting onto
coarser grids (which needs the index remapping ZL deliberately lacks),
each level smooths *on the fine grid* with a stencil whose offsets
double per level — stride 1, then 2, then 4 — which is exactly the
communication pattern a coarse-grid sweep induces on the processors
that own the fine data.  The cycle runs down the ladder
(pre-smooth h -> 2h -> 4h), takes extra sweeps at the coarsest level,
and comes back up (4h -> 2h -> h), finishing with a residual reduction.

As a corpus member multigrid contributes what no other program has:
*multi-hop* transfers.  The stride-2 and stride-4 directions move data
across processor boundaries farther than one fluff cell, stressing the
transfer planner's general (non-nearest-neighbour) path, and each
level's distinct direction set means combining must group by offset
rather than merging everything — distance-heterogeneous communication
the paper's four benchmarks never exercise.  Each smoother also reads
the full-weighted source term ``F`` at its own stride, so ``F@d``
pairs with ``U@d`` per neighbour: same-statement combining halves the
transfer count (the corpus's largest ``cc`` win), while intra-block
redundancy removal correctly finds nothing — every block reads each
``(array, direction)`` exactly once, and the cross-*block* ``F``
re-reads are interblock-rr territory.
"""

from __future__ import annotations

from typing import Dict

DEFAULT_CONFIG: Dict[str, int] = {"n": 64, "niters": 8, "ncoarse": 4}

#: Reduced problem for tests.
SMALL_CONFIG: Dict[str, int] = {"n": 16, "niters": 2, "ncoarse": 2}

SOURCE = """
program multigrid;

config n       : integer = 64;
config niters  : integer = 8;    -- V-cycles
config ncoarse : integer = 4;    -- extra sweeps at the coarsest level

region R  = [1..n, 1..n];
region In = [5..n-4, 5..n-4];    -- margin covers the stride-4 stencil

-- one direction set per ladder level: offsets double going coarser
direction n1 = [-1,  0];  direction s1 = [ 1,  0];
direction e1 = [ 0,  1];  direction w1 = [ 0, -1];
direction n2 = [-2,  0];  direction s2 = [ 2,  0];
direction e2 = [ 0,  2];  direction w2 = [ 0, -2];
direction n4 = [-4,  0];  direction s4 = [ 4,  0];
direction e4 = [ 0,  4];  direction w4 = [ 0, -4];

var U, F, RES : [R] double;
var err       : double;

procedure init();
begin
  [R] U := 0.0 * index1;
  [R] F := sin(index1 * 0.3) * sin(index2 * 0.3);
  [R] RES := 0.0 * index1;
end;

-- damped Jacobi smoothing at each stride with a full-weighted source
-- term: F@d pairs with U@d per neighbour and F is never written
procedure smooth1();
begin
  [In] U := U + 0.2 * (0.25 * (U@n1 + U@s1 + U@e1 + U@w1) - U
          + 0.25 * (F@n1 + F@s1 + F@e1 + F@w1));
end;

procedure smooth2();
begin
  [In] U := U + 0.2 * (0.25 * (U@n2 + U@s2 + U@e2 + U@w2) - U
          + 0.25 * (F@n2 + F@s2 + F@e2 + F@w2));
end;

procedure smooth4();
begin
  [In] U := U + 0.2 * (0.25 * (U@n4 + U@s4 + U@e4 + U@w4) - U
          + 0.25 * (F@n4 + F@s4 + F@e4 + F@w4));
end;

-- the residual re-reads both stride-1 stencils in its own block;
-- F@d1 pairs with U@d1 per neighbour, as in the smoothers
procedure residual();
begin
  [In] RES := F - (U - 0.25 * (U@n1 + U@s1 + U@e1 + U@w1))
            + 0.0625 * (F@n1 + F@s1 + F@e1 + F@w1);
  [In] err := max<< abs(RES);
end;

-- one V-cycle: down the ladder, extra coarse sweeps, back up
procedure vcycle();
begin
  smooth1();
  smooth2();
  for c := 1 to ncoarse do
    smooth4();
  end;
  smooth2();
  smooth1();
end;

procedure main();
begin
  init();
  for it := 1 to niters do
    vcycle();
    residual();
  end;
end;
"""
