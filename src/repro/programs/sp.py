"""SP — NAS scalar-pentadiagonal CFD application benchmark, in ZL.

The paper's Table 4 benchmark (16x16x16, 64 processors).  SP is a 3-D
ADI-style solver: each iteration computes a stencil right-hand side over
the five solution components, then performs line solves in x, y and z.
On ZPL's two-dimensional virtual processor mesh the first two dimensions
are distributed and the third is processor-local, which gives SP its
signature communication structure:

* **rhs** reads every component shifted in x and y (communication) *and*
  z (free — the third dimension is local, so ``@zup``/``@zdn`` generate
  no transfers at all);
* **x/y line solves** are recurrence sweeps along distributed
  dimensions: cross-iteration dependences leave pipelining little
  distance, consecutive sweeps overlap in a wavefront pipeline under
  asynchronous message passing, and the one-way prototype's
  synchronization throttles that overlap — SP, like TOMCATV, *degrades*
  under ``pl with shmem`` (paper Table 4);
* **z solve** is pure local computation;
* rhs direction groups span five statements (combined by max-combining
  only), while each solve sweep has one same-statement pair (combined
  under both heuristics) plus singles — the max-latency heuristic lands
  between ``rr`` and ``cc``, as in Table 4.  The paper could not run
  ``pl with max latency`` for SP (a library bug); we can.

The default grid is 16x16x128 rather than the paper's 16x16x16: the
deepened local dimension restores the compute-to-communication balance
of the real SP, whose per-element work (five coupled equations,
pentadiagonal systems) is far heavier than our model statements.  The
distributed extents — and hence every transfer — match the paper's run.
"""

from __future__ import annotations

from typing import Dict

DEFAULT_CONFIG: Dict[str, int] = {"nx": 16, "nz": 128, "niters": 60, "nsweep": 4}

#: Reduced problem for tests.
SMALL_CONFIG: Dict[str, int] = {"nx": 8, "nz": 8, "niters": 2, "nsweep": 2}

SOURCE = """
program sp;

config nx     : integer = 16;    -- distributed extents (x and y)
config nz     : integer = 128;   -- processor-local extent
config niters : integer = 60;    -- ADI iterations
config nsweep : integer = 4;     -- recurrence sweeps per line solve

region R  = [1..nx, 1..nx, 1..nz];
region In = [2..nx-1, 2..nx-1, 2..nz-1];

direction xup = [ 1,  0,  0];
direction xdn = [-1,  0,  0];
direction yup = [ 0,  1,  0];
direction ydn = [ 0, -1,  0];
direction zup = [ 0,  0,  1];
direction zdn = [ 0,  0, -1];

-- the five solution components and their right-hand sides
var U1, U2, U3, U4, U5           : [R] double;
var R1, R2, R3, R4, R5           : [R] double;
var LHSX, LHSY, LHSZ, COEF, DISS : [R] double;
var rnorm : double;

procedure setup();
begin
  [R] U1 := 1.0 + 0.01 * index1 + 0.02 * index2 + 0.001 * index3;
  [R] U2 := 0.5 * sin(index1 * 0.3) + 0.1 * index2;
  [R] U3 := 0.5 * cos(index2 * 0.3) + 0.1 * index3;
  [R] U4 := 0.25 * (index1 + index2) * 0.1;
  [R] U5 := 2.5 + 0.05 * index3;
  [R] COEF := 0.3 + 0.001 * (index1 + index2 + index3);
  [R] LHSX := 1.0;
  [R] LHSY := 1.0;
  [R] LHSZ := 1.0;
  -- smoothing of the coefficient field: the second and third statements
  -- re-read the first's transfers (setup-only redundancy)
  [In] DISS := COEF@xup + COEF@xdn + COEF@yup + COEF@ydn;
  [In] COEF := COEF * 0.96 + 0.01 * (COEF@xup + COEF@xdn)
             + 0.01 * (COEF@yup + COEF@ydn);
  [In] LHSX := LHSX + 0.001 * (COEF@xup - COEF@xdn)
             + 0.001 * (COEF@yup - COEF@ydn);
end;

-- stencil right-hand side: each component reads x, y (communication)
-- and z (local) neighbours; the dissipation statements re-read the
-- first two components' transfers
procedure rhs();
begin
  [In] R1 := COEF * (U1@xup - 2.0 * U1 + U1@xdn)
           + COEF * (U1@yup - 2.0 * U1 + U1@ydn)
           + COEF * (U1@zup - 2.0 * U1 + U1@zdn);
  [In] R2 := COEF * (U2@xup - 2.0 * U2 + U2@xdn)
           + COEF * (U2@yup - 2.0 * U2 + U2@ydn)
           + COEF * (U2@zup - 2.0 * U2 + U2@zdn);
  [In] R3 := COEF * (U3@xup - 2.0 * U3 + U3@xdn)
           + COEF * (U3@yup - 2.0 * U3 + U3@ydn)
           + COEF * (U3@zup - 2.0 * U3 + U3@zdn);
  [In] R4 := COEF * (U4@xup - 2.0 * U4 + U4@xdn)
           + COEF * (U4@yup - 2.0 * U4 + U4@ydn)
           + COEF * (U4@zup - 2.0 * U4 + U4@zdn);
  [In] R5 := COEF * (U5@xup - 2.0 * U5 + U5@xdn)
           + COEF * (U5@yup - 2.0 * U5 + U5@ydn)
           + COEF * (U5@zup - 2.0 * U5 + U5@zdn);
  [In] DISS := 0.1 * (U1@xup + U1@xdn + U1@yup + U1@ydn)
             + 0.05 * (U2@xup + U2@xdn + U2@yup + U2@ydn);
  [In] R1 := R1 - 0.02 * DISS;
  [In] R2 := R2 - 0.01 * DISS;
end;

-- one recurrence sweep of the x line solve
procedure xsweep();
begin
  [In] LHSX := 1.0 / (4.0 - LHSX@xup * COEF@xup);
  [In] R1 := (R1 + R1@xup * LHSX) * 0.99 + 0.01 * COEF@xup;
  [In] R2 := (R2 + R2@xdn * LHSX) * 0.99;
  [In] R3 := (R3 + R3 * LHSX * 0.1) * 0.99;
end;

-- one recurrence sweep of the y line solve
procedure ysweep();
begin
  [In] LHSY := 1.0 / (4.0 - LHSY@yup * COEF@yup);
  [In] R4 := (R4 + R4@yup * LHSY) * 0.99 + 0.01 * COEF@yup;
  [In] R5 := (R5 + R5@ydn * LHSY) * 0.99;
  [In] R1 := (R1 + R1 * LHSY * 0.1) * 0.99;
end;

-- one recurrence sweep of the z line solve: the third dimension is
-- processor-local, so these shifts generate no communication at all
procedure zsweep();
begin
  [In] LHSZ := 1.0 / (4.0 - LHSZ@zup * COEF@zup);
  [In] R2 := (R2 + R2@zup * LHSZ) * 0.99;
  [In] R3 := (R3 + R3@zdn * LHSZ) * 0.99;
  [In] R4 := (R4 + R4 * LHSZ * 0.1) * 0.99;
end;

-- apply the update
procedure add();
begin
  [In] U1 := U1 + 0.05 * R1;
  [In] U2 := U2 + 0.05 * R2;
  [In] U3 := U3 + 0.05 * R3;
  [In] U4 := U4 + 0.05 * R4;
  [In] U5 := U5 + 0.05 * R5;
end;

procedure main();
begin
  setup();
  for it := 1 to niters do
    rhs();
    for s := 1 to nsweep do
      xsweep();
    end;
    for s := 1 to nsweep do
      ysweep();
    end;
    for s := 1 to nsweep do
      zsweep();
    end;
    add();
  end;
  [In] rnorm := +<< (R1 * R1 + R5 * R5);
end;
"""
