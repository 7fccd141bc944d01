"""SIMPLE — Lagrangian hydrodynamics (Livermore), in ZL.

The paper's Table 3 benchmark (256x256, 64 processors).  SIMPLE is the
classic two-dimensional Lagrangian hydrodynamics benchmark: velocity and
coordinate updates from pressure/viscosity gradients on a quadrilateral
mesh, zone volume/density updates, artificial viscosity, energy and
equation-of-state updates, and a heat-conduction solve.  "All
communication occurs in the main body of the program" (the paper's
explanation for why SIMPLE pipelines so well), and the mesh staggering
makes the stencils *corner-heavy*: node-centered and zone-centered
quantities exchange through diagonal as well as axis neighbours.

Why the structure matches the paper's data:

* **setup and per-phase gradient code re-read shifted references
  heavily** — redundancy removal wins big statically (paper: 266 -> 103)
  and substantially dynamically (28188 -> 21433);
* **the heat-conduction inner loop** carries the dynamically hot
  combining opportunities, split between a same-statement group (merged
  under both heuristics) and cross-statement groups (merged only under
  max-combining): the max-latency heuristic lands between ``rr`` and
  ``cc`` in both static and dynamic counts, exactly as in Table 3;
* **diagonal transfers are three point-to-point messages under message
  passing but three cheap puts + one completion under one-way
  communication** — the per-message receive costs PVM pays and SHMEM
  avoids are why SIMPLE shows the paper's largest ``pl with shmem``
  improvement;
* long basic blocks with early-ready, late-used transfers give
  pipelining real distance to exploit.
"""

from __future__ import annotations

from typing import Dict

DEFAULT_CONFIG: Dict[str, int] = {"n": 128, "niters": 40, "ncond": 14}

#: Reduced problem for tests.
SMALL_CONFIG: Dict[str, int] = {"n": 16, "niters": 2, "ncond": 2}

SOURCE = """
program simple;

config n      : integer = 128;
config niters : integer = 40;    -- hydro cycles
config ncond  : integer = 14;    -- heat conduction sweeps per cycle

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

-- node-centered coordinates and velocities; zone-centered state
var RXc, RYc, U, V           : [R] double;
var P, Q, RHO, VOL, E, T     : [R] double;
var MASS, GX, GY, GD         : [R] double;
var DU, DV, AREA, W1, W2     : [R] double;
var TB, QB, WB, SG, Q2, E2   : [R] double;
var dt, gamma, cfl, echeck   : double;

-- Mesh and state initialization: the metric terms re-read the same
-- shifted coordinates over and over — statically heavy, dynamically
-- executed once.
procedure setup();
begin
  dt    := 0.002;
  gamma := 1.4;
  [R] RXc := index2 + 0.05 * sin(index1 * 0.1);
  [R] RYc := index1 + 0.05 * sin(index2 * 0.1);
  [R] MASS := 1.0 + 0.001 * index1;
  [R] T := 300.0 + 0.1 * index2;
  [R] Q2 := T * 0.01;
  [In] GX := RXc@east - RXc@west;
  [In] GY := RYc@south - RYc@north;
  [In] GD := (RXc@se - RXc@nw) * (RYc@sw - RYc@ne);
  [In] AREA := 0.5 * ((RXc@east - RXc@west) * (RYc@south - RYc@north)
             - (RXc@se - RXc@nw) * (RYc@sw - RYc@ne) * 0.25);
  [In] VOL := abs(AREA) + 0.001 * abs(RXc@east - RXc@west)
            + 0.001 * abs(RYc@south - RYc@north);
  [In] W1  := 0.25 * (RXc@se + RXc@nw + RXc@east + RXc@west);
  [In] W2  := 0.25 * (RYc@sw + RYc@ne + RYc@south + RYc@north);
  [In] RHO := MASS / (VOL + 0.001);
  [In] E := T * 0.7 + 0.5 * (U * U + V * V);
  [In] P := (gamma - 1.0) * RHO * E;
  [In] Q := 0.0;
end;

-- corner-coupled pressure/viscosity gradients; the mixed-derivative and
-- smoothing statements re-read every reference of the first two
procedure gradients();
begin
  [In] GX := P@east - 2.0 * P + P@west + 0.5 * (Q@east - Q@west);
  [In] GY := P@south - 2.0 * P + P@north + 0.5 * (Q@south - Q@north);
  [In] GD := 0.25 * (P@se - P@ne - P@sw + P@nw);
  [In] W1 := (P@east - P@west) * (P@south - P@north) * 0.125
           + 0.1 * (P@se - P@sw);
end;

-- node velocity update from the gradients (no new communication beyond
-- the corner terms of the staggering)
procedure velocity();
begin
  [In] DU := GX + 0.5 * GD + 0.05 * (U@se - U@nw);
  [In] DV := GY - 0.5 * GD + 0.05 * (V@sw - V@ne);
  [In] U := U - dt * DU / (MASS + 0.001);
  [In] V := V - dt * DV / (MASS + 0.001);
end;

-- move the nodes (pure local computation)
procedure position();
begin
  [In] RXc := RXc + dt * U;
  [In] RYc := RYc + dt * V;
end;

-- zone volumes from the moved corner coordinates, then density
procedure volume();
begin
  [In] AREA := 0.5 * ((RXc@east - RXc) * (RYc@south - RYc)
             - (RXc@se - RXc) * (RYc@se - RYc) * 0.5);
  [In] W2 := abs(RXc@east - RXc) * 0.5 + abs(RYc@south - RYc) * 0.5;
  [In] VOL := abs(AREA) + 0.2 * W2 + 0.001;
  [In] RHO := MASS / VOL;
end;

-- artificial viscosity from velocity jumps across zone corners
procedure viscosity();
begin
  [In] Q := 0.3 * RHO * ((U@se - U) * (U@se - U)
          + (V@ne - V) * (V@ne - V));
  [In] W1 := abs(U@se - U) + abs(V@ne - V);
  [In] Q := min(Q, 2.0 + W1);
end;

-- energy update with a heat-flux correction term
procedure energy();
begin
  [In] E := E - (P + Q) * dt * (VOL - W2) + 0.01 * (T@north - T);
  [In] E2 := E2 * 0.9 + 0.005 * (T@north - T);
end;

-- equation of state: purely local
procedure pressure();
begin
  [In] P := (gamma - 1.0) * RHO * E;
  [In] T := E / (0.7 + 0.001 * RHO);
end;

-- one sweep of the heat-conduction solve: a same-statement east group
-- (combinable under both heuristics), redundant east re-reads, and a
-- cross-statement west group (combinable under max-combining only)
procedure conduct();
begin
  [In] TB := (T@east - T) * 0.4 + (Q2@east - Q2) * 0.1;
  [In] SG := SG * 0.9 + 0.1 * (T@east - Q2@east);
  [In] QB := (T@west - T) * 0.4;
  [In] WB := (Q2@west - Q2) * 0.1 + QB * 0.5;
  [In] T  := T + 0.3 * TB + 0.2 * QB;
  [In] Q2 := Q2 + 0.1 * WB + 0.005 * SG;
end;

procedure main();
begin
  setup();
  for cycle := 1 to niters do
    gradients();
    velocity();
    position();
    volume();
    viscosity();
    energy();
    pressure();
    for c := 1 to ncond do
      conduct();
    end;
  end;
  [In] echeck := +<< E;
end;
"""
