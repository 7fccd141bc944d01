"""SWM with periodic boundaries — the original model's geometry.

The real shallow-water benchmark runs on a doubly periodic domain; the
paper-aligned :mod:`repro.programs.swm` emulates boundaries with a
filter phase instead, because the paper's count arithmetic is built on
that structure.  This variant uses ZL's wrap shifts (``@@``) to make the
domain a genuine torus: no boundary regions, no special-casing — every
processor, including the mesh edges, exchanges with a neighbour for
every transfer.

It is not in the program registry (it is not part of the reproduction
targets); compile its ``SOURCE`` directly.  It serves as the showcase
workload for periodic communication: compare its per-step transfer participation
with the bounded variant's — on the torus *every* rank participates in
*every* transfer.
"""

from __future__ import annotations

from typing import Dict

DEFAULT_CONFIG: Dict[str, int] = {"n": 128, "nsteps": 150}

SMALL_CONFIG: Dict[str, int] = {"n": 16, "nsteps": 3}

SOURCE = """
program swm_periodic;

config n      : integer = 128;
config nsteps : integer = 150;

region R = [1..n, 1..n];

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

-- fluxes over the whole torus: no interior region needed
procedure calc1();
begin
  [R] CU := 0.5 * (P@@east + P) * U + 0.05 * (V@@east - V);
  [R] CV := 0.5 * (P@@south + P) * V + 0.05 * (U@@south - U);
  [R] Z  := (V@@west - V) * 0.25 / (P + 1.0);
  [R] H  := P + 0.25 * (U@@north * U@@north + U * U);
end;

procedure calc2();
begin
  [R] UNEW := UOLD + tdts8 * (Z@@se - Z) * (CV@@sw + CV)
            - tdtsdx * (H@@east - H);
  [R] VNEW := VOLD - tdts8 * (Z@@ne - Z) * (CU@@nw + CU)
            - tdtsdy * (H@@south - H);
  [R] PNEW := POLD - tdtsdx * (CU@@west - CU) - tdtsdy * (CV@@north - CV);
end;

procedure calc3();
begin
  [R] UOLD := U + alpha * (UNEW - 2.0 * U + UOLD);
  [R] VOLD := V + alpha * (VNEW - 2.0 * V + VOLD);
  [R] POLD := P + alpha * (PNEW - 2.0 * P + POLD);
  [R] U := UNEW;
  [R] V := VNEW;
  [R] P := PNEW;
end;

procedure main();
begin
  init();
  for step := 1 to nsteps do
    calc1();
    calc2();
    calc3();
  end;
  [R] pcheck := +<< P;
end;
"""
