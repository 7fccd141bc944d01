"""Ablations beyond the paper's tables, each against the paper's claims.

Every table must equal its file in ``tests/goldens/paper/``.  Re-render
them with

    PYTHONPATH=src python -m tests.paper.test_ablations
"""

import dataclasses

from repro import ExecutionMode, OptimizationConfig, compile_program, simulate
from repro.analysis import format_table
from repro.analysis.profile import breakdown_of, breakdown_table
from repro.machine import paragon, t3d
from repro.programs import BENCHMARKS, build_benchmark
from tests.paper import assert_golden, write_golden


def _time(program, machine):
    return simulate(program, machine, ExecutionMode.TIMING).time


# ---------------------------------------------------------------------------
# where the time goes
# ---------------------------------------------------------------------------


def breakdown():
    """Each benchmark's critical-processor time split into computation,
    communication software and waiting, baseline and fully optimized.
    This makes the paper's verbal diagnoses quantitative: TOMCATV's
    waits come from its sequential solver, SIMPLE's software share is the
    largest (which is why removing and combining messages pays most
    there), and pipelining converts waiting into overlap."""
    machine = t3d(64, "pvm")
    results = {}
    for bench in BENCHMARKS:
        for label, cfg in [
            ("baseline", OptimizationConfig.baseline()),
            ("pl", OptimizationConfig.full()),
        ]:
            prog = build_benchmark(bench, opt=cfg)
            results[f"{bench} {label}"] = simulate(prog, machine, ExecutionMode.TIMING)
    headers, rows = breakdown_table(results)
    text = format_table(
        headers, rows, title="Ablation — critical-processor time breakdown (PVM)"
    )
    text += (
        "\n\ncolumns are fractions of the critical processor's clock; "
        "compute + comm sw + wait = 1 by construction."
    )
    return text, results


def test_time_breakdown():
    text, results = breakdown()
    assert_golden("ablation_breakdown", text)
    # accounting is exact
    for result in results.values():
        b = breakdown_of(result)
        assert abs(b.compute + b.comm_sw + b.wait - b.total) < 1e-9
    # optimization reduces the communication share on every benchmark
    for bench in BENCHMARKS:
        base = breakdown_of(results[f"{bench} baseline"])
        full = breakdown_of(results[f"{bench} pl"])
        assert full.comm_sw + full.wait < base.comm_sw + base.wait


# ---------------------------------------------------------------------------
# inter-block redundancy removal (the paper's future work, implemented)
# ---------------------------------------------------------------------------

#: A phase-structured workload: three phases per step all read the
#: static geometry fields GX/GY shifted the same ways.  Per-block
#: redundancy removal cannot touch it, because the phase procedures
#: bound the basic blocks; the paper's Section 4 proposes "a standard
#: data flow analysis algorithm to apply optimizations across basic
#: block boundaries".
PHASES_SRC = """
program phases;
config n      : integer = 96;
config nsteps : integer = 60;
region R  = [1..n, 1..n];
region In = [2..n-1, 2..n-1];
direction east  = [0, 1];
direction south = [1, 0];
var GX, GY, U, V, P : [R] double;
procedure geometry();
begin
  [In] U := U + 0.1 * (GX@east - GX) + 0.1 * (GY@south - GY);
end;
procedure advect();
begin
  [In] V := V + 0.2 * U * (GX@east - GX);
end;
procedure project();
begin
  [In] P := P * 0.99 + 0.01 * (GY@south - GY) * V;
end;
procedure main();
begin
  [R] GX := index2 + 0.01 * index1;
  [R] GY := index1 - 0.01 * index2;
  for t := 1 to nsteps do
    geometry();
    advect();
    project();
  end;
end;
"""


def interblock():
    machine = t3d(64, "pvm")
    rows = []
    base_time = None
    for label, cfg in [
        ("baseline", OptimizationConfig.baseline()),
        ("rr (per block)", OptimizationConfig(rr=True)),
        ("rr + interblock", OptimizationConfig(rr=True, rr_interblock=True)),
        ("full + interblock", OptimizationConfig(rr=True, cc=True, pl=True, rr_interblock=True)),
    ]:
        program = compile_program(PHASES_SRC, "phases.zl", opt=cfg)
        res = simulate(program, machine, ExecutionMode.TIMING)
        if base_time is None:
            base_time = res.time
        rows.append([label, res.static_comm_count, res.dynamic_comm_count, res.time / base_time])
    text = format_table(
        ["configuration", "static", "dynamic", "scaled time"],
        rows,
        title="Ablation — inter-block redundancy removal (phase workload)",
    )
    return text, rows


def test_interblock_dataflow():
    text, rows = interblock()
    assert_golden("ablation_interblock", text)
    by = {row[0]: row for row in rows}
    # the phases hide cross-block redundancy from the per-block pass
    assert by["rr (per block)"][1] == by["baseline"][1]
    assert by["rr + interblock"][1] < by["rr (per block)"][1]
    assert by["rr + interblock"][2] < by["rr (per block)"][2]

    # the paper's benchmarks gain nothing: their phases write what the
    # next phase reads (the dataflow kills every availability)
    swm_rr = build_benchmark("swm", opt=OptimizationConfig(rr=True))
    swm_ib = build_benchmark("swm", opt=OptimizationConfig(rr=True, rr_interblock=True))
    assert len(swm_ib.all_descriptors()) <= len(swm_rr.all_descriptors())


# ---------------------------------------------------------------------------
# each optimization in isolation
# ---------------------------------------------------------------------------


def isolated():
    """The paper's keys are cumulative (rr, then +cc, then +pl); applying
    each optimization alone separates their contributions."""
    keys = [
        ("baseline", OptimizationConfig.baseline()),
        ("rr only", OptimizationConfig(rr=True)),
        ("cc only", OptimizationConfig(cc=True)),
        ("pl only", OptimizationConfig(pl=True)),
        ("rr+cc+pl", OptimizationConfig.full()),
    ]
    machine = t3d(64, "pvm")
    rows = []
    for bench in BENCHMARKS:
        times = [_time(build_benchmark(bench, opt=cfg), machine) for _, cfg in keys]
        rows.append([bench] + [t / times[0] for t in times])
    text = format_table(
        ["benchmark"] + [k for k, _ in keys],
        rows,
        title="Ablation — isolated optimizations (scaled times, PVM)",
    )
    text += (
        "\n\ncumulative application dominates every isolated optimization, "
        "as the paper's design assumes ('each optimization impacts "
        "performance significantly')."
    )
    return text, rows


def test_isolated_optimizations():
    text, rows = isolated()
    assert_golden("ablation_isolated", text)
    for row in rows:
        base, rr, cc, pl, full = row[1:]
        assert full <= min(rr, cc, pl) + 1e-9
        assert rr <= base and cc <= base and pl <= base + 1e-9


# ---------------------------------------------------------------------------
# the combining knee
# ---------------------------------------------------------------------------


def _knee_program(strip_doubles, opt):
    """Two combinable transfers of ``strip_doubles`` each between two
    nodes."""
    m = strip_doubles
    source = f"""
    program knee;
    region Data  = [1..1, 1..{2 * m}];
    region HalfL = [1..1, 1..{m}];
    direction off = [0, {m}];
    var A, B, C, D : [Data] double;
    procedure main();
    begin
      [Data] A := index2 * 0.5;
      [Data] B := index2 * 0.25;
      for r := 1 to 400 do
        [HalfL] C := A@off * 1.0001 + 0.5;
        [HalfL] D := B@off * 1.0001 + 0.5;
      end;
    end;
    """
    return compile_program(source, "knee.zl", opt=opt)


def knee():
    """The paper concludes from Figure 6 that combining pays up to 512
    doubles (4 KB) and not beyond; this measures the combining speedup
    across the knee as a whole-program effect."""
    machine = t3d(2, "pvm")
    rows = []
    for doubles in (32, 128, 512, 1024, 2048, 4096):
        t_rr = _time(_knee_program(doubles, OptimizationConfig.rr_only()), machine)
        t_cc = _time(_knee_program(doubles, OptimizationConfig.rr_cc()), machine)
        rows.append([doubles, doubles * 8, t_cc / t_rr])
    text = format_table(
        ["strip (doubles)", "bytes", "combined / uncombined time"],
        rows,
        title="Ablation — combining speedup across the 4 KB knee",
    )
    text += (
        "\n\nbelow the knee combining wins outright; at and beyond it the "
        "gain shrinks toward parity — the paper's 512-double rule."
    )
    return text, rows


def test_combining_knee():
    text, rows = knee()
    assert_golden("ablation_knee", text)
    by = {row[0]: row[2] for row in rows}
    assert by[128] < 0.95  # clear win below the knee
    assert by[4096] > by[128]  # the win erodes beyond it


# ---------------------------------------------------------------------------
# the Paragon battery the paper dropped
# ---------------------------------------------------------------------------


def paragon_battery():
    """The paper: "when we performed our full battery of tests using the
    benchmark suite on the Paragon, the asynchronous primitives saw
    little performance improvement or, in most cases, performance
    degradation", and it did not present those results.  Per benchmark,
    the fully optimized program under each NX binding."""
    rows = []
    for bench in BENCHMARKS:
        program = build_benchmark(bench, opt=OptimizationConfig.full())
        times = {lib: _time(program, paragon(64, lib)) for lib in ("nx", "nx_async", "nx_callback")}
        rows.append(
            [
                bench,
                times["nx"],
                times["nx_async"] / times["nx"],
                times["nx_callback"] / times["nx"],
            ]
        )
    text = format_table(
        ["benchmark", "csend/crecv (s)", "isend/irecv scaled", "hsend/hrecv scaled"],
        rows,
        title="Ablation — Paragon primitives, fully optimized programs "
        "(scaled to csend/crecv)",
    )
    text += (
        "\n\nthe paper's unpresented Paragon finding, reproduced: the "
        "asynchronous primitives bring little or negative benefit, the "
        "callback primitives are strictly worse."
    )
    return text, rows


def test_paragon_battery():
    text, rows = paragon_battery()
    assert_golden("ablation_paragon", text)
    for row in rows:
        assert row[2] >= 0.97, "async is at best marginal"
        assert row[3] > 1.0, "callback primitives degrade"


# ---------------------------------------------------------------------------
# optimization benefit vs machine size
# ---------------------------------------------------------------------------


def scaling():
    """The paper fixes 64 processors.  Smaller partitions mean larger
    local blocks, more computation per transferred byte, and thinner
    communication savings."""
    baseline = build_benchmark("swm", opt=OptimizationConfig.baseline())
    full = build_benchmark("swm", opt=OptimizationConfig.full())
    rows = []
    for nprocs in (4, 16, 64):
        machine = t3d(nprocs, "pvm")
        base = simulate(baseline, machine, ExecutionMode.TIMING)
        t_full = _time(full, machine)
        rows.append([nprocs, base.time, t_full, t_full / base.time, base.dynamic_comm_count])
    text = format_table(
        ["procs", "baseline (s)", "pl (s)", "pl scaled", "baseline dyn comms"],
        rows,
        title="Ablation — SWM optimization benefit vs partition size",
    )
    return text, rows


def test_scaling():
    text, rows = scaling()
    assert_golden("ablation_scaling", text)
    scaled = [row[3] for row in rows]
    # communication matters more at scale: the full optimization's
    # relative benefit grows (scaled time shrinks) with the machine
    assert scaled[-1] <= scaled[0] + 1e-9
    # and absolute times shrink with more processors
    times = [row[1] for row in rows]
    assert times == sorted(times, reverse=True)


# ---------------------------------------------------------------------------
# the prototype synchronization's weight
# ---------------------------------------------------------------------------


def _shmem_machine(synch_fixed=None, spread_penalty=None):
    """t3d/64 SHMEM with its ``synch`` primitive's fixed cost or spread
    penalty replaced."""
    machine = t3d(64, "shmem")
    changes = {}
    if synch_fixed is not None:
        changes["fixed"] = synch_fixed
    if spread_penalty is not None:
        changes["spread_penalty"] = spread_penalty
    prims = dict(machine.primitives)
    prims["synch"] = dataclasses.replace(prims["synch"], **changes)
    return dataclasses.replace(machine, primitives=prims)


def synch():
    """The paper blames its SHMEM degradation on "unnecessarily
    heavy-weight" synchronization and expects an optimized IRONMAN to
    drop "pl with shmem" below "pl".  The model's ``synch`` spread
    penalty (polling interference against a still-computing partner) is
    zero by default: the degradation emerges from the flag-rendezvous
    semantics alone.  Sweeping the penalty up shows a heavier prototype;
    sweeping the fixed cost down projects the optimized one."""
    program = build_benchmark("tomcatv", opt=OptimizationConfig.full())
    pl_pvm = _time(program, t3d(64, "pvm"))
    default_fixed = t3d(2, "shmem").primitives["synch"].fixed
    rows = []
    for label, fixed, beta in [
        ("optimized synch (1us)", 1.0e-6, 0.0),
        ("half-weight synch", default_fixed / 2, 0.0),
        ("prototype (default)", None, None),
        ("prototype + polling x0.5", None, 0.5),
        ("prototype + polling x1.0", None, 1.0),
    ]:
        rows.append([label, _time(program, _shmem_machine(fixed, beta)) / pl_pvm])
    text = format_table(
        ["synch model", "tomcatv pl+shmem / pl+pvm"],
        rows,
        title="Ablation — synchronization weight (TOMCATV)",
    )
    text += (
        "\n\nthe paper expects 'pl with shmem' to drop below 'pl' once the "
        "synchronization is optimized; the 1us row projects that."
    )
    return text, rows


def test_synch_weight():
    text, rows = synch()
    assert_golden("ablation_synch", text)
    values = [row[1] for row in rows]
    # monotone: heavier synchronization, worse TOMCATV
    assert values == sorted(values)
    # the optimized-synch projection beats PVM, as the paper anticipates
    assert values[0] < 1.0


if __name__ == "__main__":
    for name, render in (
        ("ablation_breakdown", breakdown),
        ("ablation_interblock", interblock),
        ("ablation_isolated", isolated),
        ("ablation_knee", knee),
        ("ablation_paragon", paragon_battery),
        ("ablation_scaling", scaling),
        ("ablation_synch", synch),
    ):
        write_golden(name, render()[0])
