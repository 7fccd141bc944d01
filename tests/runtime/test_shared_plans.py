"""One transfer plan per geometry, shared by every descriptor with it.

:class:`~repro.runtime.transfers.PlanCache` keys its process-wide memo by
geometry: the layout, the processor count, the direction's offsets, the
wrap flag and each entry's array and use region.  Descriptors of equal
geometry, in one program or in several on an equal layout, resolve to
one plan object, so what identifies a transfer is the call's
descriptor: both timing cores key in-flight arrivals and DR flags, and
NUMERIC runs their payloads, by its id, and faults and traced labels
name it.  Jacobi under ``pl_only`` is the case that needs it: its loop
sends both of its ``A@north`` transfers (and both of each other
direction) before it completes either, so state keyed by the plan would
take the second send for the first sent twice.
"""

import re

import numpy as np
import pytest

from repro import ExecutionMode, SimOptions, reference_run, run_study, simulate, simulate_many
from repro.comm import OptimizationConfig
from repro.engine.worker import clear_compile_cache
from repro.errors import RuntimeFault
from repro.experiments_registry import experiment_spec
from repro.ir import nodes as ir
from repro.ironman.calls import CallKind
from repro.machine import pack_variants, paragon, t3d
from repro.programs import build_benchmark, small_config
from repro.runtime.executor import _Simulation
from repro.runtime.schedule import _Binder, _Call, schedule_template
from repro.runtime.transfers import PlanCache, TransferPlan
from tests.runtime.test_parity import DIVERSE_OVERRIDES, _variants, assert_same_row, run_pair
from tests.runtime.test_single_rank import _nodes

MACHINES = (t3d(16, "pvm"), t3d(16, "shmem"), paragon(16, "nx"))
IDS = ("t3d-pvm", "t3d-shmem", "paragon-nx")


def _jacobi(key):
    """A fresh compile of jacobi at its small config under ``key``."""
    return build_benchmark(
        "jacobi", config=small_config("jacobi"), opt=experiment_spec(key).opt
    )


def _calls(body):
    """``(kind, desc)`` of every IRONMAN call of ``body`` (blocks and
    counted loops, which is all jacobi has), in program order."""
    out = []
    for stmt in body:
        if isinstance(stmt, ir.Block):
            out += [(s.kind, s.desc) for s in stmt.stmts if isinstance(s, ir.CommCall)]
        elif isinstance(stmt, ir.ForLoop):
            out += _calls(stmt.body)
    return out


def _north(program):
    """The program's two ``A@north`` descriptors, in program order."""
    north = [d for d in program.all_descriptors() if d.direction.name == "north"]
    assert len(north) == 2
    return north


def _sim(program, target):
    return _Simulation(program, target, ExecutionMode.TIMING, None, fast=True)


def test_equal_geometry_transfers_in_flight_together_share_one_plan():
    program = _jacobi("pl_only")
    first, second = _north(program)
    calls = _calls(program.body)
    # both sends come before either completion
    assert calls.index((CallKind.SR, second)) < calls.index((CallKind.DN, first))
    plans = _sim(program, MACHINES[0]).plans
    assert first.id != second.id
    assert plans._geometry_key(first) == plans._geometry_key(second)
    assert plans.plan(first) is plans.plan(second)
    # the lowered calls carry their own descriptors beside the one plan
    sends = {
        node.desc.id: node.plan
        for node in _nodes(schedule_template(program, MACHINES[0]).lowered.body)
        if isinstance(node, _Call) and node.kind is CallKind.SR
    }
    assert sends[first.id] is sends[second.id]


@pytest.mark.parametrize("machine", MACHINES, ids=IDS)
def test_compiled_path_matches_the_walk(machine):
    run_pair(_jacobi("pl_only"), machine)


@pytest.mark.parametrize("machine", MACHINES, ids=IDS)
def test_batched_rows_match_scalar_runs(machine):
    program = _jacobi("pl_only")
    variants = _variants(machine, DIVERSE_OVERRIDES)
    run = simulate_many(program, variants)
    for v, variant in enumerate(variants):
        assert_same_row(run, v, simulate(program, variant, ExecutionMode.TIMING))


@pytest.mark.parametrize("library", ["pvm", "shmem"])
def test_numeric_matches_the_reference(library):
    program = _jacobi("pl_only")
    result = simulate(program, t3d(16, library), ExecutionMode.NUMERIC)
    reference = reference_run(program)
    for name in ("A", "B"):
        assert np.array_equal(result.array(name), reference.array(name)), name
    assert result.scalars["err"] == pytest.approx(reference.scalars["err"])


def _fault(op):
    with pytest.raises(RuntimeFault) as exc:
        op()
    return str(exc.value)


def _bound(sim, kind):
    """``desc.id -> op`` for ``sim``'s ``kind`` calls, each bound by the
    run's core."""
    binder = _Binder(sim)
    return {
        node.desc.id: sim.timing.bind_call(
            kind, node.desc, node.plan, binder.costs[kind][node.index]
        )
        for node in _nodes(sim.template.lowered.body)
        if isinstance(node, _Call) and node.kind is kind
    }


@pytest.fixture
def borrowed():
    """A fresh jacobi ``pl_only`` compile whose plans were all built for
    another program's descriptors (jacobi at baseline, simulated first
    on the same layout), and its two ``A@north`` descriptors."""
    PlanCache.clear_global()
    baseline = _jacobi("baseline")
    simulate(baseline, MACHINES[0], options=SimOptions.timing())
    program = _jacobi("pl_only")
    owner = _sim(baseline, MACHINES[0]).plans
    borrower = _sim(program, MACHINES[0]).plans
    for desc in program.all_descriptors():
        same = [
            d
            for d in baseline.all_descriptors()
            if owner._geometry_key(d) == borrower._geometry_key(desc)
        ]
        assert same and all(borrower.plan(desc) is owner.plan(d) for d in same)
    return program, _north(program)


@pytest.mark.parametrize(
    "target",
    [
        t3d(16, "pvm"),
        t3d(16, "shmem"),
        pack_variants(_variants(t3d(16, "shmem"), DIVERSE_OVERRIDES)),
    ],
    ids=["scalar-pvm", "scalar-shmem", "batched-shmem"],
)
def test_bound_faults_name_the_call(borrowed, target):
    """Compiled ops, the scalar core's and the block forms: a second send
    of each ``A@north`` transfer, and a completion of each before its
    send, name the call's own descriptor."""
    program, north = borrowed
    sends = _bound(_sim(program, target), CallKind.SR)
    for desc in north:
        sends[desc.id]()
        assert _fault(sends[desc.id]) == (
            f"transfer {desc.describe()} initiated twice without completion "
            "— optimizer produced an illegal schedule"
        )
    completions = _bound(_sim(program, target), CallKind.DN)
    for desc in north:
        assert _fault(completions[desc.id]).startswith(
            f"completion of {desc.describe()} before initiation"
        )


@pytest.mark.parametrize("library", ["pvm", "shmem"])
def test_walk_faults_name_the_call(borrowed, library):
    """The walk's ops: completing the second ``A@north`` transfer while
    only the first is in flight faults, naming the second."""
    program, north = borrowed
    sim = _Simulation(program, t3d(16, library), ExecutionMode.TIMING)
    plan = sim.plans.plan(north[0])
    costs = {kind: sim.comm_costs(plan, kind) for kind in (CallKind.SR, CallKind.DN)}
    send, complete = sim.timing.call_op(CallKind.SR), sim.timing.call_op(CallKind.DN)
    for desc in north:
        assert f"completion of {desc.describe()} before" in _fault(
            lambda: complete(desc, plan, costs[CallKind.DN])
        )
        send(desc, plan, costs[CallKind.SR])
        assert f"transfer {desc.describe()} initiated twice" in _fault(
            lambda: send(desc, plan, costs[CallKind.SR])
        )


@pytest.mark.parametrize("library", ["pvm", "shmem"])
def test_traced_labels_name_the_call(borrowed, library):
    program, north = borrowed
    own = {f"comm#{d.id}(" for d in program.all_descriptors()}
    result = simulate(program, t3d(16, library), options=SimOptions.timing(trace_rank=5))
    named = {m for e in result.trace for m in re.findall(r"comm#\d+\(", e.label)}
    assert named and named <= own
    sent = {e.label for e in result.trace if e.kind == "send"}
    assert {d.describe() for d in north} <= sent


def test_cold_paper_study_builds_one_plan_per_geometry(monkeypatch):
    """A cold t3d/64 paper study looks up 646 descriptors and builds
    one plan per distinct geometry, 150; a generated program's baseline
    and full versions share their equal-geometry plans."""
    built, looked_up = [], set()
    build, plan = TransferPlan.__init__, PlanCache.plan

    def counted_build(self, desc, layout, nprocs):
        built.append(desc.id)
        build(self, desc, layout, nprocs)

    def counted_plan(self, desc):
        looked_up.add(desc.id)
        return plan(self, desc)

    monkeypatch.setattr(TransferPlan, "__init__", counted_build)
    monkeypatch.setattr(PlanCache, "plan", counted_plan)
    clear_compile_cache()
    PlanCache.clear_global()
    run_study(nprocs=64, machine="t3d", cache=False)
    assert (len(built), len(looked_up)) == (150, 646)

    machine = t3d(16)
    programs = [
        build_benchmark("gen_0", opt=opt)
        for opt in (experiment_spec("baseline").opt, OptimizationConfig.full())
    ]
    caches = [schedule_template(p, machine).geometry.plans for p in programs]
    shared = 0
    for base in programs[0].all_descriptors():
        key = caches[0]._geometry_key(base)
        for full in programs[1].all_descriptors():
            if caches[1]._geometry_key(full) == key:
                assert caches[1].plan(full) is caches[0].plan(base)
                shared += 1
    assert shared
