"""The schedule template: one lowering per program and machine shape.

A program's template (:func:`repro.runtime.schedule.schedule_template`)
holds everything of a compiled schedule that no cost parameter changes.
Scalar and batched runs on any machine of the same processor mesh share
it, it lives exactly as long as its program, and each run prices its
calls and binds the template's nodes into ops, emitting none for the
calls whose bound ``noop`` primitive would only add 0.0 to every clock.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import (
    ExecutionMode,
    OptimizationConfig,
    SimOptions,
    compile_program,
    paragon,
    simulate,
    t3d,
)
from repro.ironman.calls import CallKind
from repro.machine import apply_overrides, pack_variants
from repro.runtime import BatchEvaluator
from repro.runtime.costs import PlanTable
from repro.runtime.executor import _Simulation
from repro.runtime.schedule import _ForOp, _IfOp, _RepeatOp, compile_schedule
from repro.runtime.transfers import PlanCache
from tests.runtime.test_parity import assert_same_run

SRC = """
program tpl;
config n : integer = 12;
config k : integer = 4;
region R  = [1..n, 1..n];
region In = [2..n-1, 2..n-1];
direction east = [0, 1];
direction west = [0, -1];
direction se = [1, 1];
var A, B : [R] double;
var s : double;
procedure main();
begin
  [R] A := index1 * 2.0 + index2;
  [R] B := 0.0;
  for t := 1 to k do
    [In] B := 0.5 * (A@east + A@west) + A@se;
    [In] A := A * 0.9 + B * 0.1;
    [In] s := +<< A;
    if s > 1.0 then
      [In] B := B@west;
    end;
  end;
end;
"""

TIMING = SimOptions.timing()


def _program():
    return compile_program(SRC, "tpl.zl", opt=OptimizationConfig.full())


def _count_plan_lookups(monkeypatch):
    calls = []
    original = PlanCache.plan

    def counted(self, desc):
        calls.append(desc.id)
        return original(self, desc)

    monkeypatch.setattr(PlanCache, "plan", counted)
    return calls


def test_one_template_per_program_and_shape(monkeypatch):
    program = _program()
    first = simulate(program, t3d(4, "pvm"), options=TIMING)
    ((shape, template),) = program.templates.items()
    assert shape == (2, 2)
    lowered = template.lowered
    lookups = _count_plan_lookups(monkeypatch)
    # other libraries, another machine and the batched core on the same
    # mesh: one template, lowered once, no plan looked up again
    simulate(program, t3d(4, "shmem"), options=TIMING)
    simulate(program, paragon(4, "nx_async"), options=TIMING)
    evaluator = BatchEvaluator(program, t3d(4, "pvm"))
    assert evaluator.template is template
    variants = [
        apply_overrides(t3d(4, "pvm"), {"net.latency": latency})
        for latency in (1e-6, 2e-5)
    ]
    evaluator.evaluate(variants)
    again = simulate(program, t3d(4, "pvm"), options=TIMING)
    assert lookups == []
    # the walk resolves its plans lazily, through the template's geometry
    walk = simulate(program, t3d(4, "pvm"), options=SimOptions.timing(fast=False))
    assert lookups
    assert list(program.templates.values()) == [template]
    assert template.lowered is lowered
    assert again.time == first.time == walk.time
    # another mesh is another shape
    simulate(program, t3d(16, "pvm"), options=TIMING)
    assert sorted(program.templates) == [(2, 2), (4, 4)]


def test_template_is_freed_with_its_program_without_the_cycle_collector():
    gc.disable()
    try:
        program = _program()
        simulate(program, t3d(4), options=TIMING)
        simulate(program, t3d(4), options=SimOptions.timing(fast=False))
        simulate(program, t3d(4), options=SimOptions.numeric())
        BatchEvaluator(program, t3d(4)).evaluate([t3d(4)])
        template = weakref.ref(program.templates[(2, 2)])
        lowered = weakref.ref(template().lowered.table)
        del program
        assert template() is None
        assert lowered() is None
    finally:
        gc.enable()


def test_walk_prices_through_one_table_kept_on_each_plan(monkeypatch):
    """The walk prices a plan through the plan's own one-plan table: a
    walk on another machine of the same mesh builds none, and the plan
    alone holds its table, so the table is freed with the plan."""
    built = []
    original = PlanTable.__init__

    def counted(self, plans):
        built.append(tuple(plans))
        original(self, plans)

    monkeypatch.setattr(PlanTable, "__init__", counted)
    PlanCache.clear_global()
    program = _program()
    walk = SimOptions.timing(fast=False)
    simulate(program, t3d(4), options=walk)
    assert built and all(len(plans) == 1 for plans in built)
    assert len({id(plans[0]) for plans in built}) == len(built)
    count = len(built)
    simulate(program, paragon(4), options=walk)
    assert len(built) == count
    gc.disable()
    try:
        plan = built[0][0]
        table = weakref.ref(plan.table)
        del program, built
        PlanCache.clear_global()
        assert table() is not None
        del plan
        assert table() is None
    finally:
        gc.enable()


def _flatten(ops):
    for op in ops:
        if isinstance(op, _ForOp):
            yield from _flatten(op.body)
        elif isinstance(op, _RepeatOp):
            yield from _flatten(op.body)
        elif isinstance(op, _IfOp):
            for _, body in op.arms:
                yield from _flatten(body)
            yield from _flatten(op.orelse)
        else:
            yield op


#: the batched core's block form of each call kind, by the closure's name
BLOCK_FORMS = {
    "send_block": CallKind.SR,
    "complete_block": CallKind.DN,
    "pre_block": CallKind.DR,
    "volatile_block": CallKind.SV,
}

#: every call op either core binds here, by name: the scalar core's
#: vector ops (partials of its ``_do_*`` methods) and the block forms
CALL_OPS = {
    "_do_send": CallKind.SR,
    "_do_complete": CallKind.DN,
    "_do_pre": CallKind.DR,
    "_do_volatile": CallKind.SV,
    **BLOCK_FORMS,
}

#: the ops that are not calls: charges, reductions and assignments
OTHER_OPS = {"charge_array_vec", "charge_scalar_cost", "charge_reduction_vec", "_assign"}


def _call_ops(sim):
    """The call kinds of every op ``sim``'s compiled schedule binds; an
    op of any other name fails."""
    schedule = compile_schedule(sim)
    kinds = []
    for op in _flatten(schedule.ops):
        name = getattr(op, "func", op).__name__
        if name in CALL_OPS:
            kinds.append(CALL_OPS[name])
        else:
            assert name in OTHER_OPS, name
    return schedule, kinds


@pytest.mark.parametrize(
    "machine, free",
    [
        (t3d(4, "pvm"), {CallKind.DR, CallKind.SV}),
        (t3d(4, "shmem"), {CallKind.SV}),
        (paragon(4, "nx"), {CallKind.DR, CallKind.SV}),
        (paragon(4, "nx_async"), set()),
    ],
    ids=lambda x: getattr(x, "library", None),
)
def test_noop_bound_calls_emit_no_op(machine, free):
    """The template keeps every call; a run binds no op for a DR or SV
    call bound to ``noop``, and still equals the walk, which runs them."""
    program = _program()
    sim = _Simulation(program, machine, ExecutionMode.TIMING, None, fast=True)
    schedule, kinds = _call_ops(sim)
    assert sim.template.lowered.kinds == tuple(CallKind)
    assert set(kinds) == set(CallKind) - free
    assert kinds.count(CallKind.SR) == kinds.count(CallKind.DN)
    schedule.execute()
    sim.timing.assert_quiescent()
    walk = simulate(program, machine, options=SimOptions.timing(fast=False))
    assert np.array_equal(sim.timing.absolute_clocks(), walk.clocks)
    assert sim.timing.elapsed == walk.time
    inst = sim.instrument
    assert inst.call_counts == walk.instrument.call_counts
    assert inst.reductions == walk.instrument.reductions
    assert np.array_equal(inst.dynamic_comms, walk.instrument.dynamic_comms)
    assert np.array_equal(inst.messages, walk.instrument.messages)
    assert np.array_equal(inst.bytes_moved, walk.instrument.bytes_moved)
    assert_same_run(walk, simulate(program, machine, options=TIMING))


def test_noop_bound_calls_emit_no_batched_op():
    program = _program()
    base = t3d(4, "pvm")
    variants = [apply_overrides(base, {"prim.*.fixed": f}) for f in (0.0, 3e-5)]
    run = BatchEvaluator(program, base).evaluate(variants)
    sim = _Simulation(
        program, pack_variants(variants), ExecutionMode.TIMING, None, fast=True
    )
    _, kinds = _call_ops(sim)
    assert set(kinds) == {CallKind.SR, CallKind.DN}
    for v, machine in enumerate(variants):
        scalar = simulate(program, machine, options=SimOptions.timing(fast=False))
        assert run.times[v] == scalar.time
        assert np.array_equal(run.clocks[v], scalar.clocks)
