"""Single-rank ops: the scalar core's float forms of one-rank charges and
one-message calls.

TOMCATV's row bands each live on one processor, so most of its wavefront
charges one rank and moves one message.  On the scalar core such an op
binds a scalar form that updates only its ranks' clocks and accounts, in
the vector op's float order; the walk keeps the vector ops and is the
oracle.  The batched core binds no scalar form: its calls bind block
forms over ``(R, V)`` blocks, a one-message call a ``(1, V)`` row.
"""

from functools import partial

import numpy as np
import pytest

from repro import ExecutionMode, machine_by_name
from repro.errors import RuntimeFault
from repro.experiments_registry import EXPERIMENT_KEYS, experiment_spec
from repro.ironman.calls import CallKind
from repro.machine import apply_overrides, pack_variants
from repro.programs import build_benchmark
from repro.runtime.executor import _Simulation
from repro.runtime.schedule import (
    _Binder,
    _Call,
    _Charge,
    _For,
    _If,
    _Repeat,
    compile_schedule,
)
from tests.runtime.test_parity import run_pair
from tests.runtime.test_template import BLOCK_FORMS, _flatten

#: every library binding, on the machine that offers it
BINDINGS = [
    ("t3d", "pvm"),
    ("t3d", "shmem"),
    ("paragon", "nx"),
    ("paragon", "nx_async"),
    ("paragon", "nx_callback"),
]

#: two trips of each loop: nothing is monitored or extrapolated
CONFIG = {"niters": 2, "nsolve": 2}


def _tomcatv(key):
    return build_benchmark("tomcatv", config=CONFIG, opt=experiment_spec(key).opt)


def _nodes(nodes):
    """The template's leaf nodes in binding order."""
    for node in nodes:
        if isinstance(node, (_For, _Repeat)):
            yield from _nodes(node.body)
        elif isinstance(node, _If):
            for _, arm in node.arms:
                yield from _nodes(arm)
            yield from _nodes(node.orelse)
        else:
            yield node


#: the scalar core's single-rank forms, by the closure's name
SCALAR_FORMS = {"charge_one", "send_one", "complete_one", "pre_one", "fixed_one"}


def _is_scalar_form(op):
    return getattr(op, "__name__", None) in SCALAR_FORMS


def _sim(program, target):
    return _Simulation(program, target, ExecutionMode.TIMING, None, fast=True)


@pytest.mark.parametrize("key", EXPERIMENT_KEYS)
@pytest.mark.parametrize("machine_name, library", BINDINGS, ids=lambda x: x)
def test_compiled_equals_walk_bit_for_bit(machine_name, library, key):
    program = _tomcatv(key)
    machine = machine_by_name(machine_name, 64, library)
    _, fast = run_pair(program, machine)
    assert fast.fastpath.extrapolated_trips == 0
    lowered = _sim(program, machine).template.lowered
    plans = [node.plan for node in _nodes(lowered.body) if isinstance(node, _Call)]
    assert any(plan.message_count == 1 for plan in plans)


@pytest.mark.parametrize("machine_name, library", BINDINGS, ids=lambda x: x)
def test_scalar_core_binds_scalar_forms_for_single_rank_ops(machine_name, library):
    machine = machine_by_name(machine_name, 64, library)
    sim = _sim(_tomcatv("pl"), machine)
    binder = _Binder(sim)
    lowered = sim.template.lowered
    seen = set()
    expected = 0
    for node in _nodes(lowered.body):
        if isinstance(node, _Charge):
            one = np.count_nonzero(lowered.elements[node.row]) == 1
            rank = lowered.one_rank[node.row]
            assert (rank is not None) == one
            if one:
                assert lowered.elements[node.row][rank] > 0
            op = sim.timing.bind_charge(binder.charges[node.row], rank, node.label)
            vector_op = sim.timing.charge_array_vec
        elif isinstance(node, _Call) and node.kind in binder.costs:
            one = node.plan.message_count == 1
            costs = binder.costs[node.kind][node.index]
            op = sim.timing.bind_call(node.kind, node.desc, node.plan, costs)
            vector_op = sim.timing.call_op(node.kind)
        else:
            continue
        assert _is_scalar_form(op) == one, node
        if not one:
            assert op.func == vector_op
        seen.add((type(node), one))
        expected += one
    assert seen == {(_Charge, True), (_Charge, False), (_Call, True), (_Call, False)}
    # the binder takes the core's choice for every op it binds
    ops = list(_flatten(compile_schedule(sim).ops))
    assert sum(map(_is_scalar_form, ops)) == expected


def test_batched_core_binds_vector_ops_only():
    """No scalar form on the batched core: a charge stays a
    ``charge_array_vec`` partial and a call binds its kind's block form,
    one-rank rows and one-message plans included; a one-message SR
    leaves a ``(1, V)`` in-flight block."""
    base = machine_by_name("t3d", 64, "shmem")
    variants = [apply_overrides(base, {"net.latency": lat}) for lat in (1e-5, 4e-5)]
    sim = _sim(_tomcatv("pl"), pack_variants(variants))
    binder = _Binder(sim)
    lowered = sim.template.lowered
    seen = set()
    for node in _nodes(lowered.body):
        if isinstance(node, _Charge):
            rank = lowered.one_rank[node.row]
            op = sim.timing.bind_charge(binder.charges[node.row], rank, node.label)
            assert isinstance(op, partial) and op.func == sim.timing.charge_array_vec
            seen.add((_Charge, rank is not None))
        elif isinstance(node, _Call) and node.kind in binder.costs:
            one = node.plan.message_count == 1
            costs = binder.costs[node.kind][node.index]
            op = sim.timing.bind_call(node.kind, node.desc, node.plan, costs)
            assert BLOCK_FORMS[op.__name__] is node.kind
            if one and node.kind is CallKind.SR and not sim.timing._inflight:
                op()
                assert sim.timing._inflight[node.desc.id].shape == (1, 2)
            seen.add((type(node), one))
    assert seen == {(_Charge, True), (_Charge, False), (_Call, True), (_Call, False)}
    assert sim.timing._inflight
    ops = list(_flatten(compile_schedule(sim).ops))
    assert ops and not any(map(_is_scalar_form, ops))


def _one_message_call(sim, kind):
    """The descriptor, plan and bound costs of ``sim``'s first
    one-message ``kind`` call."""
    binder = _Binder(sim)
    for node in _nodes(sim.template.lowered.body):
        if isinstance(node, _Call) and node.kind is kind and node.plan.message_count == 1:
            return node.desc, node.plan, binder.costs[kind][node.index]
    raise AssertionError(f"no one-message {kind} call")


def _fault(op):
    with pytest.raises(RuntimeFault) as exc:
        op()
    return str(exc.value)


@pytest.mark.parametrize("library", ["pvm", "shmem"])
def test_scalar_send_twice_raises_like_the_vector_op(library):
    program, machine = _tomcatv("pl"), machine_by_name("t3d", 64, library)
    scalar_sim, vector_sim = _sim(program, machine), _sim(program, machine)
    desc, plan, costs = _one_message_call(scalar_sim, CallKind.SR)
    scalar = scalar_sim.timing.bind_call(CallKind.SR, desc, plan, costs)
    vector = partial(vector_sim.timing.call_op(CallKind.SR), desc, plan, costs)
    assert _is_scalar_form(scalar)
    scalar()
    vector()
    message = _fault(scalar)
    assert message == _fault(vector)
    assert "initiated twice without completion" in message


@pytest.mark.parametrize("library", ["pvm", "shmem"])
def test_scalar_complete_before_send_raises_like_the_vector_op(library):
    program, machine = _tomcatv("pl"), machine_by_name("t3d", 64, library)
    scalar_sim, vector_sim = _sim(program, machine), _sim(program, machine)
    desc, plan, costs = _one_message_call(scalar_sim, CallKind.DN)
    scalar = scalar_sim.timing.bind_call(CallKind.DN, desc, plan, costs)
    assert _is_scalar_form(scalar)
    message = _fault(scalar)
    assert message == _fault(
        partial(vector_sim.timing.call_op(CallKind.DN), desc, plan, costs)
    )
    assert "before initiation" in message
