"""Single-rank ops: the scalar core's float forms of one-rank charges and
one-message calls.

TOMCATV's row bands each live on one processor, so most of its wavefront
charges one rank and moves one message.  On the scalar core such an op
binds a scalar form that updates only its ranks' clocks and accounts, in
the vector op's float order; the walk keeps the vector ops and is the
oracle.  The batched core binds vector ops only.
"""

from functools import partial

import numpy as np
import pytest

from repro import ExecutionMode, SimOptions, machine_by_name, simulate
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
from tests.runtime.test_template import _flatten

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


def _is_scalar_form(op):
    return not isinstance(op, partial)


def _sim(program, target):
    return _Simulation(program, target, ExecutionMode.TIMING, None, fast=True)


@pytest.mark.parametrize("key", EXPERIMENT_KEYS)
@pytest.mark.parametrize("machine_name, library", BINDINGS, ids=lambda x: x)
def test_compiled_equals_walk_bit_for_bit(machine_name, library, key):
    program = _tomcatv(key)
    machine = machine_by_name(machine_name, 64, library)
    walk = simulate(program, machine, options=SimOptions.timing(fast=False))
    fast = simulate(program, machine, options=SimOptions.timing(fast=True))
    assert fast.fastpath.extrapolated_trips == 0
    lowered = _sim(program, machine).template.lowered
    plans = [node.plan for node in _nodes(lowered.body) if isinstance(node, _Call)]
    assert any(plan.message_count == 1 for plan in plans)
    assert fast.clocks.tobytes() == walk.clocks.tobytes()
    assert repr(fast.time) == repr(walk.time)
    fi, wi = fast.instrument, walk.instrument
    for field in (
        "compute_time",
        "comm_sw_time",
        "wait_time",
        "dynamic_comms",
        "messages",
        "bytes_moved",
    ):
        assert getattr(fi, field).tobytes() == getattr(wi, field).tobytes(), field
    assert fi.call_counts == wi.call_counts
    assert fi.reductions == wi.reductions
    assert fast.warnings == walk.warnings
    assert fast.scalars == walk.scalars


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
            op = sim.timing.bind_call(node.kind, node.plan, costs)
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
    base = machine_by_name("t3d", 64, "shmem")
    variants = [apply_overrides(base, {"net.latency": lat}) for lat in (1e-5, 4e-5)]
    sim = _sim(_tomcatv("pl"), pack_variants(variants))
    ops = list(_flatten(compile_schedule(sim).ops))
    assert ops and not any(map(_is_scalar_form, ops))


def _one_message_call(sim, kind):
    """The plan and bound costs of ``sim``'s first one-message ``kind`` call."""
    binder = _Binder(sim)
    for node in _nodes(sim.template.lowered.body):
        if isinstance(node, _Call) and node.kind is kind and node.plan.message_count == 1:
            return node.plan, binder.costs[kind][node.index]
    raise AssertionError(f"no one-message {kind} call")


def _fault(op):
    with pytest.raises(RuntimeFault) as exc:
        op()
    return str(exc.value)


@pytest.mark.parametrize("library", ["pvm", "shmem"])
def test_scalar_send_twice_raises_like_the_vector_op(library):
    program, machine = _tomcatv("pl"), machine_by_name("t3d", 64, library)
    scalar_sim, vector_sim = _sim(program, machine), _sim(program, machine)
    plan, costs = _one_message_call(scalar_sim, CallKind.SR)
    scalar = scalar_sim.timing.bind_call(CallKind.SR, plan, costs)
    vector = partial(vector_sim.timing.call_op(CallKind.SR), plan, costs)
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
    plan, costs = _one_message_call(scalar_sim, CallKind.DN)
    scalar = scalar_sim.timing.bind_call(CallKind.DN, plan, costs)
    assert _is_scalar_form(scalar)
    message = _fault(scalar)
    assert message == _fault(partial(vector_sim.timing.call_op(CallKind.DN), plan, costs))
    assert "before initiation" in message
