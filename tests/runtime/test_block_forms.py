"""The batched core's block forms.

``BatchTimingEngine.bind_call`` binds every SR, DN, DR and SV call to a
*block form*: a closure that does the scalar core's IEEE operations in
the scalar core's order, elementwise over the variants.  Their oracle is
the scalar core, through ``simulate_many`` rows against ``simulate``
runs: here over the paper programs and kernels under every distinct
optimization of the paper's keys and ``gen_0..7`` at baseline and pl,
under every IRONMAN binding and a spread of cost variants (cases of the
engine-parity harness, ``tests/runtime/test_parity.py``, whose runs they
read), and on SHMEM over the variants without a spread surcharge alone,
whose rendezvous DN binds the form that skips the surcharge arithmetic.
Each binding binds its forms, so every form is reached, the
Paragon ``nx_async``/``nx_callback`` DR and SV fixed charges included;
and the faults a block form raises are the scalar core's.
"""

import pytest

from repro import ExecutionMode, simulate_many
from repro.errors import RuntimeFault
from repro.ironman.calls import CallKind
from repro.machine import pack_variants, t3d
from repro.programs import BENCHMARKS, KERNELS
from repro.runtime.executor import _Simulation
from repro.runtime.schedule import _Binder, _Call, compile_schedule
from tests.runtime.test_parity import (
    BINDINGS,
    DIVERSE_OVERRIDES,
    KEYS,
    VARIANTS,
    _variants,
    assert_corpus_rows,
    assert_same_row,
    corpus_program,
    corpus_runs,
)
from tests.runtime.test_single_rank import _nodes, _tomcatv
from tests.runtime.test_template import BLOCK_FORMS, _flatten

#: 51 programs: 7 under 5 optimizations, 8 generated at baseline and pl
CASES = [(name, key) for name in BENCHMARKS + KERNELS for key in KEYS] + [
    (f"gen_{seed}", key) for seed in range(8) for key in ("baseline", "pl")
]


def test_corpus_reaches_every_distinct_optimization():
    assert KEYS == ("baseline", "rr", "cc", "pl", "pl_maxlat")
    assert len(CASES) == 51


#: the variants without a spread surcharge: batched alone on SHMEM, their
#: rendezvous DN binds the form that skips the surcharge arithmetic
NO_PENALTY = [
    v for v, o in enumerate(DIVERSE_OVERRIDES) if "prim.*.spread_penalty" not in o
]


@pytest.mark.parametrize("name, key", CASES, ids=lambda x: x)
def test_batched_rows_equal_scalar_runs(name, key):
    """Every row of ``simulate_many`` under each binding and the six
    variants is the scalar run of that variant, bit for bit, and so is
    every row of the SHMEM batch of the variants without a spread
    surcharge."""
    for library in VARIANTS:
        assert_corpus_rows(name, key, library)
    _, scalars = corpus_runs(name, key, "shmem")
    variants = [VARIANTS["shmem"][v] for v in NO_PENALTY]
    run = simulate_many(corpus_program(name, key), variants)
    for row, v in enumerate(NO_PENALTY):
        assert_same_row(run, row, scalars[v], f"{name} {key} on shmem variant {v}")


def _bound_forms(program, base):
    """The names of the call ops a two-variant batched run of
    ``program`` on ``base`` binds."""
    variants = _variants(base, DIVERSE_OVERRIDES[:2])
    sim = _Simulation(program, pack_variants(variants), ExecutionMode.TIMING, None, fast=True)
    names = set()
    for op in _flatten(compile_schedule(sim).ops):
        name = getattr(op, "__name__", None)
        if name in BLOCK_FORMS:
            names.add(name)
    return names


@pytest.mark.parametrize(
    "base, forms",
    [
        (BINDINGS[0], {"send_block", "complete_block"}),
        (BINDINGS[1], {"send_block", "complete_block", "pre_block"}),
        (BINDINGS[2], {"send_block", "complete_block"}),
        (BINDINGS[3], set(BLOCK_FORMS)),
        (BINDINGS[4], set(BLOCK_FORMS)),
    ],
    ids=lambda x: getattr(x, "library", None),
)
def test_every_binding_binds_its_forms(base, forms):
    """DR and SV bound to ``noop`` bind nothing; every other call binds
    its kind's block form, so the corpus above runs each form."""
    assert _bound_forms(corpus_program("simple", "pl"), base) == forms


# ---------------------------------------------------------------------------
# faults
# ---------------------------------------------------------------------------


def _sims(library):
    """A two-variant batched run and a scalar run of TOMCATV ``pl`` on
    t3d/64, whose calls move one message or several."""
    program, base = _tomcatv("pl"), t3d(64, library)
    variants = pack_variants(_variants(base, DIVERSE_OVERRIDES[:2]))
    return tuple(
        _Simulation(program, target, ExecutionMode.TIMING, None, fast=True)
        for target in (variants, base)
    )


def _bind(sim, kind, one):
    """``sim``'s op for its first ``kind`` call on a plan with one
    message (``one``) or several, the call's descriptor and the plan."""
    binder = _Binder(sim)
    for node in _nodes(sim.template.lowered.body):
        if isinstance(node, _Call) and node.kind is kind:
            if (node.plan.message_count == 1) == one:
                costs = binder.costs[kind][node.index]
                op = sim.timing.bind_call(kind, node.desc, node.plan, costs)
                return op, node.desc, node.plan
    raise AssertionError(f"no {kind} call")


def _fault(op):
    with pytest.raises(RuntimeFault) as exc:
        op()
    return str(exc.value)


@pytest.mark.parametrize("one", [True, False], ids=["one", "many"])
@pytest.mark.parametrize("library", ["pvm", "shmem"])
def test_send_twice_raises_the_scalar_fault(library, one):
    batched, scalar = _sims(library)
    (block, desc, _), (op, *_) = _bind(batched, CallKind.SR, one), _bind(scalar, CallKind.SR, one)
    assert block.__name__ == "send_block"
    block()
    op()
    message = _fault(block)
    assert message == _fault(op)
    assert f"transfer {desc.describe()} initiated twice" in message


@pytest.mark.parametrize("one", [True, False], ids=["one", "many"])
@pytest.mark.parametrize("library", ["pvm", "shmem"])
def test_complete_before_send_raises_the_scalar_fault(library, one):
    batched, scalar = _sims(library)
    (block, desc, _), (op, *_) = _bind(batched, CallKind.DN, one), _bind(scalar, CallKind.DN, one)
    assert block.__name__ == "complete_block"
    message = _fault(block)
    assert message == _fault(op)
    assert f"completion of {desc.describe()} before initiation" in message


def test_unconsumed_flag_fails_quiescence():
    """A rendezvous DR posts an ``(R, V)`` flag block; a run that never
    sends on it fails the end-of-run check with the scalar core's text."""
    batched, scalar = _sims("shmem")
    messages = []
    for sim in (batched, scalar):
        op, desc, plan = _bind(sim, CallKind.DR, False)
        sim.timing.assert_quiescent()
        op()
        messages.append(_fault(sim.timing.assert_quiescent))
    assert batched.timing._dr_times[desc.id].shape == (len(plan.receivers_unique), 2)
    assert messages[0] == messages[1]
    assert "1 destination-ready flag(s) posted but never consumed" in messages[0]
