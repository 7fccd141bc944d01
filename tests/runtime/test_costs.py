"""The one cost builder against the per-message loops it replaced.

:func:`repro.runtime.costs.call_costs` builds every IRONMAN call's cost
arrays for both timing cores.  The loops below are the builders it
replaced, kept verbatim as the oracle: the scalar per-plan caches
(``prim_vectors``'s running sum, ``recv_sw_by_rank``, ``fixed_by_rank``)
and the batched ``cumsum`` builders (``_send_vectors``,
``_recv_vectors``, ``_fixed_table``).  The builder must equal them bit
for bit on every plan of the corpus, at one variant and at sixteen, and
on random cost models.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments_registry import EXPERIMENT_KEYS, experiment_spec
from repro.ironman.calls import CallKind
from repro.machine import apply_overrides, pack_variants, paragon, t3d
from repro.machine.params import SyncKind
from repro.programs import BENCHMARKS, KERNELS, build_benchmark, small_config
from repro.runtime.costs import call_costs
from repro.runtime.grid import ProcessorGrid
from repro.runtime.layout import ProblemLayout
from repro.runtime.transfers import PlanCache

# ---------------------------------------------------------------------------
# the oracle: the replaced builders, verbatim
# ---------------------------------------------------------------------------


def prim_vectors(plan, prim, network):
    sw = np.fromiter(
        (prim.sw(int(b)) for b in plan.nbytes),
        dtype=np.float64,
        count=len(plan.nbytes),
    )
    cum_sw = np.zeros_like(sw)
    total = np.zeros(plan.nprocs, dtype=np.float64)
    for i, s in enumerate(plan.senders):
        total[s] += sw[i]
        cum_sw[i] = total[s]
    wire = np.fromiter(
        (
            network.transfer_time(int(b), raw_wire=prim.raw_wire)
            for b in plan.nbytes
        ),
        dtype=np.float64,
        count=len(plan.nbytes),
    )
    return SimpleNamespace(
        cum_sw=cum_sw,
        total_sw_by_rank=total,
        wire=wire,
        callers=int((total > 0).sum()),
    )


def recv_sw_by_rank(plan, prim):
    out = np.zeros(plan.nprocs, dtype=np.float64)
    for i, r in enumerate(plan.receivers):
        out[r] += prim.sw(int(plan.nbytes[i]))
    return out


def fixed_by_rank(plan, role, fixed):
    out = np.zeros(plan.nprocs, dtype=np.float64)
    np.add.at(out, plan.receivers if role == "recv" else plan.senders, fixed)
    return out


def _send_vectors(plan, pc, matrix):
    sw = pc.sw_matrix(plan.nbytes)
    cum = np.empty_like(sw)
    total = np.zeros((sw.shape[0], plan.nprocs), dtype=np.float64)
    for s in plan.senders_unique:
        idx = np.flatnonzero(plan.senders == s)
        cs = np.cumsum(sw[:, idx], axis=1)
        cum[:, idx] = cs
        total[:, int(s)] = cs[:, -1]
    lat = matrix.net_raw if pc.raw_wire else matrix.net_latency
    wire = (
        lat[:, None] + plan.nbytes[None, :] / matrix.net_bandwidth[:, None]
    )
    return cum, total, wire


def _recv_vectors(plan, pc):
    sw = pc.sw_matrix(plan.nbytes)
    out = np.zeros((sw.shape[0], plan.nprocs), dtype=np.float64)
    for r in plan.receivers_unique:
        idx = np.flatnonzero(plan.receivers == r)
        out[:, int(r)] = np.cumsum(sw[:, idx], axis=1)[:, -1]
    return out


def _fixed_table(plan, role, fixed):
    idx = plan.receivers if role == "recv" else plan.senders
    counts = np.bincount(idx, minlength=plan.nprocs)
    table = np.zeros((fixed.shape[0], int(counts.max()) + 1), dtype=np.float64)
    for k in range(1, table.shape[1]):
        table[:, k] = table[:, k - 1] + fixed
    return table[:, counts]


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def same(a, b) -> bool:
    """Bitwise equality of two float arrays."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_scalar_oracle(plan, kind, costs, machine):
    """One variant's row against the scalar per-plan caches."""
    prim = machine.primitive(machine.binding.primitive(kind))
    assert costs.name == prim.name
    if kind is CallKind.SR:
        vecs = prim_vectors(plan, prim, machine.network)
        assert same(costs.cum_sw, vecs.cum_sw)
        assert same(costs.rank_sw, vecs.total_sw_by_rank)
        assert same(costs.wire, vecs.wire)
        assert costs.calls == vecs.callers
        return
    if kind is CallKind.SV:
        assert same(costs.rank_sw, fixed_by_rank(plan, "send", prim.fixed))
        assert costs.calls == len(plan.senders_unique)
        return
    assert costs.calls == len(plan.receivers_unique)
    if prim.sync is SyncKind.RENDEZVOUS:
        assert costs.rank_sw is None
        assert (costs.fixed, costs.spread_penalty, costs.spread_cap) == (
            prim.fixed,
            prim.spread_penalty,
            prim.spread_cap,
        )
    elif kind is CallKind.DN:
        assert same(costs.rank_sw, recv_sw_by_rank(plan, prim))
    else:
        assert same(costs.rank_sw, fixed_by_rank(plan, "recv", prim.fixed))


def assert_matches_batched_oracle(plan, kind, costs, matrix):
    """All variants against the batched ``cumsum`` builders."""
    pc = matrix.prims[matrix.base.binding.primitive(kind)]
    if kind is CallKind.SR:
        cum, total, wire = _send_vectors(plan, pc, matrix)
        assert same(costs.cum_sw, cum)
        assert same(costs.rank_sw, total)
        assert same(costs.wire, wire)
    elif kind is CallKind.SV:
        assert same(costs.rank_sw, _fixed_table(plan, "send", pc.fixed))
    elif pc.sync is SyncKind.RENDEZVOUS:
        assert same(costs.fixed, pc.fixed[:, None])
        assert same(costs.spread_penalty, pc.spread_penalty[:, None])
        assert same(costs.spread_cap, pc.spread_cap[:, None])
    elif kind is CallKind.DN:
        assert same(costs.rank_sw, _recv_vectors(plan, pc))
    else:
        assert same(costs.rank_sw, _fixed_table(plan, "recv", pc.fixed))


def assert_builder_matches(plan, machines, matrix=None, rows=None):
    """The builder against the batched oracle on every variant, and
    against the scalar oracle on ``rows`` (default: every variant)."""
    matrix = matrix if matrix is not None else pack_variants(machines)
    rows = range(len(machines)) if rows is None else rows
    for kind in CallKind:
        costs = call_costs(plan, kind, matrix)
        assert_matches_batched_oracle(plan, kind, costs, matrix)
        for v in rows:
            assert_matches_scalar_oracle(plan, kind, costs.row(v), machines[v])


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------

CORPUS = BENCHMARKS + KERNELS + tuple(f"gen_{s}" for s in range(8))

#: every IRONMAN binding: t3d message passing and SHMEM (raw wire,
#: rendezvous DR/DN), and the three Paragon NX bindings
BASES = (
    t3d(16, "pvm"),
    t3d(16, "shmem"),
    paragon(16, "nx"),
    paragon(16, "nx_async"),
    paragon(16, "nx_callback"),
)

#: sixteen cost variants: knees below, inside and above the corpus's
#: message sizes, zero costs, and moved wires
VARIANTS = [
    {},
    {"prim.*.knee_bytes": 0, "prim.*.per_byte_beyond": 1e-6},
    {"prim.*.knee_bytes": 8, "prim.*.per_byte_beyond": 3e-7},
    {"prim.*.knee_bytes": 64, "prim.*.per_byte": 2e-9},
    {"prim.*.knee_bytes": 1 << 20, "prim.*.per_byte_beyond": 1e-5},
    {"prim.*.fixed": 0.0},
    {"prim.*.fixed": 0.0, "prim.*.per_byte": 0.0, "prim.*.per_byte_beyond": 0.0},
    {"prim.*.fixed": 8e-5, "prim.*.spread_penalty": 5e-6},
    {"prim.*.spread_cap": 0.0},
    {"net.latency": 1e-6, "net.bandwidth": 5e7},
    {"net.latency": 0.0},
    {"net.raw_latency": 9e-5},
    {"net.bandwidth": 3.3e5},
    {"prim.*.per_byte": 1e-8, "prim.*.knee_bytes": 100, "net.bandwidth": 1e9},
    {"prim.*.fixed": 1.234567e-5, "prim.*.per_byte_beyond": 7.77e-8},
    {"prim.*.knee_bytes": 31, "prim.*.per_byte_beyond": 1.1e-6, "net.raw_latency": 0.0},
]


@lru_cache(maxsize=None)
def _corpus_plans(name):
    """The plans of ``name`` under the six keys on the 4x4 and 8x8
    meshes, one per distinct signature: the builder reads nothing else
    of a plan."""
    plans = {}
    for key in EXPERIMENT_KEYS:
        program = build_benchmark(
            name, config=small_config(name), opt=experiment_spec(key).opt
        )
        domains = {array: dom for array, (dom, _) in program.arrays.items()}
        for rows, cols in ((4, 4), (8, 8)):
            layout = ProblemLayout(ProcessorGrid(rows, cols), domains)
            cache = PlanCache(layout, rows * cols)
            for desc in program.all_descriptors():
                plan = cache.plan(desc)
                plans.setdefault(plan.signature, plan)
    return tuple(plans.values())


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_costs_match_oracle(name):
    plans = _corpus_plans(name)
    assert any(plan.message_count for plan in plans)
    for base in BASES:
        matrix = pack_variants([base])
        for plan in plans:
            assert_builder_matches(plan, [base], matrix)
    # sixteen variants: every row against the batched oracle, a row per
    # kind of variant against the scalar one
    for base in BASES[:3]:
        machines = [apply_overrides(base, o) for o in VARIANTS]
        matrix = pack_variants(machines)
        for plan in plans:
            assert_builder_matches(plan, machines, matrix, rows=(1, 6, 7, 11, 15))


def test_corpus_reaches_multi_message_senders_and_receivers():
    """The running sums and receive totals are exercised past one
    message per rank."""
    plans = [p for name in BENCHMARKS for p in _corpus_plans(name)]
    assert any(
        np.bincount(p.senders).max() > 1 for p in plans if p.message_count
    )
    assert any(
        np.bincount(p.receivers).max() > 1 for p in plans if p.message_count
    )


# ---------------------------------------------------------------------------
# random cost models
# ---------------------------------------------------------------------------

_TOMCATV = [p for p in _corpus_plans("tomcatv") if p.message_count]
#: tomcatv plans where a rank sends or receives several messages, and
#: the plans with its largest messages
_PLANS = [
    p
    for p in _TOMCATV
    if max(np.bincount(p.senders).max(), np.bincount(p.receivers).max()) > 1
][:6] + sorted(_TOMCATV, key=lambda p: int(p.nbytes.max()))[-4:]
_MAX_BYTES = max(int(p.nbytes.max()) for p in _PLANS)

_time = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=1e-3).map(abs)
)
_rate = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=1e-6).map(abs)
)


@st.composite
def cost_models(draw):
    """One to three cost variants of one base machine, with knees drawn
    below, among and above the plans' message sizes."""
    base = draw(st.sampled_from(BASES))
    machines = []
    for _ in range(draw(st.integers(1, 3))):
        overrides = {
            "prim.*.fixed": draw(_time),
            "prim.*.per_byte": draw(_rate),
            "prim.*.knee_bytes": draw(st.integers(0, 2 * _MAX_BYTES)),
            "prim.*.per_byte_beyond": draw(_rate),
            "prim.*.spread_penalty": draw(_time),
            "prim.*.spread_cap": draw(_time),
            "net.latency": draw(_time),
            "net.raw_latency": draw(_time),
            "net.bandwidth": draw(st.floats(min_value=1e3, max_value=1e10)),
        }
        machines.append(apply_overrides(base, overrides))
    return machines


@given(cost_models())
def test_random_cost_models_match_oracle(machines):
    for plan in _PLANS:
        assert_builder_matches(plan, machines)
