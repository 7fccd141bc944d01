"""The price table against the per-plan builder and per-message loops
it replaced.

:func:`repro.runtime.costs.price` prices every plan of a call kind's
:class:`~repro.runtime.costs.PlanTable` in one vectorized pass, for both
timing cores.  The builders below are the ones it replaced, kept
verbatim as the oracle: the per-plan ``call_costs`` builder, the scalar
per-plan caches (``prim_vectors``'s running sum, ``recv_sw_by_rank``,
``fixed_by_rank``) and the batched ``cumsum`` builders
(``_send_vectors``, ``_recv_vectors``, ``_fixed_table``).  The price
table of a program's plans, concatenated as a schedule template
concatenates them, must equal them bit for bit on every plan of the
corpus, at one variant and at sixteen, and on random cost models.
The builders read and return the variant-major layout they were written
for, so they are compared with the rank-major price table through one
small adapter (:func:`variant_major`).
"""

from __future__ import annotations

import dataclasses
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
from repro.machine.variants import PrimColumns
from repro.programs import BENCHMARKS, KERNELS, build_benchmark, small_config
from repro.runtime import ExecutionMode
from repro.runtime.costs import CallCosts, PlanTable, price
from repro.runtime.executor import _Simulation
from repro.runtime.grid import ProcessorGrid
from repro.runtime.layout import ProblemLayout
from repro.runtime.schedule import compile_schedule
from repro.runtime.transfers import PlanCache

# ---------------------------------------------------------------------------
# the oracle: the replaced builders, verbatim
# ---------------------------------------------------------------------------


def call_costs(plan, kind, matrix):
    pc = matrix.prims[matrix.base.binding.primitive(kind)]
    P = plan.nprocs
    rank_sw = cum_sw = wire = None
    if kind is CallKind.SR:
        cum_sw, rank_sw = _running_sums(pc.sw_matrix(plan.nbytes), plan)
        lat = matrix.net_raw if pc.raw_wire else matrix.net_latency
        wire = lat[:, None] + plan.nbytes[None, :] / matrix.net_bandwidth[:, None]
        calls = np.count_nonzero(rank_sw > 0, axis=1)
    else:
        # SV runs on the senders, DR and DN on the receivers; rendezvous
        # DR and DN charge their parameters directly
        sv = kind is CallKind.SV
        if sv or pc.sync is not SyncKind.RENDEZVOUS:
            per_message = (
                pc.sw_matrix(plan.nbytes)
                if kind is CallKind.DN
                else pc.fixed[:, None]
            )
            rank_sw = _totals(
                per_message, plan.senders if sv else plan.receivers, P
            )
        unique = plan.senders_unique if sv else plan.receivers_unique
        calls = np.full(matrix.nvariants, len(unique))
    return CallCosts(
        name=pc.name,
        sync=pc.sync,
        calls=calls,
        rank_sw=rank_sw,
        cum_sw=cum_sw,
        wire=wire,
        fixed=pc.fixed[:, None],
        spread_penalty=pc.spread_penalty[:, None],
        spread_cap=pc.spread_cap[:, None],
    )


def _totals(sw, ranks, nprocs):
    out = np.zeros((sw.shape[0], nprocs), dtype=np.float64)
    np.add.at(out, (slice(None), ranks), sw)
    return out


def _running_sums(sw, plan):
    senders = plan.senders
    first = np.empty(len(senders), dtype=bool)
    first[:1] = True
    np.not_equal(senders[1:], senders[:-1], out=first[1:])
    firsts = np.flatnonzero(first)
    run = np.cumsum(first) - 1  # each message's sender run
    place = np.arange(1, len(senders) + 1) - firsts[run]  # 1-based in it
    rows = np.zeros((sw.shape[0], len(firsts), int(place.max(initial=0)) + 1))
    rows[:, run, place] = sw
    rows = np.cumsum(rows, axis=2)
    totals = np.zeros((sw.shape[0], plan.nprocs), dtype=np.float64)
    totals[:, senders[firsts]] = rows[:, :, -1]
    return rows[:, run, place], totals


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


class _VariantMajorPrim(PrimColumns):
    """A primitive's columns whose ``sw_matrix`` is ``(V, M)``, as the
    oracles read it."""

    def sw_matrix(self, nbytes):
        return super().sw_matrix(nbytes).T


def oracle_matrix(matrix):
    """``matrix`` as the oracles read it."""
    prims = {name: _VariantMajorPrim(**vars(pc)) for name, pc in matrix.prims.items()}
    return dataclasses.replace(matrix, prims=prims)


def variant_major(costs):
    """Priced rank-major ``costs`` in the oracles' variant-major layout:
    arrays transposed, rendezvous rows as ``(V, 1)`` columns."""

    def transposed(a):
        return None if a is None else a.T

    return dataclasses.replace(
        costs,
        rank_sw=transposed(costs.rank_sw),
        cum_sw=transposed(costs.cum_sw),
        wire=transposed(costs.wire),
        fixed=costs.fixed[:, None],
        spread_penalty=costs.spread_penalty[:, None],
        spread_cap=costs.spread_cap[:, None],
    )


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
    """All variants against the batched ``cumsum`` builders, in their
    layout (:func:`variant_major`, :func:`oracle_matrix`)."""
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


def assert_same_costs(costs, expected):
    """Every field of two :class:`CallCosts` bitwise equal."""
    assert (costs.name, costs.sync) == (expected.name, expected.sync)
    for field in ("calls", "rank_sw", "cum_sw", "wire", "fixed", "spread_penalty", "spread_cap"):
        mine, theirs = getattr(costs, field), getattr(expected, field)
        assert (mine is None) == (theirs is None), field
        if mine is not None:
            assert np.asarray(mine).tobytes() == np.asarray(theirs).tobytes(), field
            assert np.shape(mine) == np.shape(theirs), field


def assert_price_table_matches(plans, machines, matrix=None, rows=None):
    """Each kind's price table over one table of all ``plans`` against the
    per-plan builder and the batched oracle on every variant, and
    against the scalar oracle on ``rows`` (default: every variant)."""
    matrix = matrix if matrix is not None else pack_variants(machines)
    oracle = oracle_matrix(matrix)
    rows = range(len(machines)) if rows is None else rows
    table = PlanTable(plans)
    for kind in CallKind:
        priced = price(table, kind, matrix)
        assert len(priced) == len(plans)
        for plan, costs in zip(plans, priced):
            assert_same_costs(variant_major(costs), call_costs(plan, kind, oracle))
            assert_matches_batched_oracle(plan, kind, variant_major(costs), oracle)
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
def _mesh_plans(name):
    """The plans of ``name`` under the six keys, one tuple per mesh (4x4
    and 8x8), one plan per distinct signature: pricing reads nothing
    else of a plan."""
    meshes = []
    for rows, cols in ((4, 4), (8, 8)):
        plans = {}
        for key in EXPERIMENT_KEYS:
            program = build_benchmark(
                name, config=small_config(name), opt=experiment_spec(key).opt
            )
            domains = {array: dom for array, (dom, _) in program.arrays.items()}
            layout = ProblemLayout(ProcessorGrid(rows, cols), domains)
            cache = PlanCache(layout, rows * cols)
            for desc in program.all_descriptors():
                plan = cache.plan(desc)
                plans.setdefault(plan.signature, plan)
        meshes.append(tuple(plans.values()))
    return tuple(meshes)


def _corpus_plans(name):
    return tuple(plan for plans in _mesh_plans(name) for plan in plans)


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_costs_match_oracle(name):
    """Each mesh's plans of one program priced as one table per call
    kind, the way a schedule template prices them."""
    for plans in _mesh_plans(name):
        assert any(plan.message_count for plan in plans)
        for base in BASES:
            assert_price_table_matches(plans, [base])
        # sixteen variants: every row against the batched oracle, a row
        # per kind of variant against the scalar one
        for base in BASES[:3]:
            machines = [apply_overrides(base, o) for o in VARIANTS]
            assert_price_table_matches(plans, machines, rows=(1, 6, 7, 11, 15))


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


def _tables(priced):
    """The price tables behind ``priced``, by field: every plan's array
    is a C-contiguous view of its field's one table."""
    tables = {}
    for field in ("rank_sw", "cum_sw", "wire"):
        arrays = [getattr(costs, field) for costs in priced]
        if arrays[0] is not None:
            table = tables[field] = arrays[0].base
            assert table is not None, field
            for a in arrays:
                assert a.flags.c_contiguous and a.base is table, field
    return tables


@pytest.mark.parametrize("nvariants", [1, 16])
def test_each_plan_is_priced_contiguous(nvariants):
    """A core binds a plan's cost arrays as priced, at any variant
    count: a plan's ``(P, V)`` totals are one slice of the table's ``(n,
    P, V)`` buffer, and SR's ``(M_i, V)`` per-message arrays slices of
    one ``(M, V)`` table each, so every one is a view, not a copy."""
    (plans, _) = _mesh_plans("simple")
    table = PlanTable(plans)
    for base in BASES:
        matrix = pack_variants([apply_overrides(base, o) for o in VARIANTS[:nvariants]])
        for kind in CallKind:
            tables = _tables(price(table, kind, matrix))
            assert kind is not CallKind.SR or set(tables) == {"rank_sw", "cum_sw", "wire"}
            for field, buffer in tables.items():
                rows = (len(plans), 16) if field == "rank_sw" else (table.bounds[-1],)
                assert buffer.shape == (*rows, nvariants), field


def test_batched_schedule_binds_the_price_tables():
    """A batched run binds each plan's priced arrays themselves, not
    copies: every bound array shares memory with its kind's price
    table."""
    program = build_benchmark(
        "simple", config=small_config("simple"), opt=experiment_spec("pl").opt
    )
    machines = [apply_overrides(t3d(16, "shmem"), o) for o in VARIANTS[:4]]
    sim = _Simulation(program, pack_variants(machines), ExecutionMode.TIMING, None, fast=True)
    bound = compile_schedule(sim).costs
    assert CallKind.SR in bound
    for priced in bound.values():
        for field in ("rank_sw", "cum_sw", "wire"):
            arrays = [getattr(costs, field) for costs in priced]
            if arrays[0] is not None:
                table = arrays[0].base
                assert all(np.shares_memory(a, table) for a in arrays if a.size), field


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
    for nprocs in sorted({p.nprocs for p in _PLANS}):
        plans = [p for p in _PLANS if p.nprocs == nprocs]
        assert_price_table_matches(plans, machines)
