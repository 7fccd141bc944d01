"""Per-receiver in-flight state against the scatter forms it replaced.

An SR used to scatter each message's arrival into a full-length vector
of ``-inf`` with ``np.maximum.at``, a rendezvous SR scattered each
message's DR flag into its sender's slot the same way, and
``Instrumentation.record_transfer`` counted a transfer with a masked
``+= 1`` and two ``np.add.at``.  Those forms are kept below as the
oracle.  The timing cores now keep each receiver's latest arrival and
each receiver's DR flag as a block over ``plan.receivers_unique``,
merged through the plan's :attr:`~repro.runtime.transfers.TransferPlan.grouping`,
and count a transfer by adding its ``count_block``.  Each block must
equal the oracle's entries on the block's ranks bit for bit, and the
oracle must hold nothing but ``-inf`` elsewhere, on every plan of the
corpus at one variant (the scalar core's 1-D arrays) and at sixteen.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.experiments_registry import EXPERIMENT_KEYS, experiment_spec
from repro.programs import BENCHMARKS, KERNELS, build_benchmark, small_config
from repro.runtime.grid import ProcessorGrid
from repro.runtime.instrument import Instrumentation
from repro.runtime.layout import ProblemLayout
from repro.runtime.timing import _per_receiver, _per_sender
from repro.runtime.transfers import PlanCache, TransferPlan

# ---------------------------------------------------------------------------
# the oracle: the replaced scatter forms
# ---------------------------------------------------------------------------


def scatter_arrivals(times, plan):
    """Per-message arrivals ``(..., M)`` scattered to ``(..., P)``."""
    out = np.full(times.shape[:-1] + (plan.nprocs,), -np.inf)
    if times.ndim == 1:
        np.maximum.at(out, plan.receivers, times)
    else:
        rows = np.arange(times.shape[0])[:, None]
        np.maximum.at(out, (rows, plan.receivers[None, :]), times)
    return out


def scatter_flags(dr, plan, raw):
    """A full-length DR flag ``dr`` (a copy of the clock) scattered to the
    senders after crossing the wire."""
    out = np.full(dr.shape, -np.inf)
    if dr.ndim == 1:
        np.maximum.at(out, plan.senders, dr[plan.receivers] + raw)
    else:
        rows = np.arange(dr.shape[0])[:, None]
        np.maximum.at(
            out, (rows, plan.senders[None, :]), dr[:, plan.receivers] + raw
        )
    return out


def scatter_counts(inst, plan):
    if plan.message_count == 0:
        return
    inst.dynamic_comms[plan.participants] += 1
    np.add.at(inst.messages, plan.senders, 1)
    np.add.at(inst.bytes_moved, plan.senders, plan.nbytes)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def assert_block(block, scattered, ranks):
    """``block`` is ``scattered`` on ``ranks`` bit for bit, and
    ``scattered`` is ``-inf`` on every other rank."""
    expected = scattered[..., ranks]
    assert block.shape == expected.shape
    assert block.tobytes() == expected.tobytes()
    rest = np.delete(scattered, ranks, axis=-1)
    assert np.isneginf(rest).all()


def assert_plan_matches_oracle(plan, rng, variants):
    shape = (variants,) if variants > 1 else ()
    m, p = plan.message_count, plan.nprocs
    # continuous draws, and coarse ones whose maxima tie
    for times in (
        rng.random(shape + (m,)),
        rng.integers(0, 3, shape + (m,)) * 0.25,
    ):
        assert_block(
            _per_receiver(times, plan),
            scatter_arrivals(times, plan),
            plan.receivers_unique,
        )
    raw = rng.random(shape + (1,)) if variants > 1 else float(rng.random())
    for clock in (rng.random(shape + (p,)), rng.integers(0, 3, shape + (p,)) * 0.5):
        assert_block(
            _per_sender(clock[..., plan.receivers_unique], plan, raw),
            scatter_flags(clock, plan, raw),
            plan.senders_unique,
        )


def assert_counts_match_oracle(plan):
    inst, oracle = Instrumentation(plan.nprocs), Instrumentation(plan.nprocs)
    for _ in range(2):
        inst.record_transfer(plan)
        scatter_counts(oracle, plan)
    assert inst.counts.dtype == np.int64
    assert np.array_equal(inst.counts, oracle.counts)
    for name in ("dynamic_comms", "messages", "bytes_moved"):
        assert np.array_equal(getattr(inst, name), getattr(oracle, name)), name


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------

CORPUS = BENCHMARKS + KERNELS + tuple(f"gen_{s}" for s in range(8))


@lru_cache(maxsize=None)
def _plans(name, rows, cols):
    """The distinct plans of ``name`` compiled under each distinct
    optimization of the six keys, on a ``rows x cols`` mesh, one per
    geometry: the paper programs at paper scale, the rest small."""
    config = None if name in BENCHMARKS else small_config(name)
    plans = {}
    for opt in dict.fromkeys(experiment_spec(key).opt for key in EXPERIMENT_KEYS):
        program = build_benchmark(name, config=config, opt=opt)
        domains = {array: dom for array, (dom, _) in program.arrays.items()}
        cache = PlanCache(ProblemLayout(ProcessorGrid(rows, cols), domains), rows * cols)
        for desc in program.all_descriptors():
            plans.setdefault(cache._geometry_key(desc), cache.plan(desc))
    return tuple(plans.values())


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_blocks_match_oracle(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    for mesh in ((4, 4), (8, 8)):
        for plan in _plans(name, *mesh):
            for variants in (1, 16):
                assert_plan_matches_oracle(plan, rng, variants)
            assert_counts_match_oracle(plan)


def test_paper_plans_with_fan_in_are_the_out_of_order_ones():
    """On t3d/64 the paper study's 150 distinct plans (its 646
    descriptors share them by geometry) include 30 in which some
    receiver gets three messages; those are exactly the plans whose
    messages are not in receiver order."""
    plans = [plan for name in BENCHMARKS for plan in _plans(name, 8, 8)]
    assert len({id(p) for p in plans}) == len(plans)
    fan_in = {id(p) for p in plans if p.grouping.fan_in is not None}
    out_of_order = {id(p) for p in plans if p.grouping.order is not None}
    assert (len(fan_in), len(plans)) == (30, 150)
    assert fan_in == out_of_order
    widest = {int(np.bincount(p.receivers).max()) for p in plans if p.message_count}
    assert widest == {1, 3}


# ---------------------------------------------------------------------------
# constructed plans: two- and three-message fan-in, ties, messages out of
# receiver order, a self-message
# ---------------------------------------------------------------------------


def constructed(messages, nprocs):
    """A plan with ``(sender, receiver, nbytes)`` messages, held in
    (sender, receiver) order as :class:`TransferPlan` holds them."""
    plan = object.__new__(TransferPlan)
    senders, receivers, nbytes = (
        np.array(column, dtype=np.int64)
        for column in list(zip(*sorted(messages))) or [(), (), ()]
    )
    plan.nprocs = nprocs
    plan.senders, plan.receivers, plan.nbytes = senders, receivers, nbytes
    plan.senders_unique = np.unique(senders)
    plan.receivers_unique = np.unique(receivers)
    plan.participants = np.isin(np.arange(nprocs), np.concatenate((senders, receivers)))
    return plan


CONSTRUCTED = {
    "fan_in_2": [(0, 3, 8), (1, 3, 16), (2, 4, 8)],
    "fan_in_3_out_of_order": [
        (0, 5, 8),
        (1, 2, 8),
        (2, 5, 24),
        (3, 2, 8),
        (4, 0, 40),
        (4, 5, 8),
    ],
    "permutation": [(0, 1, 8), (1, 0, 8), (2, 3, 16), (3, 2, 16)],
    "self_message": [(2, 2, 8), (2, 3, 8), (3, 2, 8), (5, 2, 16)],
}


@pytest.mark.parametrize("messages", CONSTRUCTED.values(), ids=CONSTRUCTED.keys())
def test_constructed_blocks_match_oracle(messages):
    plan = constructed(messages, 6)
    rng = np.random.default_rng(len(messages))
    for _ in range(20):
        for variants in (1, 16):
            assert_plan_matches_oracle(plan, rng, variants)
    assert_counts_match_oracle(plan)


def test_constructed_groupings():
    """The grouping of the three-message fan-in, spelled out."""
    plan = constructed(CONSTRUCTED["fan_in_3_out_of_order"], 6)
    # (0,5) (1,2) (2,5) (3,2) (4,0) (4,5): receivers 0, 2, 5
    order, fan_in, slots, sender_runs = plan.grouping
    assert order.tolist() == [4, 1, 3, 0, 2, 5]
    assert fan_in.tolist() == [0, 1, 3]
    assert slots.tolist() == [2, 1, 2, 1, 0, 2]
    assert sender_runs.tolist() == [0, 1, 2, 3, 4]
    assert plan.count_block.tolist() == [
        [1, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, 2, 0],
        [8, 8, 24, 8, 48, 0],
    ]
    # tied arrivals merge to the tied value
    times = np.array([1.0, 2.0, 1.0, 0.5, 3.0, 1.0])
    assert _per_receiver(times, plan).tolist() == [3.0, 2.0, 1.0]


def test_trivial_groupings_are_none():
    """One message per rank in receiver order needs no merging."""
    plan = constructed([(0, 1, 8), (1, 2, 8), (2, 3, 8)], 4)
    assert plan.grouping == (None, None, None, None)
    times = np.array([0.1, 0.2, 0.3])
    assert _per_receiver(times, plan) is times
    empty = constructed([], 2)
    assert empty.grouping == (None, None, None, None)
    assert empty.count_block is None
