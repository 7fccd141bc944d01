"""Property-based tests of the runtime substrate (layout + timing)."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import ExecutionMode, OptimizationConfig, compile_program, simulate, t3d
from repro.errors import RuntimeFault
from repro.lang.regions import Region
from repro.machine.variants import pack_variants
from repro.runtime.grid import ProcessorGrid
from repro.runtime.instrument import Instrumentation
from repro.runtime.layout import ProblemLayout, split_extent
from repro.runtime.timing import BatchTimingEngine, TimingEngine
from repro.runtime.transfers import TransferPlan
from tests.runtime.test_arrivals import assert_plan_matches_oracle, constructed
from tests.runtime.test_plan_oracle import plan_cases


@given(
    lo=st.integers(-50, 50),
    size=st.integers(0, 200),
    parts=st.integers(1, 16),
)
def test_split_extent_partitions_exactly(lo, size, parts):
    hi = lo + size - 1
    pieces = split_extent(lo, hi, parts)
    assert len(pieces) == parts
    total = sum(max(0, h - l + 1) for l, h in pieces)
    assert total == max(0, size)
    # contiguous and ordered
    cursor = lo
    for l, h in pieces:
        if h >= l:
            assert l == cursor
            cursor = h + 1
    # balanced: sizes differ by at most one
    sizes = [max(0, h - l + 1) for l, h in pieces]
    assert max(sizes) - min(sizes) <= 1


@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    n=st.integers(4, 24),
)
@settings(max_examples=60)
def test_every_cell_has_exactly_one_owner(rows, cols, n):
    grid = ProcessorGrid(rows, cols)
    domain = Region("R", (1, 1), (n, n))
    layout = ProblemLayout(grid, {"A": domain})
    covered = np.zeros((n, n), dtype=int)
    for p in grid.ranks():
        owned = layout.owned(2, p).intersect(domain)
        if not owned.is_empty:
            covered[owned.slices_within(domain.lows)] += 1
    assert (covered == 1).all()


_SRC = """
program p;
config n : integer = 12;
config k : integer = 2;
region R  = [1..n, 1..n];
region In = [2..n-1, 2..n-1];
direction east = [0, 1];
direction south = [1, 0];
var A, B : [R] double;
procedure main();
begin
  [R] A := index1 + 0.3 * index2;
  for t := 1 to k do
    [In] B := A@east + A@south;
    [In] A := A * 0.75 + B * 0.125;
  end;
end;
"""


@given(nprocs=st.sampled_from([1, 2, 4, 9, 16]))
@settings(max_examples=10, deadline=None)
def test_numerics_independent_of_mesh(nprocs):
    prog = compile_program(_SRC, "p.zl", opt=OptimizationConfig.full())
    single = simulate(prog, t3d(1), ExecutionMode.NUMERIC).array("A")
    multi = simulate(prog, t3d(nprocs), ExecutionMode.NUMERIC).array("A")
    assert np.allclose(single, multi, rtol=1e-13, atol=1e-13)


@given(nprocs=st.sampled_from([2, 4, 16]))
@settings(max_examples=6, deadline=None)
def test_time_deterministic_per_mesh(nprocs):
    prog = compile_program(_SRC, "p.zl", opt=OptimizationConfig.full())
    a = simulate(prog, t3d(nprocs), ExecutionMode.TIMING).time
    b = simulate(prog, t3d(nprocs), ExecutionMode.TIMING).time
    assert a == b


# ---------------------------------------------------------------------------
# the layered merges against the scatter oracle
# ---------------------------------------------------------------------------


@st.composite
def message_plans(draw):
    """Arbitrary (sender, receiver) pairs on up to eight ranks: any
    fan-in, receivers in any order, self-messages."""
    nprocs = draw(st.integers(1, 8))
    rank = st.integers(0, nprocs - 1)
    pairs = draw(st.lists(st.tuples(rank, rank), min_size=1, max_size=24, unique=True))
    return constructed([(s, r, 8) for s, r in pairs], nprocs)


@st.composite
def geometric_plans(draw):
    """A plan of a random layout and descriptor that builds without a
    fault: diagonal offsets fan in several messages per receiver, out of
    receiver order, and periodic ones fold."""
    desc, layout = draw(plan_cases())
    try:
        return TransferPlan(desc, layout, layout.grid.nprocs)
    except RuntimeFault:
        assume(False)


@given(
    plan=st.one_of(message_plans(), geometric_plans()),
    seed=st.integers(0, 2**32 - 1),
    variants=st.sampled_from([1, 2, 16]),
)
@settings(deadline=None)
def test_layered_merges_equal_the_scatter_oracle(plan, seed, variants):
    """Each receiver's latest arrival and each sender's latest DR flag,
    merged over the plan's layers, equal the replaced scatter forms bit
    for bit, on 1-D ``(M,)`` and rank-major ``(M, V)`` blocks."""
    assert_plan_matches_oracle(plan, np.random.default_rng(seed), variants)


# ---------------------------------------------------------------------------
# the batched epoch fold against V scalar folds
# ---------------------------------------------------------------------------

#: few distinct advances, so consecutive ones repeat and coalesce
_ADVANCES = (0.1, 0.25, 1.0 / 3.0, 1e-6, 7.0)


@st.composite
def epoch_steps(draw, nvariants):
    """One fold step of the batched core: ``(c, mask, n)``."""
    c = np.array(draw(st.lists(st.sampled_from(_ADVANCES), min_size=nvariants, max_size=nvariants)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=nvariants, max_size=nvariants)))
    return c, mask, draw(st.integers(1, 3))


@st.composite
def epoch_programs(draw):
    """A variant count and a sequence of advances and pattern replays."""
    nvariants = draw(st.integers(1, 4))
    step = epoch_steps(nvariants)
    # mixed patterns, and uniform ones longer than one advance
    pattern = st.one_of(
        st.lists(step, min_size=1, max_size=3), step.map(lambda one: [one] * 3)
    )
    replay = st.tuples(
        st.sampled_from(["replay", "bulk"]), st.tuples(pattern, st.integers(1, 5))
    )
    ops = draw(
        st.lists(
            st.one_of(st.tuples(st.just("advance"), step), replay),
            min_size=1,
            max_size=12,
        )
    )
    return nvariants, ops


def _scalar_pattern(pattern, v):
    """Variant ``v``'s scalar advance log of a batched pattern."""
    return [float(c[v]) for c, mask, n in pattern for _ in range(n) if mask[v]]


@given(epoch_programs())
@settings(deadline=None)
def test_batched_epoch_fold_equals_scalar_folds(program):
    """``advance_epoch``, ``replay_pattern`` and ``replay_pattern_bulk``
    on the batched core leave each variant's run-length epoch, and its
    value, bit for bit where V scalar cores folding that variant's own
    advances leave theirs."""
    nvariants, ops = program
    machine = t3d(4)
    batched = BatchTimingEngine(pack_variants([machine] * nvariants))
    scalars = [
        TimingEngine(pack_variants([machine]), Instrumentation(machine.nprocs))
        for _ in range(nvariants)
    ]
    for what, arg in ops:
        if what == "advance":
            c, mask, n = arg
            batched.advance_epoch(c, mask, n)
            for v, core in enumerate(scalars):
                if mask[v]:
                    core.advance_epoch(float(c[v]), n)
            continue
        pattern, k = arg
        getattr(batched, "replay_pattern" if what == "replay" else "replay_pattern_bulk")(
            pattern, k
        )
        for v, core in enumerate(scalars):
            mine = _scalar_pattern(pattern, v)
            if not mine:
                continue
            if what == "replay":
                core.replay_pattern(mine, k)
            else:
                core.replay_pattern_bulk(mine, k)
    def bits(x):
        return np.float64(x).tobytes()

    for v, core in enumerate(scalars):
        assert (
            bits(core._epoch_prefix),
            bits(core._epoch_c),
            core._epoch_n,
            bits(core.epoch),
        ) == (
            bits(batched._epoch_prefix[v]),
            bits(batched._epoch_c[v]),
            int(batched._epoch_n[v]),
            bits(batched.epoch[v]),
        )
