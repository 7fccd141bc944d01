"""Closed-form transfer plans against the per-rank strip walk.

The oracle below is the original plan construction, kept verbatim: for every
receiver and every strip class it intersects ``Region`` objects and asks
the mesh (or, for periodic transfers, the owner map) for the sender.
:class:`~repro.runtime.transfers.TransferPlan` computes the same strips
for all ranks at once.  Every case must give identical messages (order,
endpoints, and each copy's array, box and source; the plan's strips are
regrouped per (sender, receiver) pair by :func:`plan_messages`),
identical ``senders``/``receivers``/``nbytes`` vectors, or the same
``RuntimeFault`` message from both.  The oracle reads ownership
through ``ProblemLayout.owned``/``owner_of``, which
``tests/runtime/test_layout.py`` pins against the mesh splits.
"""

from typing import Dict, List, NamedTuple, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeFault
from repro.experiments_registry import EXPERIMENT_KEYS, experiment_spec
from repro.ir.nodes import CommDescriptor, CommEntry
from repro.lang.regions import Direction, Region
from repro.programs import BENCHMARKS, KERNELS, build_benchmark, swm_periodic
from repro.programs.common import compile_source
from repro.runtime.grid import ProcessorGrid
from repro.runtime.layout import ProblemLayout
from repro.runtime.transfers import TransferPlan


class StripCopy(NamedTuple):
    """One rectangular piece of one array inside one message: ``box`` in
    the receiver's coordinates, ``src_box`` (periodic transfers only) in
    the sender's."""

    array: str
    box: Region
    src_box: Optional[Region] = None


class Message(NamedTuple):
    """One point-to-point message of a transfer."""

    sender: int
    receiver: int
    copies: List[StripCopy]

    @property
    def nbytes(self) -> int:
        return sum(c.box.size for c in self.copies) * 8


def plan_messages(plan: TransferPlan) -> List[Message]:
    """``plan.strips`` regrouped per (sender, receiver) pair, pairs in
    sorted order, each pair's strips in (entry, strip class) order."""
    pairs: Dict[Tuple[int, int], List[StripCopy]] = {}
    for s in plan.strips:
        for sender, receiver, lo, hi, src_lo, src_hi in zip(
            s.senders.tolist(), s.receivers.tolist(), s.lows.tolist(),
            s.highs.tolist(), s.src_lows.tolist(), s.src_highs.tolist(),
        ):
            src = Region("<wrapsrc>", src_lo, src_hi) if plan.desc.wrap else None
            pairs.setdefault((sender, receiver), []).append(
                StripCopy(s.array, Region("<strip>", lo, hi), src)
            )
    return [Message(s, r, copies) for (s, r), copies in sorted(pairs.items())]


# ---------------------------------------------------------------------------
# the oracle: the per-rank, per-strip Region walk
# ---------------------------------------------------------------------------


def _nonempty_subsets(dims: List[int]) -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = []
    n = len(dims)
    for mask in range(1, 1 << n):
        out.append(tuple(dims[i] for i in range(n) if mask & (1 << i)))
    return out


def _build_messages(
    desc: CommDescriptor, layout: ProblemLayout
) -> List[Message]:
    grid = layout.grid
    pair_copies: Dict[Tuple[int, int], List[StripCopy]] = {}

    for entry in desc.entries:
        domain = layout.array_domains[entry.array]
        rank = domain.rank
        dist_dims = list(layout.distributed_dims(rank))
        offsets = desc.direction.offsets
        active = [d for d in dist_dims if offsets[d] != 0]
        if not active:
            continue  # purely local shift: no messages

        for receiver in grid.ranks():
            owned_class = layout.owned(rank, receiver)
            box = entry.use_region.intersect(owned_class)
            if box.is_empty:
                continue
            needed = box.shifted(desc.direction)
            for subset in _nonempty_subsets(active):
                lows, highs = list(needed.lows), list(needed.highs)
                ok = True
                for d in range(rank):
                    if d in subset:
                        # the overflow strip on the offset's side
                        if offsets[d] > 0:
                            lo = max(lows[d], owned_class.highs[d] + 1)
                            hi = highs[d]
                        else:
                            lo = lows[d]
                            hi = min(highs[d], owned_class.lows[d] - 1)
                    elif d in dist_dims:
                        lo = max(lows[d], owned_class.lows[d])
                        hi = min(highs[d], owned_class.highs[d])
                    else:
                        lo, hi = lows[d], highs[d]
                    if hi < lo:
                        ok = False
                        break
                    lows[d], highs[d] = lo, hi
                if not ok:
                    continue
                strip = Region(
                    f"<strip:{entry.array}>", tuple(lows), tuple(highs)
                )
                if desc.wrap:
                    sender, src = _wrap_source(
                        desc, entry, strip, domain, layout
                    )
                    pair_copies.setdefault((sender, receiver), []).append(
                        StripCopy(array=entry.array, box=strip, src_box=src)
                    )
                    continue
                step = _mesh_step(rank, dist_dims, subset, offsets)
                sender = grid.neighbor(receiver, step)
                if sender is None:
                    raise RuntimeFault(
                        f"transfer {desc.describe()}: strip {strip} for "
                        f"rank {receiver} has no owning neighbour — "
                        "layout/semantic inconsistency"
                    )
                pair_copies.setdefault((sender, receiver), []).append(
                    StripCopy(array=entry.array, box=strip)
                )

    return [
        Message(sender=s, receiver=r, copies=copies)
        for (s, r), copies in sorted(pair_copies.items())
    ]


def _wrap_source(desc, entry, strip: Region, domain: Region, layout):
    """Source rank and source-coordinate box for a (possibly wrapped)
    periodic strip: coordinates outside the domain fold back by one
    domain extent, and the owner of the folded box sends it."""
    cls = layout.rank_class(domain.rank)
    lows, highs = list(strip.lows), list(strip.highs)
    for d in range(domain.rank):
        extent = domain.highs[d] - domain.lows[d] + 1
        if (
            cls.bounding.lows[d] != domain.lows[d]
            or cls.bounding.highs[d] != domain.highs[d]
        ) and (lows[d] < domain.lows[d] or highs[d] > domain.highs[d]):
            raise RuntimeFault(
                f"wrap transfer of {entry.array!r}: its domain does not "
                f"span the rank-class layout in dim {d + 1}; periodic "
                "arrays must cover the full distributed extent"
            )
        if highs[d] < domain.lows[d]:
            lows[d] += extent
            highs[d] += extent
        elif lows[d] > domain.highs[d]:
            lows[d] -= extent
            highs[d] -= extent
    src = Region(f"<wrapsrc:{entry.array}>", tuple(lows), tuple(highs))
    if not domain.contains(src):
        raise RuntimeFault(
            f"wrap transfer of {entry.array!r}: folded strip {src} still "
            f"escapes the domain {domain} — offset too large for the mesh"
        )
    sender = layout.owner_of(domain.rank, src.lows)
    sender_hi = layout.owner_of(domain.rank, src.highs)
    if sender != sender_hi:
        raise RuntimeFault(
            f"wrap transfer of {entry.array!r}: strip {src} spans "
            "processors — shift width exceeds a block"
        )
    return sender, src


def _mesh_step(
    rank: int,
    dist_dims: List[int],
    subset: Tuple[int, ...],
    offsets: Tuple[int, ...],
) -> Tuple[int, int]:
    """Mesh offset of the neighbour owning the overflow strip for
    ``subset`` (receiver -> sender direction)."""
    step = [0, 0]
    for mesh_axis, d in enumerate(dist_dims):
        if d in subset:
            step[mesh_axis] = 1 if offsets[d] > 0 else -1
    if rank == 1:
        return (step[0], 0)
    return (step[0], step[1])


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _copies(messages):
    return [
        (
            m.sender,
            m.receiver,
            [
                (
                    c.array,
                    c.box.lows,
                    c.box.highs,
                    None if c.src_box is None else (c.src_box.lows, c.src_box.highs),
                )
                for c in m.copies
            ],
        )
        for m in messages
    ]


def assert_matches_oracle(desc: CommDescriptor, layout: ProblemLayout) -> None:
    try:
        expected = _build_messages(desc, layout)
    except RuntimeFault as exc:
        with pytest.raises(RuntimeFault) as raised:
            TransferPlan(desc, layout, layout.grid.nprocs)
        assert str(raised.value) == str(exc)
        return
    plan = TransferPlan(desc, layout, layout.grid.nprocs)
    assert plan.senders.tolist() == [m.sender for m in expected]
    assert plan.receivers.tolist() == [m.receiver for m in expected]
    assert plan.nbytes.tolist() == [m.nbytes for m in expected]
    assert plan.message_count == len(expected)
    assert _copies(plan_messages(plan)) == _copies(expected)
    for s in plan.strips:
        # each folded source box is the size of its strip
        sizes = (s.highs - s.lows + 1).prod(axis=1)
        assert ((s.src_highs - s.src_lows + 1).prod(axis=1) == sizes).all()


# ---------------------------------------------------------------------------
# the corpus: every descriptor of every program, on every mesh
# ---------------------------------------------------------------------------

MESHES = ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 3), (4, 4), (8, 8))
CORPUS = (
    BENCHMARKS + KERNELS + ("swm_periodic",) + tuple(f"gen_{s}" for s in range(8))
)


def _build(name, opt):
    if name == "swm_periodic":
        return _swm_periodic(opt)
    return build_benchmark(name, opt=opt)


def _swm_periodic(opt):
    return compile_source(
        swm_periodic.SOURCE, "swm_periodic.zl", swm_periodic.DEFAULT_CONFIG, opt
    )


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_plans_match_oracle(name):
    """Plans built straight from the compiled IR (no simulation), each
    distinct descriptor geometry once per mesh."""
    seen = set()
    checked = 0
    for key in EXPERIMENT_KEYS:
        program = _build(name, experiment_spec(key).opt)
        domains = {array: dom for array, (dom, _) in program.arrays.items()}
        for rows, cols in MESHES:
            layout = ProblemLayout(ProcessorGrid(rows, cols), domains)
            for desc in program.all_descriptors():
                geometry = (
                    rows,
                    cols,
                    tuple(sorted((a, d.lows, d.highs) for a, d in domains.items())),
                    desc.direction.offsets,
                    desc.wrap,
                    tuple(
                        (e.array, e.use_region.lows, e.use_region.highs)
                        for e in desc.entries
                    ),
                )
                if geometry in seen:
                    continue
                seen.add(geometry)
                assert_matches_oracle(desc, layout)
                checked += 1
    assert checked > 0


def test_corpus_covers_periodic_and_combined_transfers():
    """The corpus reaches both wrap plans and multi-entry plans."""
    descs = [
        d
        for key in EXPERIMENT_KEYS
        for d in _swm_periodic(experiment_spec(key).opt).all_descriptors()
    ]
    assert any(d.wrap for d in descs)
    assert any(d.wrap and len(d.entries) > 1 for d in descs)


# ---------------------------------------------------------------------------
# random geometry
# ---------------------------------------------------------------------------


@st.composite
def plan_cases(draw):
    """A random layout and descriptor: domains of one array rank (equal
    or not, so periodic transfers may fail to span the layout), small
    plain or wrap offsets, meshes up to 4x4, and use regions that either
    read inside their domain (as the front end guarantees) or reach a
    few cells past its bounds (possibly empty)."""
    rank = draw(st.integers(1, 3))
    grid = ProcessorGrid(draw(st.integers(1, 4)), draw(st.integers(1, 4)))

    def region(name):
        lows = tuple(draw(st.integers(-2, 3)) for _ in range(rank))
        highs = tuple(lo + draw(st.integers(3, 12)) - 1 for lo in lows)
        return Region(name, lows, highs)

    first = region("D0")
    domains = {"A0": first}
    for i in range(1, draw(st.integers(1, 3))):
        domains[f"A{i}"] = first if draw(st.booleans()) else region(f"D{i}")
    offset = st.one_of(st.integers(1, 3), st.integers(-3, -1), st.just(0))
    offsets = tuple(draw(offset) for _ in range(rank))
    wrap = draw(st.booleans())
    names = draw(
        st.lists(st.sampled_from(sorted(domains)), min_size=1, max_size=3, unique=True)
    )
    entries = []
    for name in names:
        dom = domains[name]
        if draw(st.booleans()):
            # reads stay in the domain (wrap reads fold back into it)
            reach = [(0, 0) if wrap else (max(0, -o), max(0, o)) for o in offsets]
            lows = tuple(
                lo + before + draw(st.integers(0, 2))
                for lo, (before, _) in zip(dom.lows, reach)
            )
            highs = tuple(
                hi - after - draw(st.integers(0, 2))
                for hi, (_, after) in zip(dom.highs, reach)
            )
        else:
            lows = tuple(lo + draw(st.integers(-2, 3)) for lo in dom.lows)
            highs = tuple(hi + draw(st.integers(-3, 2)) for hi in dom.highs)
        entries.append(CommEntry(array=name, use_region=Region("U", lows, highs)))
    desc = CommDescriptor(
        direction=Direction("d", offsets), entries=entries, wrap=wrap
    )
    return desc, ProblemLayout(grid, domains)


@given(plan_cases())
@settings(max_examples=300, deadline=None)
def test_random_plans_match_oracle(case):
    desc, layout = case
    assert_matches_oracle(desc, layout)
