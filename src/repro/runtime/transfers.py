"""Transfer plans: which bytes move between which processors for one
communication descriptor.

For a transfer of ``A @ d`` serving statements over region ``r``, each
processor ``k`` computes its part ``box_k = r ∩ owned_k`` and reads
``box_k`` shifted by ``d``.  The cells of that shifted box falling outside
``owned_k`` are fluff, owned by mesh neighbours.  For an axis direction
that is one neighbour; for a diagonal direction like ``se`` the
outside cells form an L (south strip, east strip, corner) spanning up to
three neighbours.  The paper counts the whole thing as *one
communication* ("a set of calls to perform a single data transfer"); the
simulator prices the individual neighbour messages.

A combined descriptor packs all its entries' strips for the same
neighbour pair into one message (that is the point of combining: fewer,
larger messages, same volume).

Plans are computed in closed form, for every processor at once.  Owned
blocks are separable per distributed dimension, so an entry shifted
along ``k`` distributed dimensions has ``2^k - 1`` *strip classes*, one
per nonempty subset of those dimensions (the faces and the corner of the
L).  A strip of a class spans the overflow beyond the receiver's block
in the subset's dimensions and the inner extent elsewhere: integer
array expressions over the block lows and highs of
:meth:`~repro.runtime.layout.ProblemLayout.block_bounds`.  The sender is
the receiver's mesh neighbour one step along the subset's dimensions,
or, for a periodic (``@@``) transfer, the owner of the strip folded back
into the domain.  Strip sizes summed per (sender, receiver) pair, pairs
in sorted order, give the vectors the timing engines read; the numeric
engine binds a view pair per strip straight from the strip arrays
(:attr:`TransferPlan.strips`) to snapshot and deliver data.

A plan holds geometry only.  What its messages cost on a machine is
priced per run by :func:`repro.runtime.costs.price`, so one plan serves
every machine and variant of the same layout; the interpreted walk
prices through the plan's own one-plan :attr:`TransferPlan.table`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import RuntimeFault
from repro.ir.nodes import CommDescriptor, CommEntry
from repro.lang.regions import Region
from repro.runtime.costs import PlanTable
from repro.runtime.layout import ProblemLayout

_DOUBLE = 8  # bytes per element; ZL arrays are doubles


@dataclass(frozen=True, eq=False)
class StripSet:
    """One strip class of one entry: a strip for each receiver that has
    a nonempty one, in receiver order."""

    array: str
    senders: np.ndarray
    receivers: np.ndarray
    #: ``(n, rank)`` strip boxes in destination coordinates
    lows: np.ndarray
    highs: np.ndarray
    #: the boxes the senders read: the strip boxes folded into the
    #: domain for a periodic transfer, the strip boxes themselves
    #: otherwise
    src_lows: np.ndarray
    src_highs: np.ndarray


class Grouping(NamedTuple):
    """How the timing cores merge a plan's messages per rank: arrivals
    by receiver and DR flags by sender.  Every field is an ``intp``
    index array, the type ``take`` and ``reduceat`` index with, or None
    where it is trivial (the identity, or one message per rank)."""

    #: the messages in receiver order (None: they already are)
    order: Optional[np.ndarray]
    #: where each receiver's run starts in receiver order (None: every
    #: receiver gets one message)
    fan_in: Optional[np.ndarray]
    #: each message's receiver as an index into ``receivers_unique``
    #: (None: message ``m`` goes to the ``m``-th receiver)
    slots: Optional[np.ndarray]
    #: where each sender's run of messages starts (None: every sender
    #: sends one message)
    sender_runs: Optional[np.ndarray]


class TransferPlan:
    """All messages of one descriptor on one machine layout.

    ``senders``, ``receivers`` and ``nbytes`` hold one entry per message,
    in (sender, receiver) order; :attr:`strips` holds the strips they
    are summed from, one :class:`StripSet` per entry and strip class.
    :attr:`grouping` and :attr:`count_block`, which the timing cores and
    counters read, and :attr:`table`, which the interpreted walk prices,
    are built on first use."""

    def __init__(
        self, desc: CommDescriptor, layout: ProblemLayout, nprocs: int
    ) -> None:
        self.desc = desc
        self.nprocs = nprocs
        self.strips: List[StripSet] = [
            strips
            for entry in desc.entries
            for strips in _entry_strips(desc, entry, layout)
        ]
        self.senders, self.receivers, self.nbytes = _pair_totals(
            self.strips, nprocs
        )
        sending = np.zeros(nprocs, dtype=bool)
        sending[self.senders] = True
        receiving = np.zeros(nprocs, dtype=bool)
        receiving[self.receivers] = True
        self.participants = sending | receiving
        self.participant_count = int(np.count_nonzero(self.participants))
        self.receivers_unique = np.flatnonzero(receiving)
        self.senders_unique = np.flatnonzero(sending)

    @property
    def message_count(self) -> int:
        return len(self.senders)

    @cached_property
    def signature(self) -> Tuple[int, bytes, bytes, bytes]:
        """Everything a call's cost depends on: the processor count and
        each message's sender, receiver and size.  Plans of different
        descriptors with equal signatures cost the same on any machine."""
        return (
            self.nprocs,
            self.senders.tobytes(),
            self.receivers.tobytes(),
            self.nbytes.tobytes(),
        )

    @cached_property
    def grouping(self) -> Grouping:
        """The plan's per-receiver and per-sender message runs, built on
        first use."""
        m, receivers = self.message_count, self.receivers
        order = fan_in = slots = sender_runs = None
        if (receivers[1:] < receivers[:-1]).any():
            order = np.argsort(receivers, kind="stable")
            receivers = receivers[order]
        if len(self.receivers_unique) != m:
            fan_in = _run_starts(receivers)
        if order is not None or fan_in is not None:
            slots = np.searchsorted(self.receivers_unique, self.receivers)
        if len(self.senders_unique) != m:
            sender_runs = _run_starts(self.senders)
        return Grouping(order, fan_in, slots, sender_runs)

    @cached_property
    def count_block(self) -> Optional[np.ndarray]:
        """What one execution adds to the per-rank counters, one row each:
        participation, messages sent and bytes sent (None: no messages)."""
        if not self.message_count:
            return None
        runs = _run_starts(self.senders)
        block = np.zeros((3, self.nprocs), dtype=np.int64)
        block[0] = self.participants
        block[1, self.senders_unique] = np.diff(runs, append=self.message_count)
        block[2, self.senders_unique] = np.add.reduceat(self.nbytes, runs)
        return _narrow(block)

    @cached_property
    def table(self) -> PlanTable:
        """This plan alone as a :class:`~repro.runtime.costs.PlanTable`,
        built on first use.  It holds no reference back to the plan, so
        it is freed with the plan."""
        return PlanTable([self])


def _pair_totals(
    strips: List[StripSet], nprocs: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(senders, receivers, nbytes)`` per message: strip sizes summed
    per (sender, receiver) pair, pairs in sorted order."""
    if not strips:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
    keys = np.concatenate([s.senders * nprocs + s.receivers for s in strips])
    sizes = np.concatenate([(s.highs - s.lows + 1).prod(axis=1) for s in strips])
    order = np.argsort(keys, kind="stable")
    keys, sizes = keys[order], sizes[order]
    first = _run_starts(keys)
    senders, receivers = np.divmod(keys[first], nprocs)
    return senders, receivers, np.add.reduceat(sizes, first) * _DOUBLE


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in ``keys``."""
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.flatnonzero(first)


def _narrow(a: np.ndarray) -> np.ndarray:
    """Nonnegative integers ``a`` in the narrowest dtype that holds them."""
    return a.astype(np.min_scalar_type(int(a.max())))


def _entry_strips(
    desc: CommDescriptor, entry: CommEntry, layout: ProblemLayout
) -> List[StripSet]:
    """The nonempty strip classes of one entry, in subset-mask order.

    Raises the fault of the first faulty strip in (receiver, strip
    class) order."""
    domain = layout.array_domains[entry.array]
    rank = domain.rank
    dist_dims = layout.distributed_dims(rank)
    offsets = desc.direction.offsets
    active = [d for d in dist_dims if offsets[d] != 0]
    if not active:
        return []  # purely local shift: no messages

    own_lo, own_hi = layout.block_bounds(rank)
    box_lo = np.maximum(own_lo, entry.use_region.lows)
    box_hi = np.minimum(own_hi, entry.use_region.highs)
    live = (box_hi >= box_lo).all(axis=1)
    if not live.any():
        return []
    need_lo, need_hi = box_lo + offsets, box_hi + offsets
    # off the shift side a strip keeps the inner extent: the needed box
    # clipped to the receiver's block in the distributed dims
    distributed = [d in dist_dims for d in range(rank)]
    inner_lo = np.where(distributed, np.maximum(need_lo, own_lo), need_lo)
    inner_hi = np.where(distributed, np.minimum(need_hi, own_hi), need_hi)
    # on the shift side it takes the overflow beyond the block
    ahead = np.asarray(offsets) > 0
    over_lo = np.where(ahead, np.maximum(need_lo, own_hi + 1), need_lo)
    over_hi = np.where(ahead, need_hi, np.minimum(need_hi, own_lo - 1))
    inner_fits, over_fits = inner_hi >= inner_lo, over_hi >= over_lo

    out: List[StripSet] = []
    fault: Optional[Tuple[int, str]] = None  # (receiver, message)
    for mask in range(1, 1 << len(active)):
        subset = [d for i, d in enumerate(active) if mask >> i & 1]
        chosen = [d in subset for d in range(rank)]
        keep = live & np.where(chosen, over_fits, inner_fits).all(axis=1)
        receivers = np.flatnonzero(keep)
        if not len(receivers):
            continue
        lo = np.where(chosen, over_lo, inner_lo)[receivers]
        hi = np.where(chosen, over_hi, inner_hi)[receivers]
        if desc.wrap:
            strips, bad = _wrap_strips(desc, entry, layout, lo, hi, receivers)
        else:
            strips, bad = _neighbour_strips(
                desc, entry, layout, dist_dims, subset, lo, hi, receivers
            )
        # the earliest receiver's fault wins; ties go to the lower mask
        if bad is not None and (fault is None or bad[0] < fault[0]):
            fault = bad
        if strips is not None:
            out.append(strips)
    if fault is not None:
        raise RuntimeFault(fault[1])
    return out


def _neighbour_strips(desc, entry, layout, dist_dims, subset, lo, hi, receivers):
    """Strips sent by the receiver's mesh neighbour one step along the
    subset's dimensions: ``(strips, fault)``, one of them None."""
    grid = layout.grid
    rows, cols = np.divmod(receivers, grid.cols)
    edge = np.zeros(len(receivers), dtype=bool)
    step = 0
    for mesh_axis, d in enumerate(dist_dims):
        if d in subset:
            forward = desc.direction.offsets[d] > 0
            coords, size = (rows, grid.rows) if mesh_axis == 0 else (cols, grid.cols)
            edge |= coords == (size - 1 if forward else 0)
            step += (1 if forward else -1) * (grid.cols if mesh_axis == 0 else 1)
    if edge.any():
        j = int(np.argmax(edge))
        receiver = int(receivers[j])
        strip = Region("<strip>", tuple(lo[j].tolist()), tuple(hi[j].tolist()))
        return None, (
            receiver,
            f"transfer {desc.describe()}: strip {strip} for rank {receiver} "
            "has no owning neighbour — layout/semantic inconsistency",
        )
    return StripSet(entry.array, receivers + step, receivers, lo, hi, lo, hi), None


def _wrap_strips(desc, entry, layout, lo, hi, receivers):
    """Periodic strips: coordinates outside the domain fold back by one
    domain extent, and the owner of the folded box sends it.  Returns
    ``(strips, fault)``, one of them None."""
    domain = layout.array_domains[entry.array]
    bounding = layout.rank_class(domain.rank).bounding
    dom_lo, dom_hi = np.array(domain.lows), np.array(domain.highs)
    extent = dom_hi - dom_lo + 1
    # folding is only sound where the domain spans the whole layout
    partial = (np.array(bounding.lows) != dom_lo) | (np.array(bounding.highs) != dom_hi)
    unspanned = partial & ((lo < dom_lo) | (hi > dom_hi))
    shift = np.where(hi < dom_lo, extent, 0) - np.where(lo > dom_hi, extent, 0)
    src_lo, src_hi = lo + shift, hi + shift
    escapes = ((src_lo < dom_lo) | (src_hi > dom_hi)).any(axis=1)
    bad = unspanned.any(axis=1) | escapes
    senders = np.zeros(len(receivers), dtype=np.int64)
    good = ~bad
    senders[good] = layout.owners(domain.rank, src_lo[good])
    split = np.zeros_like(bad)
    split[good] = senders[good] != layout.owners(domain.rank, src_hi[good])
    bad |= split
    if not bad.any():
        return StripSet(
            entry.array, senders, receivers, lo, hi, src_lo, src_hi
        ), None
    j = int(np.argmax(bad))
    src = Region("<wrapsrc>", tuple(src_lo[j].tolist()), tuple(src_hi[j].tolist()))
    what = f"wrap transfer of {entry.array!r}"
    if unspanned[j].any():
        message = (
            f"{what}: its domain does not span the rank-class layout in "
            f"dim {int(np.argmax(unspanned[j])) + 1}; periodic arrays must "
            "cover the full distributed extent"
        )
    elif escapes[j]:
        message = (
            f"{what}: folded strip {src} still escapes the domain {domain} "
            "— offset too large for the mesh"
        )
    else:
        message = (
            f"{what}: strip {src} spans processors — shift width exceeds "
            "a block"
        )
    return None, (int(receivers[j]), message)


class PlanCache:
    """Per-simulation cache of transfer plans keyed by descriptor id.

    Every plan built is also put in a process-wide memo (bounded LRU)
    keyed by the layout, the processor count and the descriptor's id
    and geometry.  The memo serves almost nothing: later runs of a
    program on the same mesh shape take its plans from the program's
    :class:`~repro.runtime.schedule.ScheduleTemplate`, and descriptor
    ids are unique per process, so no other program's descriptor
    matches a key.  On a cold t3d/64 paper study it builds 646 plans,
    this cache's own dict serves 1938 lookups and the memo 0 (0 again
    when the study reruns after ``clear_compile_cache``).  Once the
    study's programs are dropped, the memo still pins their 646 plans,
    about 8.7 MB by ``tracemalloc``.  It stays for now because the
    benchmark harness (``benchmarks/perf/workloads.py``) clears it by
    name through :meth:`clear_global`.
    """

    # bounds the plans the memo pins after their programs are gone
    _GLOBAL_MAX = 1024
    _global: "OrderedDict[Tuple, TransferPlan]" = OrderedDict()

    def __init__(self, layout: ProblemLayout, nprocs: int) -> None:
        self.layout = layout
        self.nprocs = nprocs
        self._plans: Dict[int, TransferPlan] = {}
        self._layout_key = (
            layout.grid.rows,
            layout.grid.cols,
            tuple(
                sorted(
                    (name, dom.lows, dom.highs)
                    for name, dom in layout.array_domains.items()
                )
            ),
        )

    def _desc_key(self, desc: CommDescriptor) -> Tuple:
        return (
            self._layout_key,
            self.nprocs,
            desc.id,
            desc.direction.offsets,
            desc.wrap,
            tuple(
                (e.array, e.use_region.lows, e.use_region.highs)
                for e in desc.entries
            ),
        )

    def plan(self, desc: CommDescriptor) -> TransferPlan:
        plan = self._plans.get(desc.id)
        if plan is None:
            key = self._desc_key(desc)
            memo = type(self)._global
            plan = memo.get(key)
            if plan is None:
                plan = TransferPlan(desc, self.layout, self.nprocs)
                memo[key] = plan
                if len(memo) > self._GLOBAL_MAX:
                    memo.popitem(last=False)
            else:
                memo.move_to_end(key)
            self._plans[desc.id] = plan
        return plan

    @classmethod
    def clear_global(cls) -> None:
        """Drop the process-wide plan memo (tests)."""
        cls._global.clear()
