"""Communication planning: the mutable per-block representation the
optimization passes transform.

A :class:`PlannedComm` stands for one data transfer.  It starts out
serving a single shifted use and may absorb further uses (redundancy
removal) or further arrays (combination).  Positions are indices into the
block's core-statement list: position ``i`` means "immediately before
core statement ``i``"; position ``len(core)`` is the end of the block.

Two derived positions drive everything:

``ready``
    The earliest position at which the transferred data is final: one
    past the last write of the array before its first use (0 if the array
    is not written earlier in the block).  The send may not be hoisted
    above this.
``use``
    The position of the first statement that reads the transferred data.
    The receive must complete here.

The *distance* ``use - ready`` is the paper's measure of latency-hiding
potential.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.ir import nodes as ir
from repro.ir.analysis import BlockInfo, ShiftedUse
from repro.lang.regions import Direction, Region, bounding_region


def direction_communicates(direction: Direction, rank: int) -> bool:
    """True when a shift by ``direction`` over rank-``rank`` arrays can
    reference nonlocal data.

    Arrays are block-distributed over a two-dimensional virtual processor
    mesh (ZPL's convention, known machine-independently at compile time):
    dims 0 and 1 are distributed for rank >= 2 and dim 0 for rank 1, while
    higher dims are processor-local.  A shift that moves only along local
    dims (e.g. the ``z`` sweeps of a rank-3 ADI solve) never communicates
    and generates no IRONMAN calls.
    """
    distributed = (0,) if rank == 1 else (0, 1)
    return any(
        direction.offsets[d] != 0 for d in distributed if d < direction.rank
    )


@dataclass
class CommMember:
    """One array's participation in a planned communication."""

    array: str
    use_region: Region
    #: first core-statement index that reads this member's data
    use: int
    #: earliest legal send position for this member's data
    ready: int
    #: all use positions this member serves (grows under redundancy
    #: removal); kept for diagnostics and tests
    all_uses: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.all_uses:
            self.all_uses = [self.use]

    @property
    def distance(self) -> int:
        """Latency-hiding potential of this member alone."""
        return self.use - self.ready


@dataclass
class PlannedComm:
    """A planned data transfer: one direction, one or more members.

    ``wrap`` marks a periodic transfer; wrap and non-wrap transfers are
    never identified or combined with each other (they move different
    data between different processor pairs at the mesh edges)."""

    direction: Direction
    members: List[CommMember]
    wrap: bool = False

    @property
    def key(self) -> Tuple[str, Tuple[int, ...], bool]:
        """Identity used by redundancy removal (single-member comms)."""
        assert len(self.members) == 1
        return (self.members[0].array, self.direction.offsets, self.wrap)

    @property
    def ready(self) -> int:
        """Earliest legal send position for the (possibly combined)
        transfer: every member's data must be final."""
        return max(m.ready for m in self.members)

    @property
    def use(self) -> int:
        """Position where the (possibly combined) transfer must complete:
        the earliest member use."""
        return min(m.use for m in self.members)

    @property
    def distance(self) -> int:
        """Latency-hiding potential of the transfer as planned."""
        return self.use - self.ready

    @property
    def is_legal(self) -> bool:
        """A transfer is legal when its send point does not fall after its
        completion point."""
        return self.ready <= self.use

    def arrays(self) -> List[str]:
        return [m.array for m in self.members]


@dataclass
class BlockPlan:
    """All planned communications of one basic block, in first-use order."""

    info: BlockInfo
    comms: List[PlannedComm]


def plan_naive(block: ir.Block) -> BlockPlan:
    """Plan baseline communication for a block.

    One :class:`PlannedComm` per distinct ``(array, offset)`` reference
    *per statement*: this is naive generation with message vectorization —
    the transfer is a whole strip (the statement is a whole-array
    operation), but every statement re-communicates everything it reads
    nonlocally.  Duplicate references within one statement (e.g. ``A@east
    * A@east``) need only one transfer even naively, since the compiler
    emits one set of calls per reference pattern per statement.

    ``block`` is a communication-free basic block (core statements
    only); planning is strictly intra-block, as in the paper.
    """
    info = BlockInfo(block)
    # the block's shifted uses per statement, in textual order
    by_stmt: List[List[ShiftedUse]] = [[] for _ in info.core]
    for use in info.shifted_uses:
        by_stmt[use.stmt_index].append(use)
    comms: List[PlannedComm] = []
    for stmt_index, stmt_uses in enumerate(by_stmt):
        seen: Dict[Tuple[str, Tuple[int, ...]], PlannedComm] = {}
        for use in stmt_uses:
            if not direction_communicates(use.direction, use.region.rank):
                continue
            existing = seen.get(use.key)
            if existing is not None:
                # same (array, offset) twice in one statement: one transfer
                member = existing.members[0]
                member.use_region = bounding_region(
                    member.use_region.name,
                    [member.use_region, use.region],
                )
                continue
            ready = info.last_write_before(use.array, stmt_index) + 1
            planned = PlannedComm(
                direction=use.direction,
                wrap=use.wrap,
                members=[
                    CommMember(
                        array=use.array,
                        use_region=use.region,
                        use=stmt_index,
                        ready=ready,
                    )
                ],
            )
            seen[use.key] = planned
            comms.append(planned)
    return BlockPlan(info=info, comms=comms)
