"""The communication optimizer's passes, run in their one order.

The paper's optimizer is one cumulative sequence over a block's planned
communications, each step switched on or off per experiment key:

=============  =====================  ===========================
pass           turned on by           what it does
=============  =====================  ===========================
redundancy     ``rr``                 remove transfers an earlier
                                      same-block transfer covers
interblock     ``rr_interblock``      remove transfers available on
               (needs ``rr``)         entry from preceding blocks
combining      ``cc``                 merge same-direction transfers
                                      (``combine_heuristic``)
pipelining     ``pl``                 hoist DR/SR to the ready point
=============  =====================  ===========================

:func:`run_block` runs the passes an
:class:`~repro.comm.optimizer.OptimizationConfig` selects, in that
order, on one block, and materializes the result.  Removal runs first
because it assumes single-member plans; pipelining runs last because it
computes the final call placements.  Each pass runs under a
``pass:<name>`` span, adds to the ``opt.pass.<name>.removed``/``.merged``
counters and reports a :class:`PassStats`; ``verify=True`` checks the
plan after every pass and the materialized block at the end.

Statistics
----------

Per pass, accumulated over every block of a program into a
:class:`PipelineReport`:

``removed``
    Transfers deleted (redundancy, interblock).
``merged``
    Messages eliminated by folding members into a combined transfer.
``distance_gained``
    Change in latency-hiding distance: positive for ``pipelining`` (the
    send-to-completion span it actually opened), non-positive for
    ``combining`` (the hiding potential a merge gave up).
``wall_s``
    Host wall-clock spent inside the pass.

The report reconciles by construction: ``planned - removed - merged ==
final`` where ``planned`` is the naive transfer count and ``final`` the
static count of the optimized program — the invariant the engine's
telemetry tests and the Figure 8 deltas check.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.comm.combining import combine
from repro.comm.interblock import (
    AvailableSet,
    exit_available,
    remove_entry_available,
)
from repro.comm.materialize import materialize
from repro.comm.pipelining import place_calls
from repro.comm.planning import BlockPlan, plan_naive
from repro.comm.redundancy import remove_redundant
from repro.errors import OptimizationError
from repro.ir import nodes as ir
from repro.ironman.calls import CallKind
from repro.obs import core as obs

if TYPE_CHECKING:
    from repro.comm.optimizer import OptimizationConfig


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


@dataclass
class PassStats:
    """What one pass did — to one block, or summed over a program."""

    name: str
    removed: int = 0
    merged: int = 0
    distance_gained: int = 0
    wall_s: float = 0.0

    def add(self, other: "PassStats") -> None:
        """Accumulate another block's stats for the same pass."""
        if other.name != self.name:
            raise OptimizationError(
                f"cannot merge stats of {other.name!r} into {self.name!r}"
            )
        self.removed += other.removed
        self.merged += other.merged
        self.distance_gained += other.distance_gained
        self.wall_s += other.wall_s

    def as_dict(self) -> dict:
        """JSON-safe representation (the telemetry schema)."""
        return {
            "name": self.name,
            "removed": self.removed,
            "merged": self.merged,
            "distance_gained": self.distance_gained,
            "wall_s": self.wall_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PassStats":
        return cls(
            name=data["name"],
            removed=int(data["removed"]),
            merged=int(data["merged"]),
            distance_gained=int(data["distance_gained"]),
            wall_s=float(data["wall_s"]),
        )


@dataclass
class PipelineReport:
    """Per-pass statistics for one whole-program optimization run.

    ``passes`` holds one accumulated :class:`PassStats` per pipeline
    stage, in pipeline order; ``planned`` is the naive (pre-pass)
    transfer count over all blocks and ``final`` the post-pass count, so
    ``planned - total_removed - total_merged == final`` always holds
    (:meth:`reconciles`).
    """

    signature: Tuple[str, ...]
    blocks: int = 0
    planned: int = 0
    final: int = 0
    passes: List[PassStats] = field(default_factory=list)

    def record_block(
        self, planned: int, final: int, stats: Sequence[PassStats]
    ) -> None:
        """Fold one block's run into the program totals."""
        self.blocks += 1
        self.planned += planned
        self.final += final
        if not self.passes:
            self.passes = [
                PassStats(name=s.name) for s in stats
            ]
        for total, s in zip(self.passes, stats):
            total.add(s)

    @property
    def total_removed(self) -> int:
        return sum(s.removed for s in self.passes)

    @property
    def total_merged(self) -> int:
        return sum(s.merged for s in self.passes)

    def reconciles(self) -> bool:
        """Do the per-pass deltas explain the whole static reduction?"""
        return self.planned - self.total_removed - self.total_merged == self.final

    def as_dict(self) -> dict:
        """JSON-safe representation (stored in engine telemetry)."""
        return {
            "signature": list(self.signature),
            "blocks": self.blocks,
            "planned": self.planned,
            "final": self.final,
            "passes": [s.as_dict() for s in self.passes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineReport":
        return cls(
            signature=tuple(data["signature"]),
            blocks=int(data["blocks"]),
            planned=int(data["planned"]),
            final=int(data["final"]),
            passes=[PassStats.from_dict(s) for s in data["passes"]],
        )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_plan(plan: BlockPlan, owner: str = "plan") -> None:
    """Check a block plan's invariants; raise OptimizationError on any
    violation.  Run between passes when the pipeline verifier is on."""
    n = len(plan.info.core)
    for comm in plan.comms:
        if not comm.members:
            raise OptimizationError(f"{owner}: transfer with no members")
        if not comm.is_legal:
            raise OptimizationError(
                f"{owner}: illegal transfer (ready={comm.ready} > "
                f"use={comm.use}) for arrays {comm.arrays()}"
            )
        for member in comm.members:
            if not 0 <= member.ready <= n or not 0 <= member.use <= n:
                raise OptimizationError(
                    f"{owner}: member position out of block bounds "
                    f"(ready={member.ready}, use={member.use}, n={n})"
                )


def verify_block(block: ir.Block) -> None:
    """Check a materialized block's IR invariants: every transfer has
    exactly one call of each kind, ordered DR <= SR <= DN <= SV."""
    positions: Dict[int, Dict[CallKind, int]] = {}
    for pos, stmt in enumerate(block.stmts):
        if isinstance(stmt, ir.CommCall):
            by_kind = positions.setdefault(stmt.desc.id, {})
            if stmt.kind in by_kind:
                raise OptimizationError(
                    f"transfer {stmt.desc.id} has duplicate {stmt.kind.name}"
                )
            by_kind[stmt.kind] = pos
    for desc_id, by_kind in positions.items():
        if set(by_kind) != set(CallKind):
            missing = [k.name for k in CallKind if k not in by_kind]
            raise OptimizationError(
                f"transfer {desc_id} is missing calls: {', '.join(missing)}"
            )
        if not (
            by_kind[CallKind.DR]
            <= by_kind[CallKind.SR]
            <= by_kind[CallKind.DN]
            <= by_kind[CallKind.SV]
        ):
            raise OptimizationError(
                f"transfer {desc_id} calls out of order: "
                + ", ".join(f"{k.name}@{p}" for k, p in by_kind.items())
            )


# ---------------------------------------------------------------------------
# running the passes
# ---------------------------------------------------------------------------


@contextmanager
def _pass(
    name: str,
    plan: BlockPlan,
    verify: bool,
    stats: List[PassStats],
    signature: Optional[str] = None,
) -> Iterator[PassStats]:
    """Run one pass's body under its span, time it, count what it did,
    check the plan it left (with ``verify``) and append its stats."""
    signature = signature or name
    s = PassStats(name)
    with obs.span(f"pass:{name}", signature=signature):
        t0 = time.perf_counter()
        yield s
        s.wall_s = time.perf_counter() - t0
    obs.add(f"opt.pass.{name}.removed", s.removed)
    obs.add(f"opt.pass.{name}.merged", s.merged)
    if verify:
        verify_plan(plan, f"after {signature}")
    stats.append(s)


def run_block(
    block: ir.Block,
    config: "OptimizationConfig",
    avail: Optional[AvailableSet] = None,
    verify: bool = False,
) -> Tuple[ir.Block, int, List[PassStats]]:
    """Generate and optimize communication for one basic block.

    Runs the passes ``config`` selects in their one order and
    materializes the result.  ``avail`` is the inter-block available
    set, updated in place to the block's exit state by the interblock
    pass (with None that pass does nothing).  ``verify`` runs
    :func:`verify_plan` after every pass and :func:`verify_block` on the
    result.

    Returns ``(new_block, planned, stats)``: ``planned`` is the naive
    transfer count and ``stats`` has one entry per pass run, in order.
    """
    plan = plan_naive(block)
    planned = len(plan.comms)
    if verify:
        verify_plan(plan, "plan_naive")
    stats: List[PassStats] = []
    if config.rr:
        with _pass("redundancy", plan, verify, stats) as s:
            s.removed = remove_redundant(plan)
    if config.rr_interblock:
        with _pass("interblock", plan, verify, stats) as s:
            if avail is not None:
                s.removed = remove_entry_available(plan, avail)
                exit_state = exit_available(plan, avail)
                avail.clear()
                avail.update(exit_state)
    if config.cc:
        heuristic = config.combine_heuristic
        signature = f"combining[{heuristic}]"
        with _pass("combining", plan, verify, stats, signature) as s:
            before = sum(c.distance for c in plan.comms)
            s.merged = combine(plan, heuristic)
            # merging only ever shrinks total span: the gain is <= 0,
            # the hiding potential this heuristic traded for fewer
            # messages
            s.distance_gained = sum(c.distance for c in plan.comms) - before
    if config.pl:
        with _pass("pipelining", plan, verify, stats) as s:
            placements = place_calls(plan, pipelining=True)
            s.distance_gained = sum(p.dn - p.dr for p in placements)
    else:
        # the paper's naive shape: all four calls together at first use
        placements = place_calls(plan, pipelining=False)
    new_block = materialize(plan, placements)
    if verify:
        verify_block(new_block)
    return new_block, planned, stats
