"""Per-call cost arrays: where the IRONMAN cost model meets transfer plans.

Each IRONMAN call charges its bound primitive's software cost per
message, ``sw(n) = fixed + per_byte*n + per_byte_beyond*max(0, n - knee)``,
and a send's message then spends ``latency + n / bandwidth`` on the wire.
Pricing splits in two halves:

* a :class:`PlanTable` is the machine-independent half: distinct
  plans, their messages concatenated, and the index arrays that lay
  every plan's messages out for one vectorized pass per call kind.  A
  program's schedule template builds one over all its calls' plans,
  once per machine shape (:mod:`repro.runtime.schedule`); the
  interpreted walk prices each plan it reaches through the plan's own
  one-plan table (:attr:`~repro.runtime.transfers.TransferPlan.table`),
  built once per plan.  A table holds arrays only, no plan, so a plan
  that keeps its own table is freed by reference counting;
* :func:`price` is the per-run half: it evaluates the cost model of
  one call kind for every plan of a table across every variant of a
  :class:`~repro.machine.variants.VariantMatrix` in one pass and
  returns one :class:`CallCosts` per plan, the *price table* of that
  call kind.

Both timing cores read the result: the batched core the ``(V, ...)``
arrays, the scalar core :meth:`CallCosts.row` ``0`` of a one-variant
pack, whose arrays are 1-D views.  Each plan's arrays are contiguous:
the per-rank totals of a table are one ``(n, V, P)`` buffer, so plan
``i``'s ``(V, P)`` block is one slice, and SR's per-message ``cum_sw``
and ``wire`` are one contiguous ``(V, M_i)`` array per plan.  A core
binds them as they are, without copying; at ``V = 1`` a plan's rows
are slices of the table's, which are contiguous, and nothing is copied
to make the layout.

Exactness: every per-rank total accumulates from 0.0 in message order,
which is the float sequence of the per-message loop
(``tests/runtime/test_costs.py`` keeps those loops, and the per-plan
builder this replaced, as the oracle).  Messages are in (sender,
receiver) order within a plan, so each (plan, sender) run of messages is
contiguous; each run is a zero-padded row that starts at 0.0, and one
sequential ``cumsum`` over the rows gives every running send sum.
Receive and fixed-cost totals use ``np.add.at`` over (plan, rank) slots,
which adds in index order, so in message order.  Plans never share a
row or a slot, so concatenating them changes no sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

import numpy as np

from repro.ironman.calls import CallKind
from repro.machine.params import SyncKind
from repro.machine.variants import VariantMatrix

if TYPE_CHECKING:
    from repro.runtime.transfers import TransferPlan

__all__ = ["CallCosts", "PlanTable", "price"]


@dataclass(eq=False)
class CallCosts:
    """The cost arrays of one IRONMAN call on one plan.

    Arrays carry a leading variant axis; a :meth:`row` view drops it,
    and its rendezvous parameters and call count become Python
    numbers."""

    #: the bound primitive (call counts are recorded under its name)
    name: str
    sync: SyncKind
    #: ranks executing the primitive; for SR, the ranks paying a nonzero
    #: send cost
    calls: Union[np.ndarray, int]
    #: per-rank software charge: SR total send cost, DN receive cost, DR
    #: and SV fixed cost per message (None for rendezvous DN and DR)
    rank_sw: Optional[np.ndarray] = None
    #: SR only, per message: cumulative send cost at its sender, and
    #: wire time
    cum_sw: Optional[np.ndarray] = None
    wire: Optional[np.ndarray] = None
    #: rendezvous parameters as ``(V, 1)`` columns
    fixed: Union[np.ndarray, float] = 0.0
    spread_penalty: Union[np.ndarray, float] = 0.0
    spread_cap: Union[np.ndarray, float] = 0.0

    def row(self, v: int) -> "CallCosts":
        """Variant ``v`` alone: 1-D array views and Python scalars."""

        def pick(a: Optional[np.ndarray]) -> Optional[np.ndarray]:
            return None if a is None else a[v]

        return CallCosts(
            name=self.name,
            sync=self.sync,
            calls=self.calls.item(v),
            rank_sw=pick(self.rank_sw),
            cum_sw=pick(self.cum_sw),
            wire=pick(self.wire),
            fixed=self.fixed.item(v),
            spread_penalty=self.spread_penalty.item(v),
            spread_cap=self.spread_cap.item(v),
        )


class PlanTable:
    """Distinct plans with their messages concatenated: everything
    pricing needs that no machine changes, for every call kind.

    ``plans`` must share one processor count.  SR lays each (plan,
    sender) run of messages out as a row (``run``, ``place``, 1-based so
    that every row starts at 0.0) ending in its total's slot
    (``run_slot``); DN and DR add each message into the (plan, rank)
    slot of its receiver (``recv_slots``), SV into its sender's
    (``send_slots``)."""

    def __init__(self, plans: Sequence[TransferPlan]) -> None:
        self.nprocs = nprocs = plans[0].nprocs
        counts = [plan.message_count for plan in plans]
        #: message offsets: plan ``i`` owns messages ``bounds[i]:bounds[i+1]``
        self.bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
        self.nbytes = np.concatenate([plan.nbytes for plan in plans])
        plan_base = np.repeat(np.arange(len(plans)) * nprocs, counts)
        self.send_slots = plan_base + np.concatenate([p.senders for p in plans])
        self.recv_slots = plan_base + np.concatenate([p.receivers for p in plans])
        slots = self.send_slots
        first = np.empty(len(slots), dtype=bool)
        first[:1] = True
        np.not_equal(slots[1:], slots[:-1], out=first[1:])
        firsts = np.flatnonzero(first)
        self.run = np.cumsum(first) - 1
        self.place = np.arange(1, len(slots) + 1) - firsts[self.run]
        self.width = int(self.place.max(initial=0)) + 1
        self.run_slot = slots[firsts]
        self.send_callers = [len(p.senders_unique) for p in plans]
        self.recv_callers = [len(p.receivers_unique) for p in plans]


def price(table: PlanTable, kind: CallKind, matrix: VariantMatrix) -> List[CallCosts]:
    """The ``(V, ...)`` cost arrays of ``kind`` calls on every plan of
    ``table`` under every variant of ``matrix``, in table order: one
    vectorized pass.  Each plan's arrays are contiguous, so a core binds
    them without copying."""
    pc = matrix.prims[matrix.base.binding.primitive(kind)]
    V, n, P = matrix.nvariants, len(table.bounds) - 1, table.nprocs
    common = dict(
        name=pc.name,
        sync=pc.sync,
        fixed=pc.fixed[:, None],
        spread_penalty=pc.spread_penalty[:, None],
        spread_cap=pc.spread_cap[:, None],
    )
    # per-rank totals are ``(n, V, P)``, written through their
    # ``(V, n, P)`` view at each (plan, rank) slot
    if kind is CallKind.SR:
        rows = np.zeros((V, len(table.run_slot), table.width))
        rows[:, table.run, table.place] = pc.sw_matrix(table.nbytes)
        np.cumsum(rows, axis=2, out=rows)
        totals = np.zeros((n, V, P))
        plan, rank = np.divmod(table.run_slot, P)
        totals.transpose(1, 0, 2)[:, plan, rank] = rows[:, :, -1]
        lat = matrix.net_raw if pc.raw_wire else matrix.net_latency
        wire = lat[:, None] + table.nbytes[None, :] / matrix.net_bandwidth[:, None]
        cum_sw = _plan_blocks(rows[:, table.run, table.place], table.bounds)
        wire = _plan_blocks(wire, table.bounds)
        calls = np.count_nonzero(totals > 0, axis=2)
        return [
            CallCosts(
                calls=calls[i],
                rank_sw=totals[i],
                cum_sw=cum_sw[i],
                wire=wire[i],
                **common,
            )
            for i in range(n)
        ]
    # SV runs on the senders, DR and DN on the receivers; rendezvous DR
    # and DN charge their parameters directly
    sv = kind is CallKind.SV
    totals = None
    if sv or pc.sync is not SyncKind.RENDEZVOUS:
        per_message = (
            pc.sw_matrix(table.nbytes) if kind is CallKind.DN else pc.fixed[:, None]
        )
        totals = np.zeros((n, V, P))
        plan, rank = np.divmod(table.send_slots if sv else table.recv_slots, P)
        np.add.at(totals.transpose(1, 0, 2), (slice(None), plan, rank), per_message)
    return [
        CallCosts(
            calls=np.full(V, callers),
            rank_sw=None if totals is None else totals[i],
            **common,
        )
        for i, callers in enumerate(table.send_callers if sv else table.recv_callers)
    ]


def _plan_blocks(per_message: np.ndarray, bounds: List[int]) -> List[np.ndarray]:
    """``(V, M)`` per-message costs as one contiguous ``(V, M_i)`` array
    per plan.  A row (``V = 1``) slices into contiguous views, which are
    not copied."""
    return [np.ascontiguousarray(per_message[:, lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
