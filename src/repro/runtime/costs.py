"""Per-call cost arrays: where the IRONMAN cost model meets a transfer plan.

Each IRONMAN call charges its bound primitive's software cost per
message, ``sw(n) = fixed + per_byte*n + per_byte_beyond*max(0, n - knee)``,
and a send's message then spends ``latency + n / bandwidth`` on the wire.
:func:`call_costs` evaluates that model for one plan and one call across
every variant of a :class:`~repro.machine.variants.VariantMatrix`.  Plans
hold geometry only, so the arrays are built per run and bound into the
ops at lowering.  The simulation driver memoizes them per plan
:attr:`~repro.runtime.transfers.TransferPlan.signature` and call, so
descriptors whose messages coincide share one build.

Both timing cores read the result: the batched core the ``(V, ...)``
arrays, the scalar core :meth:`CallCosts.row` ``0`` of a one-variant
pack, whose arrays are 1-D views.

Exactness: every per-rank total accumulates from 0.0 in message order,
which is the float sequence of the per-message loop
(``tests/runtime/test_costs.py`` keeps those loops as the oracle).
Messages are in (sender, receiver) order, so a sender's messages are
contiguous and their running sums are one sequential ``cumsum`` per
sender; receive and fixed-cost totals use ``np.add.at``, which adds in
index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.ironman.calls import CallKind
from repro.machine.params import SyncKind
from repro.machine.variants import VariantMatrix
from repro.runtime.transfers import TransferPlan

__all__ = ["CallCosts", "call_costs"]


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


def call_costs(
    plan: TransferPlan, kind: CallKind, matrix: VariantMatrix
) -> CallCosts:
    """The ``(V, ...)`` cost arrays of ``kind`` calls on ``plan`` under
    every variant of ``matrix``."""
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


def _totals(sw: np.ndarray, ranks: np.ndarray, nprocs: int) -> np.ndarray:
    """``(V, P)`` per-rank sums of ``sw`` (``(V, M)``, or ``(V, 1)`` for
    one cost per message) over the messages' ``ranks``."""
    out = np.zeros((sw.shape[0], nprocs), dtype=np.float64)
    np.add.at(out, (slice(None), ranks), sw)
    return out


def _running_sums(sw: np.ndarray, plan: TransferPlan):
    """``(cum, totals)``: each message's running sum of ``sw`` over its
    sender's messages so far, and each sender's total.  Each sender's
    run is laid out as a row that starts with 0.0 and is padded with
    zeros, so one sequential ``cumsum`` per row adds exactly what the
    per-message loop adds."""
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
