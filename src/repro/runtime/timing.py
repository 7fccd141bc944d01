"""The two timing cores.

SPMD control flow is identical on every rank (scalar state is
replicated), so the simulator advances all ranks through the same
statement sequence and keeps a *clock vector* — one float per rank.  The
interesting dynamics live entirely in the communication calls:

``SR``
    Each sender is charged the send primitive's software cost per
    outgoing message (sequentially); each message's arrival time at its
    receiver is ``sender-clock-after-injection + latency + bytes/BW``.
    The latest arrival at each receiver is stored until DN.

``DN``
    Each receiver is charged the receive cost per incoming message and
    waits for the latest arrival: ``clock = max(clock, arrival) + sw``.
    This is where pipelining pays off — the further SR ran ahead of DN,
    the more of the wire time has already elapsed.

``DR`` / ``SV``
    Charged per the bound primitive; ``synch`` (T3D SHMEM) performs a
    heavyweight pairwise rendezvous that pulls each participant up to the
    latest of its partners' clocks — the prototype-limitation behaviour
    that hurts inherently sequential phases in the paper.

Reductions synchronize all ranks (combine + broadcast tree).

The :class:`~repro.runtime.costs.CallCosts` of every call are priced
once per run by :func:`~repro.runtime.costs.price` and bound at
lowering: each core takes its view of them (:meth:`TimingEngine.bind_costs`)
and binds the compiled op itself (``bind_call``, ``bind_charge``).  The
scalar core's call op is one of its methods, ``op(desc, plan, costs)``,
or a scalar form; the batched core's is a block form (both below).

In-flight state per receiver
----------------------------
An in-flight transfer is stored as a block over its plan's
``receivers_unique``: each receiver's latest arrival, shape ``(R,)`` on
the scalar core and ``(V, R)`` on the batched one.  A posted DR flag is
the same block of the receivers' clocks.  Both are keyed by the id of
the call's :class:`~repro.ir.nodes.CommDescriptor`, not by the plan:
one plan serves every descriptor of its geometry, and two of them may
be in flight at once; faults and traced labels name the descriptor
too.  SR gathers the senders' clocks, adds ``cum_sw`` and then ``wire``
per message, permutes the result to receiver order and, where some
receiver gets more than one message, takes each receiver's maximum with
``np.maximum.reduceat``
(:attr:`~repro.runtime.transfers.TransferPlan.grouping`).  A rendezvous
SR reads the flag block through each message's receiver slot and takes
each sender's maximum over its run of messages.  The result equals a
scatter into a full-length vector padded with ``-inf``: a maximum is
exact and ignores operand order for values that are never NaN or
``-0.0``, and ``max(x, -inf)`` is ``x``.

Single-rank ops
---------------
On the compiled path the scalar core binds a call whose plan has one
message, and an array charge whose row has one rank with elements, to a
*scalar form*: a closure that reads and writes only those ranks' clocks,
in-flight arrival, DR flag and per-rank account as Python floats, with
the vector op's IEEE operations in the vector op's order.  The vector
op's other ranks would only add 0.0, a bitwise identity for clocks and
accounts, which are finite and never ``-0.0``.  The scalar form's
arrival and flag are the vector op's one-receiver blocks, so rebasing,
the cycle monitor and extrapolation see the same state.  The choice is
made once per run at binding, from plan geometry; the interpreted walk,
NUMERIC mode and ``trace_rank`` keep the vector ops, so the walk is the
scalar forms' oracle.  The batched core has no scalar forms: a
one-message call there binds its block form, which moves a ``(V, 1)``
column.

Block forms
-----------
The batched core binds every SR, DN, DR and SV call to a *block form*
(:meth:`BatchTimingEngine.bind_call`): a closure over the clock matrix,
the in-flight and DR-flag tables, the plan's index arrays as ``intp``
and the call's cost blocks, which :func:`~repro.runtime.costs.price`
lays out contiguous.  It gathers each index once with ``take`` and
does the scalar core's IEEE operations in the scalar core's order,
elementwise over the variants: an arrival is ``t = clock.take(senders,
axis=1); t += cum_sw; t += wire``, which is ``(clock + cum_sw) +
wire``, and a wait-arrival DN adds the receive totals over the plan's
receivers, gathered once per plan and run.  Each row is therefore a
scalar run of its variant bit for bit; the scalar core is the block
forms' oracle (``tests/runtime/test_block_forms.py``).

Two cores, one arithmetic
-------------------------
:class:`TimingEngine` keeps 1-D clocks and serves :func:`repro.simulate`:
the compiled path and the interpreted walk, NUMERIC mode, the per-rank
account (compute / comm-sw / wait and per-primitive call counts) and
``trace_rank``.  :class:`BatchTimingEngine` keeps a ``(V, P)`` clock
matrix, V cost-only machine variants, and serves
:func:`repro.simulate_many`.  It performs the scalar core's float
operations in the same order, elementwise along the variant axis, so
each row is bit-identical to a scalar run of that variant; it keeps no
per-rank account.  Which core runs depends on the call (one machine or a
variant matrix).  They stay two because numpy indexes a 1-D array
several times faster than a row of a 2-D one, which is most of the
scalar dispatch, and the account costs the batch more than it saves
(``docs/SIMULATOR.md`` has the measurements).

Clock representation
--------------------
The engines keep per-rank clocks as **offsets from a shared epoch**.  At
the end of every loop iteration the executor calls :meth:`loop_rebase`,
which subtracts the minimum offset from the clock vector (and every
stored arrival and flag block) and folds it into the epoch.  The epoch is
stored run-length-encoded (``prefix + c * n`` for the current run of
identical advances), so that stepping a loop N times and replaying one
recorded advance pattern N times fold the epoch through the *identical*
float operations.  This is what makes the compiled fast path's
steady-state extrapolation (:mod:`repro.runtime.schedule`) bit-exact:
once the rebased state repeats bitwise with some period, every later
period advances the epoch by the same sequence of run-length-coalesced
amounts, and absolute clocks are always materialized as
``epoch + offset`` in both paths.  The batched epoch is run-length
encoded per variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import RuntimeFault
from repro.ir.nodes import CommDescriptor
from repro.ironman.calls import CallKind
from repro.machine.params import SyncKind
from repro.machine.variants import VariantMatrix
from repro.runtime.costs import CallCosts
from repro.runtime.instrument import Instrumentation
from repro.runtime.transfers import TransferPlan


@dataclass(frozen=True)
class TraceEvent:
    """One interval on a traced processor's timeline.

    ``kind`` is one of ``compute``, ``send``, ``recv``, ``wait``,
    ``synch``, ``reduce``; intervals of a single rank never overlap and
    cover every nonzero clock advance."""

    start: float
    end: float
    kind: str
    label: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


#: the scalar core's method executing each call kind, ``op(desc, plan, costs)``
_CALL_OPS = {
    CallKind.SR: "_do_send",
    CallKind.DN: "_do_complete",
    CallKind.DR: "_do_pre",
    CallKind.SV: "_do_volatile",
}

#: the scalar core's method binding a one-message call of each kind to
#: its scalar form
_ONE_MESSAGE_OPS = {
    CallKind.SR: "_send_one",
    CallKind.DN: "_complete_one",
    CallKind.DR: "_pre_one",
    CallKind.SV: "_volatile_one",
}

#: the batched core's method binding a call of each kind to its block
#: form (a closure named ``send_block``, ``complete_block``,
#: ``pre_block`` or ``volatile_block``)
_BLOCK_FORMS = {
    CallKind.SR: "_send_block",
    CallKind.DN: "_complete_block",
    CallKind.DR: "_pre_block",
    CallKind.SV: "_volatile_block",
}


def _per_receiver(times: np.ndarray, plan: TransferPlan) -> np.ndarray:
    """Per-message arrivals ``(..., M)`` as each receiver's latest
    ``(..., R)``, in ``receivers_unique`` order."""
    groups = plan.grouping
    if groups.order is not None:
        times = times.take(groups.order, axis=-1)
    if groups.fan_in is not None:
        times = np.maximum.reduceat(times, groups.fan_in, axis=-1)
    return times


def _per_sender(flags: np.ndarray, plan: TransferPlan, raw) -> np.ndarray:
    """A DR flag block ``(..., R)`` as the latest flag each sender waits
    for once it crossed the wire in ``raw`` seconds, ``(..., S)`` in
    ``senders_unique`` order."""
    groups = plan.grouping
    if groups.slots is not None:
        flags = flags.take(groups.slots, axis=-1)
    flags = flags + raw
    if groups.sender_runs is not None:
        flags = np.maximum.reduceat(flags, groups.sender_runs, axis=-1)
    return flags


def _sent_twice(desc: CommDescriptor) -> RuntimeFault:
    return RuntimeFault(
        f"transfer {desc.describe()} initiated twice without "
        "completion — optimizer produced an illegal schedule"
    )


def _never_sent(desc: CommDescriptor) -> RuntimeFault:
    return RuntimeFault(
        f"completion of {desc.describe()} before initiation — "
        "optimizer produced an illegal schedule"
    )


class _Core:
    """What the two cores share: the in-flight tables, the charge
    binding and the end-of-run check."""

    matrix: VariantMatrix
    _inflight: Dict[int, np.ndarray]
    _dr_times: Dict[int, np.ndarray]

    def bind_charge(
        self, cost: np.ndarray, rank: Optional[int], label: str
    ) -> Callable[[], None]:
        """The compiled op charging one stacked row ``cost``; ``rank`` is
        the row's one rank with elements (None: none or several)."""
        return partial(self.charge_array_vec, cost, label)

    def assert_quiescent(self) -> None:
        if self._inflight:
            raise RuntimeFault(
                f"{len(self._inflight)} transfer(s) initiated but never "
                "completed — optimizer produced an illegal schedule"
            )
        if self._dr_times:
            raise RuntimeFault(
                f"{len(self._dr_times)} destination-ready flag(s) posted "
                "but never consumed — optimizer produced an illegal schedule"
            )


class TimingEngine(_Core):
    """The scalar core: 1-D clocks over the one machine of ``matrix``
    (a one-variant pack), with the per-rank account and the optional
    timeline of ``trace_rank``."""

    def __init__(
        self,
        matrix: VariantMatrix,
        instrument: Instrumentation,
        trace_rank: Optional[int] = None,
    ) -> None:
        self.matrix = matrix
        self.machine = matrix.base
        self.instrument = instrument
        #: rank whose timeline is recorded (None: tracing off)
        self.trace_rank = trace_rank
        self.trace: List[TraceEvent] = []
        #: reduction combine + broadcast tree time
        self.tree_time = self.machine.reduction.time(self.machine.nprocs)
        #: per-rank clock *offsets* from the epoch (absolute = epoch + offset)
        self.clock = np.zeros(self.machine.nprocs, dtype=np.float64)
        #: desc id -> each receiver's latest arrival of the in-flight
        #: execution, over the plan's ``receivers_unique``
        self._inflight: Dict[int, np.ndarray] = {}
        #: desc id -> each receiver's destination-ready (DR flag) time
        self._dr_times: Dict[int, np.ndarray] = {}
        #: run-length-encoded epoch: value = prefix + epoch_c * epoch_n
        self._epoch_prefix = 0.0
        self._epoch_c = 0.0
        self._epoch_n = 0
        self._epoch_val = 0.0
        #: advance log for the fast path's cycle monitor (None: off)
        self._epoch_log: Optional[List[float]] = None

    def bind_costs(self, costs: CallCosts) -> CallCosts:
        """This core's view of priced costs: the one variant's row."""
        return costs.row(0)

    def _record(self, kind: str, start: float, end: float, label: str = "") -> None:
        if end > start:
            self.trace.append(TraceEvent(start, end, kind, label))

    # ------------------------------------------------------------------
    # epoch
    # ------------------------------------------------------------------
    def advance_epoch(self, c: float, n: int = 1) -> None:
        """Fold ``n`` loop-rebase advances of ``c`` seconds into the
        epoch.  Equal consecutive advances coalesce into one run, so the
        materialized value is ``fl(prefix + c * count)`` regardless of
        whether the run was built one advance at a time (stepping) or in
        bulk (extrapolation replay)."""
        if c == self._epoch_c and self._epoch_n > 0:
            self._epoch_n += n
        else:
            self._epoch_prefix = self._epoch_prefix + self._epoch_c * self._epoch_n
            self._epoch_c = c
            self._epoch_n = n
        self._epoch_val = self._epoch_prefix + self._epoch_c * self._epoch_n
        if self._epoch_log is not None:
            self._epoch_log.extend([c] * n)

    def replay_pattern(self, pattern: List[float], k: int) -> None:
        """Replay ``k`` copies of a recorded epoch-advance pattern, one
        advance at a time (logs when the log is active)."""
        for _ in range(k):
            for c in pattern:
                self.advance_epoch(c)

    def replay_pattern_bulk(self, pattern: List[float], k: int) -> None:
        """Replay ``k`` copies with the log off; a uniform pattern
        collapses into one coalesced advance (bit-identical to stepping
        thanks to the run-length epoch fold)."""
        first = pattern[0]
        if all(c == first for c in pattern):
            self.advance_epoch(first, k * len(pattern))
        else:
            self.replay_pattern(pattern, k)

    def loop_rebase(self) -> None:
        """Rebase offsets at a loop-iteration boundary: subtract the
        minimum offset from every per-rank time and advance the epoch by
        it.  A no-op when some rank is still at the epoch."""
        c = self.clock.min()
        if c <= 0.0:
            return
        c = float(c)
        self.clock -= c
        for arr in self._inflight.values():
            arr -= c
        for arr in self._dr_times.values():
            arr -= c
        self.advance_epoch(c)

    @property
    def epoch(self) -> float:
        return self._epoch_val

    def absolute_clocks(self) -> np.ndarray:
        """Materialized per-rank absolute times (``epoch + offset``)."""
        return self._epoch_val + self.clock

    # ------------------------------------------------------------------
    # compute
    # ------------------------------------------------------------------
    def array_cost(self, flops, elements: np.ndarray) -> np.ndarray:
        """Per-rank cost vector of a whole-array statement (idle ranks
        pay nothing), or of a reduction's local partial combine when
        ``flops`` is at least one.  Stacked rows price at once: an
        ``(S, 1)`` flops column against ``(S, P)`` elements gives
        ``(S, P)`` costs, each row what its statement alone gives."""
        comp = self.machine.compute
        return np.where(
            elements > 0,
            comp.loop_overhead + flops * elements * comp.flop_time,
            0.0,
        )

    def charge_array_stmt(
        self, flops: int, elements: np.ndarray, label: str = ""
    ) -> None:
        self.charge_array_vec(self.array_cost(flops, elements), label)

    def charge_array_vec(self, cost: np.ndarray, label: str = "") -> None:
        if self.trace_rank is not None:
            t0 = self._epoch_val + float(self.clock[self.trace_rank])
            self._record(
                "compute", t0, t0 + float(cost[self.trace_rank]), label
            )
        self.clock += cost
        self.instrument.compute_time += cost

    def scalar_cost(self, flops: int) -> float:
        return max(flops, 1) * self.machine.compute.flop_time

    def charge_scalar_stmt(self, flops: int) -> None:
        """Replicated scalar statement: every rank executes it."""
        self.charge_scalar_cost(self.scalar_cost(flops))

    def charge_scalar_cost(self, cost: float) -> None:
        self.clock += cost
        self.instrument.compute_time += cost

    def charge_reduction(self, flops: int, elements: np.ndarray) -> None:
        self.charge_reduction_vec(
            self.array_cost(max(flops, 1), elements), self.tree_time
        )

    def charge_reduction_vec(self, partial: np.ndarray, tree_time: float) -> None:
        """Local partial combine, then a synchronizing tree combine +
        broadcast: all ranks leave at the same time."""
        self.instrument.compute_time += partial
        t = float((self.clock + partial).max())
        t += tree_time
        waited = t - (self.clock + partial)
        self.instrument.wait_time += waited
        if self.trace_rank is not None:
            r = self.trace_rank
            e = self._epoch_val
            t0 = e + float(self.clock[r])
            self._record("compute", t0, t0 + float(partial[r]), "partial")
            self._record("reduce", t0 + float(partial[r]), e + t, "tree+bcast")
        self.clock[:] = t
        self.instrument.record_reduction()

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------
    def call_op(
        self, kind: CallKind
    ) -> Callable[[CommDescriptor, TransferPlan, CallCosts], None]:
        """The bound method executing ``kind`` calls (the walk's op)."""
        return getattr(self, _CALL_OPS[kind])

    def _do_send(self, desc: CommDescriptor, plan: TransferPlan, costs: CallCosts) -> None:
        if desc.id in self._inflight:
            raise _sent_twice(desc)
        # One-way communication: a put may not start until the destination
        # signalled buffer readiness (its DR `synch` posted a flag); the
        # source blocks until the flag has crossed the wire.
        dr = self._dr_times.pop(desc.id, None)
        if dr is not None:
            senders = plan.senders_unique
            flags = _per_sender(dr, plan, self.machine.network.raw)
            clock = self.clock[senders]
            self.instrument.wait_time[senders] += np.maximum(0.0, flags - clock)
            if self.trace_rank is not None and self.trace_rank in senders:
                i = int(np.searchsorted(senders, self.trace_rank))
                e = self._epoch_val
                t0 = e + float(self.clock[self.trace_rank])
                t1 = max(t0, e + float(flags[i]))
                self._record("wait", t0, t1, f"DR flag {desc.describe()}")
            self.clock[senders] = np.maximum(clock, flags)
        send_end = self.clock[plan.senders] + costs.cum_sw
        arrivals = _per_receiver(send_end + costs.wire, plan)
        if self.trace_rank is not None:
            t0 = self._epoch_val + float(self.clock[self.trace_rank])
            t1 = t0 + float(costs.rank_sw[self.trace_rank])
            self._record("send", t0, t1, desc.describe())
        self.clock += costs.rank_sw
        self.instrument.comm_sw_time += costs.rank_sw
        self._inflight[desc.id] = arrivals
        self.instrument.record_transfer(plan)
        self.instrument.record_calls(costs.name, costs.calls)

    def _do_complete(self, desc: CommDescriptor, plan: TransferPlan, costs: CallCosts) -> None:
        arrivals = self._inflight.pop(desc.id, None)
        if arrivals is None:
            raise _never_sent(desc)
        receivers = plan.receivers_unique
        traced = self.trace_rank is not None and self.trace_rank in receivers
        if traced:
            i = int(np.searchsorted(receivers, self.trace_rank))
        if costs.sync is SyncKind.RENDEZVOUS:
            # one-way completion: the destination polls its local
            # data-complete flag.  The prototype's heavyweight
            # synchronization makes long polls expensive: a bounded
            # surcharge proportional to the wait (the paper's stated
            # penalty on inherently sequential computations).
            waited = np.maximum(0.0, arrivals - self.clock[receivers])
            surcharge = costs.spread_penalty * np.minimum(
                waited, costs.spread_cap
            )
            self.instrument.wait_time[receivers] += waited
            self.instrument.comm_sw_time[receivers] += costs.fixed + surcharge
            if traced:
                e = self._epoch_val
                t0 = e + float(self.clock[self.trace_rank])
                t_arr = max(t0, e + float(arrivals[i]))
                self._record("wait", t0, t_arr, f"DN {desc.describe()}")
                self._record(
                    "synch",
                    t_arr,
                    t_arr + costs.fixed + float(surcharge[i]),
                    desc.describe(),
                )
            self.clock[receivers] = (
                np.maximum(self.clock[receivers], arrivals)
                + costs.fixed
                + surcharge
            )
        else:
            sw = costs.rank_sw
            stall = np.maximum(0.0, arrivals - self.clock[receivers])
            self.instrument.wait_time[receivers] += stall
            self.instrument.comm_sw_time[receivers] += sw[receivers]
            if traced:
                e = self._epoch_val
                t0 = e + float(self.clock[self.trace_rank])
                t_arr = max(t0, e + float(arrivals[i]))
                self._record("wait", t0, t_arr, f"DN {desc.describe()}")
                self._record(
                    "recv",
                    t_arr,
                    t_arr + float(sw[self.trace_rank]),
                    desc.describe(),
                )
            waited = np.maximum(self.clock[receivers], arrivals)
            self.clock[receivers] = waited + sw[receivers]
        self.instrument.record_calls(costs.name, costs.calls)

    def _do_pre(self, desc: CommDescriptor, plan: TransferPlan, costs: CallCosts) -> None:
        if costs.sync is SyncKind.RENDEZVOUS:
            # the destination readies its fluff buffer and posts a flag to
            # each source; the put may not start before the flag lands
            # (enforced at SR)
            receivers = plan.receivers_unique
            if self.trace_rank is not None and self.trace_rank in receivers:
                t0 = self._epoch_val + float(self.clock[self.trace_rank])
                self._record(
                    "synch", t0, t0 + costs.fixed, f"DR {desc.describe()}"
                )
            flags = self.clock[receivers] + costs.fixed
            self.clock[receivers] = flags
            self.instrument.comm_sw_time[receivers] += costs.fixed
            self._dr_times[desc.id] = flags
        else:
            # posting receives (irecv/hprobe): fixed cost per incoming
            # message at each receiver
            self._charge_fixed(desc, costs, "recv", "DR")
        self.instrument.record_calls(costs.name, costs.calls)

    def _do_volatile(self, desc: CommDescriptor, plan: TransferPlan, costs: CallCosts) -> None:
        self._charge_fixed(desc, costs, "send", "SV")
        self.instrument.record_calls(costs.name, costs.calls)

    def _charge_fixed(
        self, desc: CommDescriptor, costs: CallCosts, kind: str, call: str
    ) -> None:
        per_rank = costs.rank_sw
        if self.trace_rank is not None:
            t0 = self._epoch_val + float(self.clock[self.trace_rank])
            self._record(
                kind,
                t0,
                t0 + float(per_rank[self.trace_rank]),
                f"{call} {desc.describe()}",
            )
        self.clock += per_rank
        self.instrument.comm_sw_time += per_rank

    # ------------------------------------------------------------------
    # single-rank ops: the vector ops above on one rank, as floats, in
    # the same order.  ``a if a >= b else b`` is ``np.maximum(a, b)`` and
    # ``a if a <= b else b`` is ``np.minimum(a, b)``: both keep ``a`` on
    # a tie.
    # ------------------------------------------------------------------
    def bind_charge(
        self, cost: np.ndarray, rank: Optional[int], label: str
    ) -> Callable[[], None]:
        """A row with one paying rank binds :meth:`charge_array_vec`'s
        scalar form: the other ranks would only add 0.0."""
        if rank is None or self.trace_rank is not None:
            return partial(self.charge_array_vec, cost, label)
        clock, compute, c = self.clock, self.instrument.compute_time, cost.item(rank)

        def charge_one() -> None:
            clock[rank] = clock.item(rank) + c
            compute[rank] = compute.item(rank) + c

        return charge_one

    def bind_call(
        self,
        kind: CallKind,
        desc: CommDescriptor,
        plan: TransferPlan,
        costs: CallCosts,
    ) -> Callable[[], None]:
        """A one-message plan binds the call's scalar form, which reads
        and writes only the message's sender and receiver."""
        if plan.message_count != 1 or self.trace_rank is not None:
            return partial(self.call_op(kind), desc, plan, costs)
        return getattr(self, _ONE_MESSAGE_OPS[kind])(desc, plan, costs)

    def _send_one(
        self, desc: CommDescriptor, plan: TransferPlan, costs: CallCosts
    ) -> Callable[[], None]:
        s, d, key = plan.senders.item(0), plan.receivers.item(0), desc.id
        nbytes = plan.nbytes.item(0)
        cum, wire, sw = costs.cum_sw.item(0), costs.wire.item(0), costs.rank_sw.item(s)
        raw = self.machine.network.raw
        clock, inflight, dr_times = self.clock, self._inflight, self._dr_times
        inst = self.instrument
        wait, comm_sw = inst.wait_time, inst.comm_sw_time
        record, name, calls = inst.record_calls, costs.name, costs.calls

        def send_one() -> None:
            if key in inflight:
                raise _sent_twice(desc)
            t = clock.item(s)
            dr = dr_times.pop(key, None)
            if dr is not None:
                # the put waits for the destination's DR flag to cross
                flag = dr.item(0) + raw
                gap = flag - t
                wait[s] = wait.item(s) + (0.0 if 0.0 >= gap else gap)
                t = t if t >= flag else flag
            inflight[key] = np.array([t + cum + wire])
            clock[s] = t + sw
            comm_sw[s] = comm_sw.item(s) + sw
            inst.record_message(s, d, nbytes)
            record(name, calls)

        return send_one

    def _complete_one(
        self, desc: CommDescriptor, plan: TransferPlan, costs: CallCosts
    ) -> Callable[[], None]:
        d, key = plan.receivers.item(0), desc.id
        clock, inflight = self.clock, self._inflight
        inst = self.instrument
        wait, comm_sw = inst.wait_time, inst.comm_sw_time
        record, name, calls = inst.record_calls, costs.name, costs.calls
        if costs.sync is SyncKind.RENDEZVOUS:
            fixed, penalty, cap = costs.fixed, costs.spread_penalty, costs.spread_cap

            def complete_one() -> None:
                arrivals = inflight.pop(key, None)
                if arrivals is None:
                    raise _never_sent(desc)
                a, t = arrivals.item(0), clock.item(d)
                waited = a - t
                waited = 0.0 if 0.0 >= waited else waited
                surcharge = penalty * (waited if waited <= cap else cap)
                wait[d] = wait.item(d) + waited
                comm_sw[d] = comm_sw.item(d) + (fixed + surcharge)
                clock[d] = (t if t >= a else a) + fixed + surcharge
                record(name, calls)

            return complete_one
        sw = costs.rank_sw.item(d)

        def complete_one() -> None:
            arrivals = inflight.pop(key, None)
            if arrivals is None:
                raise _never_sent(desc)
            a, t = arrivals.item(0), clock.item(d)
            stall = a - t
            wait[d] = wait.item(d) + (0.0 if 0.0 >= stall else stall)
            comm_sw[d] = comm_sw.item(d) + sw
            clock[d] = (t if t >= a else a) + sw
            record(name, calls)

        return complete_one

    def _pre_one(
        self, desc: CommDescriptor, plan: TransferPlan, costs: CallCosts
    ) -> Callable[[], None]:
        d = plan.receivers.item(0)
        if costs.sync is not SyncKind.RENDEZVOUS:
            return self._fixed_one(d, costs)
        key, fixed = desc.id, costs.fixed
        clock, dr_times = self.clock, self._dr_times
        comm_sw = self.instrument.comm_sw_time
        record, name, calls = self.instrument.record_calls, costs.name, costs.calls

        def pre_one() -> None:
            flag = clock.item(d) + fixed
            clock[d] = flag
            comm_sw[d] = comm_sw.item(d) + fixed
            dr_times[key] = np.array([flag])
            record(name, calls)

        return pre_one

    def _volatile_one(
        self, desc: CommDescriptor, plan: TransferPlan, costs: CallCosts
    ) -> Callable[[], None]:
        return self._fixed_one(plan.senders.item(0), costs)

    def _fixed_one(self, r: int, costs: CallCosts) -> Callable[[], None]:
        """:meth:`_charge_fixed` on its one paying rank ``r``."""
        clock, comm_sw, sw = self.clock, self.instrument.comm_sw_time, costs.rank_sw.item(r)
        record, name, calls = self.instrument.record_calls, costs.name, costs.calls

        def fixed_one() -> None:
            clock[r] = clock.item(r) + sw
            comm_sw[r] = comm_sw.item(r) + sw
            record(name, calls)

        return fixed_one

    # ------------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        """The run's execution time: the last rank to finish."""
        return self._epoch_val + float(self.clock.max())


class BatchTimingEngine(_Core):
    """The batched core: :class:`TimingEngine`'s arithmetic lifted to a
    ``(V, P)`` clock matrix — V variants, P ranks.

    Every method and block form performs the scalar core's float
    operations in the same order, elementwise along the variant axis.
    The epoch is per-variant run-length-encoded, and the advance log
    entries are ``(c, mask, n)`` tuples — ``c`` the ``(V,)`` advance,
    ``mask`` which variants advanced, ``n`` the run length.
    """

    def __init__(self, matrix: VariantMatrix, instrument: Instrumentation) -> None:
        self.matrix = matrix
        self.machine = matrix.base
        self.nprocs = matrix.base.nprocs
        self.nvariants = matrix.nvariants
        self.instrument = instrument
        self.tree_time = matrix.reduction_time
        V, P = self.nvariants, self.nprocs
        self.clock = np.zeros((V, P), dtype=np.float64)
        self._inflight: Dict[int, np.ndarray] = {}
        self._dr_times: Dict[int, np.ndarray] = {}
        #: plan signature -> its DN receive block (:meth:`_receive_block`)
        self._recv_sw: Dict[Tuple, np.ndarray] = {}
        self._epoch_prefix = np.zeros(V, dtype=np.float64)
        self._epoch_c = np.zeros(V, dtype=np.float64)
        self._epoch_n = np.zeros(V, dtype=np.int64)
        self._epoch_val = np.zeros(V, dtype=np.float64)
        self._epoch_log: Optional[List[Tuple]] = None

    def bind_costs(self, costs: CallCosts) -> CallCosts:
        """This core's view of priced costs: every variant."""
        return costs

    # -- epoch ----------------------------------------------------------
    def advance_epoch(
        self, c: np.ndarray, mask: np.ndarray, n: int = 1
    ) -> None:
        """Per-variant run-length epoch fold: variants where ``mask`` is
        set fold ``n`` advances of ``c[v]``; the rest are untouched.
        Elementwise mirror of the scalar core's ``advance_epoch``."""
        coalesce = mask & (c == self._epoch_c) & (self._epoch_n > 0)
        start = mask & ~coalesce
        if coalesce.any():
            self._epoch_n[coalesce] += n
        if start.any():
            self._epoch_prefix[start] = (
                self._epoch_prefix[start]
                + self._epoch_c[start] * self._epoch_n[start]
            )
            self._epoch_c[start] = c[start]
            self._epoch_n[start] = n
        np.copyto(
            self._epoch_val,
            self._epoch_prefix + self._epoch_c * self._epoch_n,
            where=mask,
        )
        if self._epoch_log is not None:
            self._epoch_log.extend([(c, mask, 1)] * n)

    def replay_pattern(self, pattern: List[Tuple], k: int) -> None:
        for _ in range(k):
            for c, mask, n in pattern:
                self.advance_epoch(c, mask, n)

    def replay_pattern_bulk(self, pattern: List[Tuple], k: int) -> None:
        c0, m0, n0 = pattern[0]
        uniform = all(
            n == n0 and np.array_equal(c, c0) and np.array_equal(mask, m0)
            for c, mask, n in pattern[1:]
        )
        if uniform:
            # the run-length fold makes one coalesced advance of
            # k * len * n identical to stepping them one at a time
            self.advance_epoch(c0, m0, k * len(pattern) * n0)
        else:
            self.replay_pattern(pattern, k)

    def loop_rebase(self) -> None:
        """Rebase each variant's offsets independently (``x - 0.0`` is a
        bitwise identity, so variants still at the epoch are genuinely
        untouched, matching the scalar core's early return)."""
        c = self.clock.min(axis=1)
        mask = c > 0.0
        if not mask.any():
            return
        sub = np.where(mask, c, 0.0)[:, None]
        self.clock -= sub
        for arr in self._inflight.values():
            arr -= sub
        for arr in self._dr_times.values():
            arr -= sub
        self.advance_epoch(c, mask)

    def absolute_clocks(self) -> np.ndarray:
        return self._epoch_val[:, None] + self.clock

    def elapsed(self) -> np.ndarray:
        """Per-variant execution time: the last rank to finish."""
        return self._epoch_val + self.clock.max(axis=1)

    # -- compute ---------------------------------------------------------
    def array_cost(self, flops, elements: np.ndarray) -> np.ndarray:
        """``(V, P)`` costs, or ``(S, V, P)`` for stacked rows."""
        m = self.matrix
        return np.where(
            elements[..., None, :] > 0,
            m.loop_overhead[:, None]
            + (flops * elements)[..., None, :] * m.flop_time[:, None],
            0.0,
        )

    def charge_array_vec(self, cost: np.ndarray, label: str = "") -> None:
        self.clock += cost

    def scalar_cost(self, flops: int) -> np.ndarray:
        return max(flops, 1) * self.matrix.flop_time

    def charge_scalar_cost(self, cost: np.ndarray) -> None:
        self.clock += cost[:, None]

    def charge_reduction_vec(
        self, partial: np.ndarray, tree_time: np.ndarray
    ) -> None:
        t = (self.clock + partial).max(axis=1)
        t = t + tree_time
        self.clock[:] = t[:, None]
        self.instrument.record_reduction()

    # -- communication: block forms --------------------------------------
    def bind_call(
        self,
        kind: CallKind,
        desc: CommDescriptor,
        plan: TransferPlan,
        costs: CallCosts,
    ) -> Callable[[], None]:
        """The call's block form: a closure over the clock matrix, the
        in-flight and DR-flag tables, the plan's index arrays as ``intp``
        and the call's cost blocks, doing the scalar core's operations
        elementwise over the variants."""
        return getattr(self, _BLOCK_FORMS[kind])(desc, plan, costs)

    def _send_block(
        self, desc: CommDescriptor, plan: TransferPlan, costs: CallCosts
    ) -> Callable[[], None]:
        key, raw = desc.id, self.matrix.net_raw[:, None]
        senders, senders_unique = plan.senders, plan.senders_unique
        order, fan_in = plan.grouping.order, plan.grouping.fan_in
        cum_sw, wire, rank_sw = costs.cum_sw, costs.wire, costs.rank_sw
        clock, inflight, dr_times = self.clock, self._inflight, self._dr_times
        counts, block = self.instrument.counts, plan.count_block
        add, maximum = np.add, np.maximum

        def send_block() -> None:
            if key in inflight:
                raise _sent_twice(desc)
            dr = dr_times.pop(key, None)
            if dr is not None:
                # the put blocks until the destination's DR flag crossed the wire
                flags = _per_sender(dr, plan, raw)
                clock[:, senders_unique] = maximum(
                    clock.take(senders_unique, axis=1), flags
                )
            t = clock.take(senders, axis=1)
            t += cum_sw
            t += wire
            if order is not None:
                t = t.take(order, axis=1)
            if fan_in is not None:
                t = maximum.reduceat(t, fan_in, axis=1)
            inflight[key] = t
            add(clock, rank_sw, out=clock)
            add(counts, block, out=counts)

        return send_block

    def _complete_block(
        self, desc: CommDescriptor, plan: TransferPlan, costs: CallCosts
    ) -> Callable[[], None]:
        key, receivers = desc.id, plan.receivers_unique
        clock, inflight = self.clock, self._inflight
        maximum, minimum = np.maximum, np.minimum
        if costs.sync is SyncKind.RENDEZVOUS:
            fixed, penalty, cap = costs.fixed, costs.spread_penalty, costs.spread_cap

            def complete_block() -> None:
                a = inflight.pop(key, None)
                if a is None:
                    raise _never_sent(desc)
                c = clock.take(receivers, axis=1)
                waited = maximum(0.0, a - c)
                surcharge = penalty * minimum(waited, cap)
                clock[:, receivers] = maximum(c, a) + fixed + surcharge

            return complete_block
        recv_sw = self._receive_block(plan, costs)

        def complete_block() -> None:
            a = inflight.pop(key, None)
            if a is None:
                raise _never_sent(desc)
            c = clock.take(receivers, axis=1)
            maximum(c, a, out=c)
            c += recv_sw
            clock[:, receivers] = c

        return complete_block

    def _receive_block(self, plan: TransferPlan, costs: CallCosts) -> np.ndarray:
        """A DN's receive totals over ``plan.receivers_unique``, ``(V, R)``:
        gathered once per plan signature and run, shared by every DN op
        on it (equal signatures price equally)."""
        block = self._recv_sw.get(plan.signature)
        if block is None:
            block = self._recv_sw[plan.signature] = costs.rank_sw.take(
                plan.receivers_unique, axis=1
            )
        return block

    def _pre_block(
        self, desc: CommDescriptor, plan: TransferPlan, costs: CallCosts
    ) -> Callable[[], None]:
        clock = self.clock
        if costs.sync is not SyncKind.RENDEZVOUS:
            rank_sw, add = costs.rank_sw, np.add

            def pre_block() -> None:
                add(clock, rank_sw, out=clock)

            return pre_block
        key, receivers, fixed = desc.id, plan.receivers_unique, costs.fixed
        dr_times = self._dr_times

        def pre_block() -> None:
            flags = clock.take(receivers, axis=1)
            flags += fixed
            clock[:, receivers] = flags
            dr_times[key] = flags

        return pre_block

    def _volatile_block(
        self, desc: CommDescriptor, plan: TransferPlan, costs: CallCosts
    ) -> Callable[[], None]:
        clock, rank_sw, add = self.clock, costs.rank_sw, np.add

        def volatile_block() -> None:
            add(clock, rank_sw, out=clock)

        return volatile_block
