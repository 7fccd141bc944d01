"""The per-rank timing engine.

SPMD control flow is identical on every rank (scalar state is
replicated), so the simulator advances all ranks through the same
statement sequence and keeps a *clock vector* — one float per rank.  The
interesting dynamics live entirely in the communication calls:

``SR``
    Each sender is charged the send primitive's software cost per
    outgoing message (sequentially); each message's arrival time at its
    receiver is ``sender-clock-after-injection + latency + bytes/BW``.
    Arrivals are stored until DN.

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

Clock representation
--------------------
The engine keeps per-rank clocks as **offsets from a shared epoch**.  At
the end of every loop iteration the executor calls :meth:`loop_rebase`,
which subtracts the minimum offset from the clock vector (and every
stored arrival/flag vector) and folds it into the epoch.  The epoch is
stored run-length-encoded (``prefix + c * n`` for the current run of
identical advances), so that stepping a loop N times and replaying one
recorded advance pattern N times fold the epoch through the *identical*
float operations.  This is what makes the compiled fast path's
steady-state extrapolation (:mod:`repro.runtime.schedule`) bit-exact:
once the rebased state repeats bitwise with some period, every later
period advances the epoch by the same sequence of run-length-coalesced
amounts, and absolute clocks are always materialized as
``epoch + offset`` in both paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import RuntimeFault
from repro.ironman.calls import CallKind
from repro.machine.params import Machine, SyncKind
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


@dataclass
class TimingEngine:
    machine: Machine
    instrument: Instrumentation
    #: rank whose timeline is recorded (None: tracing off)
    trace_rank: Optional[int] = None
    trace: List["TraceEvent"] = field(default_factory=list)
    #: per-rank clock *offsets* from the epoch (absolute = epoch + offset)
    clock: np.ndarray = field(init=False)
    #: desc id -> per-rank arrival times of the in-flight execution
    _inflight: Dict[int, np.ndarray] = field(init=False, default_factory=dict)
    #: desc id -> per-rank destination-ready (DR flag) times
    _dr_times: Dict[int, np.ndarray] = field(init=False, default_factory=dict)
    #: run-length-encoded epoch: value = prefix + epoch_c * epoch_n
    _epoch_prefix: float = field(init=False, default=0.0)
    _epoch_c: float = field(init=False, default=0.0)
    _epoch_n: int = field(init=False, default=0)
    _epoch_val: float = field(init=False, default=0.0)
    #: advance log for the fast path's steady-state monitor (None: off)
    _epoch_log: Optional[List[float]] = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.clock = np.zeros(self.machine.nprocs, dtype=np.float64)

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
    def array_cost(self, flops: int, elements: np.ndarray) -> np.ndarray:
        """Per-rank cost vector of a whole-array statement (idle ranks
        pay nothing).  Pure function of invariants — the fast path
        precomputes it once per statement."""
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

    def reduction_cost(self, flops: int, elements: np.ndarray) -> np.ndarray:
        """Per-rank local partial-combine cost of a reduction."""
        comp = self.machine.compute
        return np.where(
            elements > 0,
            comp.loop_overhead + max(flops, 1) * elements * comp.flop_time,
            0.0,
        )

    def charge_reduction(self, flops: int, elements: np.ndarray) -> None:
        self.charge_reduction_vec(
            self.reduction_cost(flops, elements),
            self.machine.reduction.time(self.machine.nprocs),
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
    def comm_call(self, kind: CallKind, plan: TransferPlan) -> None:
        """Execute one IRONMAN call of one transfer on all ranks."""
        prim_name = self.machine.binding.primitive(kind)
        prim = self.machine.primitive(prim_name)
        if plan.message_count == 0:
            return  # nothing to move on this machine: calls find no work

        if kind is CallKind.SR:
            vecs = plan.prim_vectors(prim, self.machine.network)
            self._do_send(plan, vecs, prim_name)
        elif kind is CallKind.DN:
            self._do_complete(plan, prim, prim_name)
        elif kind is CallKind.DR:
            self._do_pre(plan, prim, prim_name)
        elif kind is CallKind.SV:
            self._do_volatile(plan, prim, prim_name)

    # -- SR -------------------------------------------------------------
    def _do_send(self, plan: TransferPlan, vecs, prim_name: str) -> None:
        """``vecs`` is the plan's ``prim_vectors`` entry for the bound
        primitive: the compiled path resolves it once at lowering."""
        if plan.desc.id in self._inflight:
            raise RuntimeFault(
                f"transfer {plan.desc.describe()} initiated twice without "
                "completion — optimizer produced an illegal schedule"
            )
        # One-way communication: a put may not start until the destination
        # signalled buffer readiness (its DR `synch` posted a flag); the
        # source blocks until the flag has crossed the wire.
        dr = self._dr_times.pop(plan.desc.id, None)
        if dr is not None:
            flag_ready = np.full(self.machine.nprocs, -np.inf)
            np.maximum.at(
                flag_ready,
                plan.senders,
                dr[plan.receivers] + self.machine.network.raw,
            )
            waiting = plan.participants & np.isfinite(flag_ready)
            flag_wait = np.maximum(
                0.0, flag_ready[waiting] - self.clock[waiting]
            )
            self.instrument.wait_time[waiting] += flag_wait
            if self.trace_rank is not None and waiting[self.trace_rank]:
                e = self._epoch_val
                t0 = e + float(self.clock[self.trace_rank])
                t1 = max(t0, e + float(flag_ready[self.trace_rank]))
                self._record("wait", t0, t1, f"DR flag {plan.desc.describe()}")
            self.clock[waiting] = np.maximum(
                self.clock[waiting], flag_ready[waiting]
            )
        arrivals = np.full(self.machine.nprocs, -np.inf)
        send_end = self.clock[plan.senders] + vecs.cum_sw
        np.maximum.at(arrivals, plan.receivers, send_end + vecs.wire)
        if self.trace_rank is not None:
            t0 = self._epoch_val + float(self.clock[self.trace_rank])
            t1 = t0 + float(vecs.total_sw_by_rank[self.trace_rank])
            self._record("send", t0, t1, plan.desc.describe())
        self.clock += vecs.total_sw_by_rank
        self.instrument.comm_sw_time += vecs.total_sw_by_rank
        self._inflight[plan.desc.id] = arrivals
        self.instrument.record_transfer(plan)
        self.instrument.record_calls(prim_name, vecs.callers)

    # -- DN -------------------------------------------------------------
    def _do_complete(self, plan: TransferPlan, prim, prim_name: str) -> None:
        arrivals = self._inflight.pop(plan.desc.id, None)
        if arrivals is None:
            raise RuntimeFault(
                f"completion of {plan.desc.describe()} before initiation — "
                "optimizer produced an illegal schedule"
            )
        receivers = plan.receivers_unique
        if prim.sync is SyncKind.RENDEZVOUS:
            # one-way completion: the destination polls its local
            # data-complete flag.  The prototype's heavyweight
            # synchronization makes long polls expensive: a bounded
            # surcharge proportional to the wait (the paper's stated
            # penalty on inherently sequential computations).
            waited = np.maximum(
                0.0, arrivals[receivers] - self.clock[receivers]
            )
            surcharge = prim.spread_penalty * np.minimum(
                waited, prim.spread_cap
            )
            self.instrument.wait_time[receivers] += waited
            self.instrument.comm_sw_time[receivers] += prim.fixed + surcharge
            if self.trace_rank is not None and self.trace_rank in receivers:
                i = int(np.searchsorted(receivers, self.trace_rank))
                e = self._epoch_val
                t0 = e + float(self.clock[self.trace_rank])
                t_arr = max(t0, e + float(arrivals[self.trace_rank]))
                self._record("wait", t0, t_arr, f"DN {plan.desc.describe()}")
                self._record(
                    "synch",
                    t_arr,
                    t_arr + prim.fixed + float(surcharge[i]),
                    plan.desc.describe(),
                )
            self.clock[receivers] = (
                np.maximum(self.clock[receivers], arrivals[receivers])
                + prim.fixed
                + surcharge
            )
        else:
            sw = plan.recv_sw_by_rank(prim)
            stall = np.maximum(
                0.0, arrivals[receivers] - self.clock[receivers]
            )
            self.instrument.wait_time[receivers] += stall
            self.instrument.comm_sw_time[receivers] += sw[receivers]
            if self.trace_rank is not None and self.trace_rank in receivers:
                e = self._epoch_val
                t0 = e + float(self.clock[self.trace_rank])
                t_arr = max(t0, e + float(arrivals[self.trace_rank]))
                self._record("wait", t0, t_arr, f"DN {plan.desc.describe()}")
                self._record(
                    "recv",
                    t_arr,
                    t_arr + float(sw[self.trace_rank]),
                    plan.desc.describe(),
                )
            waited = np.maximum(self.clock[receivers], arrivals[receivers])
            self.clock[receivers] = waited + sw[receivers]
        self.instrument.record_calls(prim_name, len(receivers))

    # -- DR -------------------------------------------------------------
    def _do_pre(self, plan: TransferPlan, prim, prim_name: str) -> None:
        receivers = plan.receivers_unique
        if prim.sync is SyncKind.RENDEZVOUS:
            # the destination readies its fluff buffer and posts a flag to
            # each source; the put may not start before the flag lands
            # (enforced at SR)
            if self.trace_rank is not None and self.trace_rank in receivers:
                t0 = self._epoch_val + float(self.clock[self.trace_rank])
                self._record(
                    "synch", t0, t0 + prim.fixed, f"DR {plan.desc.describe()}"
                )
            self.clock[receivers] += prim.fixed
            self.instrument.comm_sw_time[receivers] += prim.fixed
            self._dr_times[plan.desc.id] = self.clock.copy()
        else:
            # posting receives (irecv/hprobe): fixed cost per incoming
            # message at each receiver
            per_recv = plan.fixed_by_rank("recv", prim.fixed)
            if self.trace_rank is not None:
                t0 = self._epoch_val + float(self.clock[self.trace_rank])
                self._record(
                    "recv",
                    t0,
                    t0 + float(per_recv[self.trace_rank]),
                    f"DR {plan.desc.describe()}",
                )
            self.clock += per_recv
            self.instrument.comm_sw_time += per_recv
        self.instrument.record_calls(prim_name, len(receivers))

    # -- SV -------------------------------------------------------------
    def _do_volatile(self, plan: TransferPlan, prim, prim_name: str) -> None:
        senders = plan.senders_unique
        per_send = plan.fixed_by_rank("send", prim.fixed)
        if self.trace_rank is not None:
            t0 = self._epoch_val + float(self.clock[self.trace_rank])
            self._record(
                "send",
                t0,
                t0 + float(per_send[self.trace_rank]),
                f"SV {plan.desc.describe()}",
            )
        self.clock += per_send
        self.instrument.comm_sw_time += per_send
        self.instrument.record_calls(prim_name, len(senders))

    # ------------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        """The run's execution time: the last rank to finish."""
        return self._epoch_val + float(self.clock.max())

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
