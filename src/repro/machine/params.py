"""Machine parameter models.

All times are seconds, all sizes bytes.  The central object is
:class:`PrimitiveCost`, the software-overhead model of one communication
primitive:

``sw(n) = fixed + per_byte * n + max(0, n - knee_bytes) * per_byte_beyond``

With ``per_byte = 0`` this is flat up to the knee and linear beyond — the
shape the paper measures in Figure 6.  Setting ``per_byte_beyond`` near
``fixed / knee_bytes`` makes combining two knee-sized messages roughly
cost-neutral, reproducing the paper's finding that combining helps up to
512 doubles (4 KB) and not beyond.

Primitives also carry a :class:`SyncKind` telling the timing engine what
the call *waits for*; costs alone don't capture rendezvous semantics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import MachineError
from repro.ironman.bindings import Binding


class SyncKind(enum.Enum):
    """What a primitive synchronizes with, beyond charging its own cost."""

    #: Charges cost only (send initiation, probe, posting a receive).
    LOCAL = "local"
    #: Blocks until the matching message has arrived (crecv, pvm_recv,
    #: msgwait at DN).
    WAIT_ARRIVAL = "wait-arrival"
    #: Blocks until this rank's own outstanding sends are complete
    #: (msgwait at SV).
    WAIT_SEND = "wait-send"
    #: Pairwise neighbour rendezvous: the caller synchronizes with its
    #: transfer partners (T3D SHMEM ``synch`` — the heavyweight prototype
    #: synchronization the paper describes).
    RENDEZVOUS = "rendezvous"


@dataclass(frozen=True)
class PrimitiveCost:
    """Software-overhead model for one primitive.

    ``spread_penalty`` / ``spread_cap`` apply to RENDEZVOUS primitives
    only: a late-arriving participant pays
    ``spread_penalty * min(lateness, spread_cap)`` extra, where lateness
    is how long its earliest partner waited.  This models the prototype
    SHMEM ``synch`` the paper describes as "unnecessarily heavy-weight":
    an early partner polls by writing/reading flags in the late partner's
    memory, stealing cycles from the party that is still computing (the
    cap bounds the interference — polling only overlaps the tail of the
    late side's in-progress work).  In balanced code the spread is ~0 and
    the term vanishes; in inherently sequential sections it throttles the
    wavefront — the behaviour behind the paper's TOMCATV/SP degradation
    under ``pl with shmem``.
    """

    name: str
    fixed: float
    per_byte: float = 0.0
    knee_bytes: int = 4096
    per_byte_beyond: float = 0.0
    sync: SyncKind = SyncKind.LOCAL
    spread_penalty: float = 0.0
    spread_cap: float = 25.0e-6
    #: one-sided primitives ride the raw remote-access wire, not the
    #: message-passing transit path
    raw_wire: bool = False

    def sw(self, nbytes: int) -> float:
        """Software overhead of one call moving ``nbytes``."""
        extra = max(0, nbytes - self.knee_bytes)
        return self.fixed + self.per_byte * nbytes + self.per_byte_beyond * extra


@dataclass(frozen=True)
class NetworkParams:
    """Wire model: a message of ``n`` bytes injected at time ``t`` arrives
    at ``t + latency + n / bandwidth``.

    ``latency`` is the end-to-end transit of a *message-passing* message
    (including library-side staging); ``raw_latency`` is the bare remote
    memory access latency that one-sided operations (puts, readiness
    flags) ride.  On the T3D the two differ by an order of magnitude.
    """

    latency: float
    bandwidth: float  # bytes / second
    raw_latency: Optional[float] = None

    @property
    def raw(self) -> float:
        return self.raw_latency if self.raw_latency is not None else self.latency

    def transfer_time(self, nbytes: int, raw_wire: bool = False) -> float:
        lat = self.raw if raw_wire else self.latency
        return lat + nbytes / self.bandwidth


@dataclass(frozen=True)
class ComputeParams:
    """Node compute model: an array statement with ``f`` flops per element
    over ``e`` local elements costs ``f * e * flop_time`` plus a fixed
    per-statement loop overhead."""

    flop_time: float
    loop_overhead: float = 1.0e-6


@dataclass(frozen=True)
class ReductionParams:
    """Collective model: a global reduction (combine + broadcast) over P
    processors costs ``2 * ceil(log2 P) * stage_cost`` after synchronizing
    all participants."""

    stage_cost: float

    def time(self, nprocs: int) -> float:
        if nprocs <= 1:
            return self.stage_cost
        return 2.0 * math.ceil(math.log2(nprocs)) * self.stage_cost


@dataclass(frozen=True)
class Machine:
    """A fully parameterized simulated machine.

    Attributes
    ----------
    name, clock_mhz, timer_granularity:
        Descriptive (the paper's Figure 3 rows).
    nprocs, grid_shape:
        Processor count and its 2-D virtual mesh factorization.
    library, binding:
        The communication library and its IRONMAN binding.
    primitives:
        Primitive name -> cost model; must cover every primitive the
        binding names (``noop`` is implicit).
    network, compute, reduction:
        Wire, node-compute, and collective models.
    """

    name: str
    clock_mhz: float
    timer_granularity: float
    nprocs: int
    grid_shape: Tuple[int, int]
    library: str
    binding: Binding
    primitives: Dict[str, PrimitiveCost]
    network: NetworkParams
    compute: ComputeParams
    reduction: ReductionParams

    def __post_init__(self) -> None:
        pr, pc = self.grid_shape
        if pr * pc != self.nprocs or pr <= 0 or pc <= 0:
            raise MachineError(
                f"grid {self.grid_shape} does not tile {self.nprocs} processors"
            )
        for kind_name, prim in self.binding.as_rows():
            if prim != "noop" and prim not in self.primitives:
                raise MachineError(
                    f"binding maps {kind_name} to {prim!r} but machine "
                    f"{self.name!r} has no cost model for it"
                )

    def primitive(self, name: str) -> PrimitiveCost:
        if name == "noop":
            return _NOOP
        try:
            return self.primitives[name]
        except KeyError:
            raise MachineError(
                f"machine {self.name!r} has no primitive {name!r}"
            ) from None

    def exposed_overhead(self, nbytes: int) -> float:
        """Software overhead of one complete transfer of ``nbytes`` when
        the wire time is fully hidden by computation — the quantity the
        paper's Figure 6 synthetic benchmark measures (sum of the four
        IRONMAN calls' software costs)."""
        total = 0.0
        for _, prim_name in self.binding.as_rows():
            prim = self.primitive(prim_name)
            # per-byte costs apply to the calls that touch the data
            n = nbytes if prim_name in _DATA_TOUCHING else 0
            total += prim.sw(n)
        return total

    def describe(self) -> str:
        pr, pc = self.grid_shape
        return (
            f"{self.name} ({self.clock_mhz:.0f} MHz), {self.nprocs} procs "
            f"as {pr}x{pc} mesh, {self.library} "
            f"(timer ~{self.timer_granularity * 1e9:.0f} ns)"
        )


#: Primitives whose software cost scales with message size (they copy or
#: inject the payload); synchronization and wait primitives are size-free.
_DATA_TOUCHING = {
    "csend",
    "crecv",
    "isend",
    "hsend",
    "hrecv",
    "pvm_send",
    "pvm_recv",
    "shmem_put",
}

_NOOP = PrimitiveCost("noop", fixed=0.0)
