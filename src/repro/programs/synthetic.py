"""The synthetic overhead benchmark (the paper's Figure 6).

The paper measures the *exposed* communication cost — the software
overhead that computation cannot hide — by bouncing a message between two
dedicated nodes 10000 times with busy loops between the communication
calls, sized so the wire time is fully overlapped; the busy-loop time is
then subtracted.

We reproduce the measurement through the whole stack: for each message
size a small ZL program is generated (the direction offset must be a
literal, hence generation), compiled with full optimization so DR/SR
hoist above the busy statement, and run on a two-node partition of the
simulated machine.  The exposed cost per repetition is
``(T(with transfer) - T(busy only)) / reps``.

:func:`measured_overhead` runs the simulation; :func:`analytic_overhead`
asks the machine's cost model directly.  A test asserts they agree — the
simulated machine faithfully exposes its own primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.comm import OptimizationConfig
from repro.machine.params import Machine
from repro.programs.common import compile_source
from repro.runtime import ExecutionMode, simulate

#: Message sizes (in doubles) swept by the Figure 6 experiment.
DEFAULT_SIZES = (8, 32, 128, 512, 1024, 2048, 4096)

def ping_source(size_doubles: int, busy_elems: int, reps: int, with_comm: bool) -> str:
    """Generate the ZL ping program for one message size.

    A 1 x 2*size array is split across the two processors of a 1x2 mesh;
    reading ``A@off`` with offset ``(0, size)`` moves exactly ``size``
    doubles from node 1 to node 0 per repetition.  The busy statement
    (``W``) sits between the transfer's initiation and completion once
    pipelining hoists DR/SR, hiding the wire time.  ``with_comm=False``
    generates the control program used for busy-loop subtraction.
    """
    m = int(size_doubles)
    nb = max(int(busy_elems), m)
    # identical statement shapes (same flop count) so the subtraction
    # isolates communication cost exactly.  The exchange is symmetric
    # (each node sends one strip and receives one strip per repetition)
    # so every node pays one full DR/SR/DN/SV set per repetition — the
    # quantity Figure 6 plots.
    fwd = "B := A@off * 1.0001 + 0.5;" if with_comm else "B := A * 1.0001 + 0.5;"
    bwd = (
        "C := A@back * 1.0001 + 0.5;" if with_comm else "C := A * 1.0001 + 0.5;"
    )
    return f"""
program ping;

config reps : integer = {int(reps)};

-- every array shares one region so the two nodes split it identically;
-- the directions jump across the partition boundary at column {nb},
-- and reading them over {m}-column strips moves exactly {m} doubles
-- each way per repetition
region Data  = [1..1, 1..{2 * nb}];
region HalfL = [1..1, 1..{m}];
region HalfR = [1..1, {nb + 1}..{nb + m}];

direction off  = [0,  {nb}];
direction back = [0, -{nb}];

var A, B, C, W : [Data] double;

procedure main();
begin
  [Data] A := index2 * 0.5;
  [Data] W := 1.0;
  for r := 1 to reps do
    [Data] W := W * 1.000001 + 0.000001 * W * W - 0.0000001 * W * W * W;
    [HalfL] {fwd}
    [HalfR] {bwd}
  end;
end;
"""


@dataclass
class OverheadPoint:
    """One point of the Figure 6 curve."""

    size_doubles: int
    size_bytes: int
    exposed_seconds: float

    @property
    def exposed_microseconds(self) -> float:
        return self.exposed_seconds * 1e6


def _busy_elems_for(machine: Machine, size_doubles: int) -> int:
    """Busy elements per node sized so the busy statement's compute time
    exceeds the worst-case wire time of the transfer (the paper: "the
    loop performs enough computation to hide the transmission time")."""
    wire = machine.network.transfer_time(size_doubles * 8)
    flops_per_elem = 8  # of the generated busy statement
    elems = wire / (flops_per_elem * machine.compute.flop_time)
    return max(256, int(elems * 2))


def measured_overhead(
    machine_factory,
    library: str,
    sizes: Sequence[int] = DEFAULT_SIZES,
    reps: int = 1000,
) -> List[OverheadPoint]:
    """Run the synthetic benchmark on a 2-node partition.

    Parameters
    ----------
    machine_factory:
        ``repro.machine.paragon`` or ``repro.machine.t3d``.
    library:
        Communication library name understood by the factory.
    sizes:
        Message sizes in doubles.
    reps:
        Repetitions (the simulator is deterministic; 1000 is plenty).
    """
    machine = machine_factory(2, library)
    opt = OptimizationConfig.full()
    points: List[OverheadPoint] = []
    for size in sizes:
        nb = _busy_elems_for(machine, size)
        timed = compile_source(
            ping_source(size, nb, reps, with_comm=True), "ping.zl", opt=opt
        )
        control = compile_source(
            ping_source(size, nb, reps, with_comm=False), "ping.zl", opt=opt
        )
        t_comm = simulate(timed, machine, ExecutionMode.TIMING).time
        t_busy = simulate(control, machine, ExecutionMode.TIMING).time
        exposed = (t_comm - t_busy) / reps
        points.append(
            OverheadPoint(
                size_doubles=size,
                size_bytes=size * 8,
                exposed_seconds=exposed,
            )
        )
    return points


def analytic_overhead(
    machine_factory, library: str, sizes: Sequence[int] = DEFAULT_SIZES
) -> List[OverheadPoint]:
    """The same curve straight from the machine's cost model."""
    machine = machine_factory(2, library)
    return [
        OverheadPoint(
            size_doubles=size,
            size_bytes=size * 8,
            exposed_seconds=machine.exposed_overhead(size * 8),
        )
        for size in sizes
    ]
