"""The optimization driver: the paper's "instrumented compiler".

:func:`optimize` rebuilds an IR program with communication generated and
optimized per :class:`OptimizationConfig`.  Each optimization can be
switched independently, which is how the paper's experiment keys are
formed:

=============  ====  ====  ====  ===============
experiment     rr    cc    pl    heuristic
=============  ====  ====  ====  ===============
baseline       off   off   off   —
rr             on    off   off   —
cc             on    on    off   max_combining
pl             on    on    on    max_combining
pl_maxlat      on    on    on    max_latency
=============  ====  ====  ====  ===============

(The library — PVM vs SHMEM vs NX — is a *machine* property, not a
compiler property; the same optimized program runs against any binding.)

:func:`optimize_with_report` walks the program body, threading the
inter-block available set through structured statements, and hands each
basic block to :func:`~repro.comm.passes.run_block`, which runs the
selected passes in their one order.  It also returns the per-pass
:class:`~repro.comm.passes.PipelineReport`, which the experiment engine
records in job telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.comm.combining import HEURISTICS
from repro.comm.interblock import AvailableSet
from repro.comm.passes import PipelineReport, run_block
from repro.errors import OptimizationError
from repro.ir import nodes as ir
from repro.obs import core as obs


@dataclass(frozen=True)
class OptimizationConfig:
    """Which communication optimizations to apply.

    Attributes
    ----------
    rr:
        Redundant communication removal.
    cc:
        Communication combination.  The paper always enables ``rr``
        together with ``cc`` (its experiments are cumulative); this class
        permits any combination.
    pl:
        Communication pipelining.
    combine_heuristic:
        ``"max_combining"`` (default, used unless otherwise noted in the
        paper) or ``"max_latency"``.
    """

    rr: bool = False
    cc: bool = False
    pl: bool = False
    combine_heuristic: str = "max_combining"
    #: extension beyond the paper (its Section 4 future work): forward
    #: dataflow of available transfers across basic-block boundaries,
    #: removing redundancy the per-block pass cannot see.  Requires rr.
    rr_interblock: bool = False

    def __post_init__(self) -> None:
        if self.combine_heuristic not in HEURISTICS:
            raise OptimizationError(
                f"unknown combining heuristic {self.combine_heuristic!r}"
            )
        if self.rr_interblock and not self.rr:
            raise OptimizationError(
                "rr_interblock extends redundancy removal; enable rr too"
            )

    # -- the paper's experiment keys ------------------------------------
    @classmethod
    def baseline(cls) -> "OptimizationConfig":
        """Message vectorization only."""
        return cls()

    @classmethod
    def rr_only(cls) -> "OptimizationConfig":
        return cls(rr=True)

    @classmethod
    def rr_cc(cls) -> "OptimizationConfig":
        return cls(rr=True, cc=True)

    @classmethod
    def full(cls) -> "OptimizationConfig":
        return cls(rr=True, cc=True, pl=True)

    @classmethod
    def full_max_latency(cls) -> "OptimizationConfig":
        return cls(rr=True, cc=True, pl=True, combine_heuristic="max_latency")

    def describe(self) -> str:
        parts = []
        if self.rr:
            parts.append("rr+ib" if self.rr_interblock else "rr")
        if self.cc:
            parts.append(
                "cc" if self.combine_heuristic == "max_combining" else "cc(maxlat)"
            )
        if self.pl:
            parts.append("pl")
        return "+".join(parts) if parts else "baseline"

    def signature(self) -> Tuple[str, ...]:
        """Identity strings of the passes this config runs, in order.

        The engine fingerprints them (so a renamed or re-parameterized
        pass misses the result cache), every :class:`PipelineReport`
        carries them, and each ``pass:<name>`` span is tagged with its
        own.
        """
        passes = (
            (self.rr, "redundancy"),
            (self.rr_interblock, "interblock"),
            (self.cc, f"combining[{self.combine_heuristic}]"),
            (self.pl, "pipelining"),
        )
        return tuple(name for on, name in passes if on)


def _optimize_body(
    body: List[ir.IRStmt],
    config: OptimizationConfig,
    report: PipelineReport,
    verify: bool,
) -> List[ir.IRStmt]:
    # the inter-block available set along this statement list
    avail: Optional[AvailableSet] = {} if config.rr_interblock else None
    out: List[ir.IRStmt] = []
    for stmt in body:
        if isinstance(stmt, ir.Block):
            new_block, planned, stats = run_block(stmt, config, avail, verify)
            report.record_block(planned, len(new_block.descriptors()), stats)
            out.append(new_block)
            continue
        if isinstance(stmt, ir.ForLoop):
            out.append(
                ir.ForLoop(
                    var=stmt.var,
                    low=stmt.low,
                    high=stmt.high,
                    step=stmt.step,
                    body=_optimize_body(stmt.body, config, report, verify),
                )
            )
        elif isinstance(stmt, ir.RepeatLoop):
            out.append(
                ir.RepeatLoop(
                    body=_optimize_body(stmt.body, config, report, verify),
                    cond=stmt.cond,
                    max_trips=stmt.max_trips,
                )
            )
        elif isinstance(stmt, ir.IfStmt):
            out.append(
                ir.IfStmt(
                    arms=[
                        (cond, _optimize_body(arm, config, report, verify))
                        for cond, arm in stmt.arms
                    ],
                    orelse=_optimize_body(stmt.orelse, config, report, verify),
                )
            )
        else:  # pragma: no cover - defensive
            raise OptimizationError(f"unexpected IR statement {stmt!r}")
        # conservative dataflow: a structured statement's bodies start
        # with nothing available and contribute nothing to the code
        # after it
        if avail is not None:
            avail.clear()
    return out


def optimize_with_report(
    program: ir.IRProgram,
    config: OptimizationConfig,
    verify: bool = False,
) -> Tuple[ir.IRProgram, PipelineReport]:
    """Like :func:`optimize`, but also return the per-pass
    :class:`~repro.comm.passes.PipelineReport` of what each pass did.

    ``verify=True`` additionally runs the plan/IR verifier after every
    pass (slower; tests and debugging).
    """
    for block in program.walk_blocks():
        if block.comm_calls():
            raise OptimizationError(
                "optimize() expects a communication-free program; "
                "re-lower the source instead of re-optimizing"
            )
    signature = config.signature()
    report = PipelineReport(signature=signature)
    with obs.span(
        "optimize:pipeline",
        program=program.name,
        signature=" -> ".join(signature) or "(empty)",
    ):
        optimized = ir.IRProgram(
            name=program.name,
            body=_optimize_body(program.body, config, report, verify),
            arrays=dict(program.arrays),
            scalars=list(program.scalars),
            config_values=dict(program.config_values),
        )
    obs.add("opt.transfers.planned", report.planned)
    obs.add("opt.transfers.final", report.final)
    return optimized, report


def optimize(program: ir.IRProgram, config: OptimizationConfig) -> ir.IRProgram:
    """Generate communication for ``program`` and optimize it per
    ``config``.

    The input must be communication-free (fresh from lowering); the result
    is a new :class:`~repro.ir.nodes.IRProgram` sharing core statements
    with the input but with fresh blocks containing IRONMAN calls.
    """
    optimized, _ = optimize_with_report(program, config)
    return optimized
