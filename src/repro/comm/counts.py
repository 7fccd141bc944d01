"""Static communication counting.

The paper's *static count* is "the number of communications in the text
of the SPMD program", where a communication is one data transfer — a
descriptor — regardless of how many IRONMAN calls express it or how many
arrays a combined transfer carries.

These helpers also break counts down per basic block and per call kind,
which the tests and the ablation benchmarks use.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro.ir import nodes as ir
from repro.ironman.calls import CallKind


def static_comm_count(program: ir.IRProgram) -> int:
    """Number of communications (transfers) in the program text."""
    return len(program.all_descriptors())


def static_call_count(program: ir.IRProgram) -> Dict[CallKind, int]:
    """Number of IRONMAN calls in the program text, per kind.

    Every transfer has exactly one call of each kind, so each kind's count
    equals :func:`static_comm_count`; the breakdown exists to let tests
    assert that invariant and to count no-op calls under a binding."""
    counts: Counter = Counter()
    for block in program.walk_blocks():
        for call in block.comm_calls():
            counts[call.kind] += 1
    return dict(counts)


def static_message_volume_entries(program: ir.IRProgram) -> int:
    """Total member entries across all transfers: equals the number of
    transfers the *uncombined* program would need for the same data (used
    to verify that combining preserves volume)."""
    return sum(len(d.entries) for d in program.all_descriptors())
