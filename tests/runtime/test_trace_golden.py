"""Traced timelines, pinned event by event.

``SimOptions.timing(trace_rank=r)`` records rank ``r``'s timeline from
inside the timing core's vector ops, which read each in-flight arrival
and DR flag through the rank's slot in the transfer's block.
``tests/analysis/test_timeline.py`` checks that events are ordered and
cover the clock; this test pins their values.  SIMPLE, in its small
configuration with the full (``pl``) optimization, is traced at an
interior rank (5) and an east-edge rank (7) of the 4 x 4 mesh under
three bindings: t3d PVM (message passing), t3d SHMEM (rendezvous DR
flags and DN polls) and Paragon ``nx_async``.  Every event renders as
``repr(start) repr(end) kind label``, with descriptor ids in labels
counted from the program's first (ids are process-wide), and the lines
must equal ``tests/goldens/traces_simple.txt``.  An intended output change
re-renders it from the repository root:

    PYTHONPATH=src python tests/runtime/test_trace_golden.py > tests/goldens/traces_simple.txt
"""

import re
import sys
from pathlib import Path

from repro import SimOptions, simulate
from repro.experiments_registry import experiment_spec
from repro.machine import machine_by_name
from repro.programs import build_benchmark, small_config

GOLDEN = Path(__file__).resolve().parents[1] / "goldens" / "traces_simple.txt"

BINDINGS = (("t3d", "pvm"), ("t3d", "shmem"), ("paragon", "nx_async"))
RANKS = (5, 7)


def render() -> str:
    program = build_benchmark(
        "simple", config=small_config("simple"), opt=experiment_spec("pl").opt
    )
    base = min(desc.id for desc in program.all_descriptors()) - 1

    def label(text: str) -> str:
        return re.sub(r"comm#(\d+)", lambda m: f"comm#{int(m[1]) - base}", text)

    lines = []
    for name, library in BINDINGS:
        machine = machine_by_name(name, 16, library)
        for rank in RANKS:
            result = simulate(program, machine, options=SimOptions.timing(trace_rank=rank))
            lines.append(f"== {name}/16 {library} rank {rank}")
            lines.extend(
                f"{e.start!r} {e.end!r} {e.kind} {label(e.label)}" for e in result.trace
            )
    return "\n".join(lines) + "\n"


def test_traced_timelines_match_golden():
    expected = GOLDEN.read_text().splitlines()
    actual = render().splitlines()
    for i, (mine, theirs) in enumerate(zip(actual, expected)):
        assert mine == theirs, f"line {i + 1}"
    assert len(actual) == len(expected)


if __name__ == "__main__":
    sys.stdout.write(render())
