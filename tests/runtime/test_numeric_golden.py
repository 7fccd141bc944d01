"""NUMERIC runs, pinned bit for bit.

A NUMERIC run binds each array statement, reduction and transfer copy
once, at its first execution, and later executions only call the bound
closures over the same block views (:mod:`repro.runtime.interp`).  This
test pins what those runs compute: for each program, ``repr`` of the
model time, the sha256 of the clock vector's bytes and of each gathered
array's bytes, and ``repr`` of the final scalars.  The programs are the
paper's four in their small configuration at baseline and full
optimization on t3d/4 and t3d/16, the three classic kernels in theirs at
both levels on t3d/4, and ``gen_0`` .. ``gen_7`` at full optimization on
t3d/4.  The lines must equal ``tests/goldens/numeric.txt``.  An intended
output change re-renders it from the repository root:

    PYTHONPATH=src python tests/runtime/test_numeric_golden.py > tests/goldens/numeric.txt
"""

import hashlib
import sys
from pathlib import Path

from repro import ExecutionMode, OptimizationConfig, simulate, t3d
from repro.programs import BENCHMARKS, KERNELS, build_benchmark, small_config

GOLDEN = Path(__file__).resolve().parents[1] / "goldens" / "numeric.txt"

LEVELS = (("baseline", OptimizationConfig.baseline()), ("full", OptimizationConfig.full()))


def _cases():
    """``(program name, level, processor count)`` in golden order."""
    for name in BENCHMARKS:
        for level, _ in LEVELS:
            for nprocs in (4, 16):
                yield name, level, nprocs
    for name in KERNELS:
        for level, _ in LEVELS:
            yield name, level, 4
    for seed in range(8):
        yield f"gen_{seed}", "full", 4


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def render() -> str:
    opts = dict(LEVELS)
    programs = {}
    lines = []
    for name, level, nprocs in _cases():
        key = (name, level)
        if key not in programs:
            programs[key] = build_benchmark(name, config=small_config(name), opt=opts[level])
        result = simulate(programs[key], t3d(nprocs), ExecutionMode.NUMERIC)
        lines.append(f"== {name} {level} t3d/{nprocs}")
        lines.append(f"time {result.time!r} clocks {_digest(result.clocks.tobytes())}")
        for array in sorted(result.arrays):
            lines.append(f"array {array} {_digest(result.array(array).tobytes())}")
        lines.append(f"scalars {sorted(result.scalars.items())!r}")
    return "\n".join(lines) + "\n"


def test_numeric_runs_match_golden():
    expected = GOLDEN.read_text().splitlines()
    actual = render().splitlines()
    for i, (mine, theirs) in enumerate(zip(actual, expected)):
        assert mine == theirs, f"line {i + 1}"
    assert len(actual) == len(expected)


if __name__ == "__main__":
    sys.stdout.write(render())
