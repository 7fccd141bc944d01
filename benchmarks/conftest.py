"""Shared machinery for the speed benches.

``pytest benchmarks/bench_*.py --benchmark-only`` times the simulator,
the result cache and the observability layer, and asserts their speed
bars.  The paper's tables and figures are checked in tier-1
(``tests/paper/``), and ``benchmarks/perf/`` is the repository
benchmark.

A bench that regenerates a table prints it and also writes it to
``benchmarks/results/<name>.txt``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def record_table():
    """Print a regenerated table and persist it under
    benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str) -> None:
        print()
        print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _record
