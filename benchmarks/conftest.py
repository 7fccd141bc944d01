"""Shared machinery for the benchmark harness.

``pytest benchmarks/ --benchmark-only`` regenerates every table and
figure of the paper's evaluation.  The expensive part — the
whole-program study (4 benchmarks x 6 experiment keys at paper scale,
64 simulated processors) — is submitted as a job matrix through
:func:`repro.run_study` in the ``suite`` fixture: cells fan out over
worker processes when the host has them.  The study runs cold, with no
result cache: a record's fingerprint does not cover the simulator's
code, so a record an earlier source tree wrote would render the tables
of that tree (a few seconds cold).  The per-figure benchmark targets
time one representative simulation each and render their tables from
the shared results.

Each regenerated table is printed and also written to
``benchmarks/results/<name>.txt``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro import run_study
from repro.programs import BENCHMARKS

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def suite():
    """The paper-scale whole-program study feeding Figures 8/10/11/12 and
    Tables 1-4, via the experiment engine (parallel, uncached)."""
    return run_study(
        benchmarks=BENCHMARKS,
        nprocs=64,
        jobs=min(4, os.cpu_count() or 1),
        cache=False,
    )


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
