"""The cold paper study on t3d/64 against ``baselines/paper.json``, exactly.

The baseline pins every cell of the paper study: static and dynamic
counts, messages, bytes, model time and the three ``sim.fastpath.*``
counters.  ``repro compare`` reads the same file just as exactly, so
CI's compare step and this test fail on the same drift.  Transfer
plans feed the counts and the cost model the times, so a change that
moves a message, a byte or one ulp of a time fails here, and so does
one that stops a loop extrapolating.  An intended output change re-pins the file with ``repro
compare --baseline baselines/paper.json --update``.
"""

import json
from pathlib import Path

from repro import obs, run_study
from repro.experiments_registry import EXPERIMENT_KEYS
from repro.programs import BENCHMARKS

BASELINE = Path(__file__).resolve().parents[1] / "baselines" / "paper.json"


def _exact(cell):
    """``cell`` with its time as ``repr``: equal floats, equal digits."""
    return {**cell, "execution_time": repr(cell["execution_time"])}


def test_cold_paper_study_matches_goldens():
    doc = json.loads(BASELINE.read_text())
    assert (doc["machine"], doc["nprocs"], doc["mode"]) == ("t3d", 64, "timing")
    study = run_study(
        benchmarks=BENCHMARKS,
        keys=EXPERIMENT_KEYS,
        machine="t3d",
        nprocs=64,
        jobs=1,
        cache=False,
    )
    actual = obs.snapshot_study(study)
    assert (actual["machine"], actual["nprocs"], actual["mode"]) == (
        doc["machine"],
        doc["nprocs"],
        doc["mode"],
    )
    cells, pinned = actual["benchmarks"], doc["benchmarks"]
    assert set(cells) == set(pinned) == set(BENCHMARKS)
    for bench, keys in cells.items():
        assert set(keys) == set(pinned[bench]) == set(EXPERIMENT_KEYS)
        for key, cell in keys.items():
            assert _exact(cell) == _exact(pinned[bench][key]), f"{bench}/{key}"
