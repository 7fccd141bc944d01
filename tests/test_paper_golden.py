"""The cold paper study on t3d/64 against ``baselines/paper.json``, exactly.

The baseline pins every cell of the paper study: static and dynamic
counts, messages, bytes, model time and the three ``sim.fastpath.*``
counters.  The session's one cold study (``paper_study``) is diffed
against it by ``repro compare``'s own comparison, every field with
``!=``, so CI's compare step and this test fail on the same drift.
Transfer plans feed the counts and the cost model the times, so a change
that moves a message, a byte or one ulp of a time fails here, and so
does one that stops a loop extrapolating.  An intended output change
re-pins the file with ``repro compare --baseline baselines/paper.json
--update``.
"""

from pathlib import Path

from repro import obs
from repro.experiments_registry import EXPERIMENT_KEYS
from repro.programs import BENCHMARKS

BASELINE = Path(__file__).resolve().parents[1] / "baselines" / "paper.json"


def test_cold_paper_study_matches_goldens(paper_study):
    pinned = obs.load_baseline(BASELINE)
    assert (pinned["machine"], pinned["nprocs"], pinned["mode"]) == ("t3d", 64, "timing")
    actual = obs.snapshot_study(paper_study)
    drifts = obs.diff_baseline(actual, pinned)
    assert not drifts, obs.format_drifts(drifts)
    # and nothing the baseline leaves out: the same cells, the same fields
    cells, pinned_cells = actual["benchmarks"], pinned["benchmarks"]
    assert set(cells) == set(pinned_cells) == set(BENCHMARKS)
    for bench, keys in cells.items():
        assert set(keys) == set(pinned_cells[bench]) == set(EXPERIMENT_KEYS)
        for key, cell in keys.items():
            assert set(cell) == set(pinned_cells[bench][key]), f"{bench}/{key}"
