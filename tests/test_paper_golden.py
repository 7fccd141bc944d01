"""The cold paper study on t3d/64 against the benchmark's pinned cells.

``benchmarks/perf/goldens/paper_t3d64.json`` pins every cell of the
paper study: static and dynamic counts, model time, messages and bytes.
Transfer plans feed each of those numbers, so this is the end-to-end
check that a change to plan construction moved no message and no byte.
The file is only read here; ``benchmarks/perf/run.py --write-goldens``
regenerates it.
"""

import json
from pathlib import Path

from repro import run_study
from repro.experiments_registry import EXPERIMENT_KEYS
from repro.programs import BENCHMARKS

GOLDEN = (
    Path(__file__).resolve().parents[1]
    / "benchmarks"
    / "perf"
    / "goldens"
    / "paper_t3d64.json"
)


def test_cold_paper_study_matches_goldens():
    doc = json.loads(GOLDEN.read_text())
    assert (doc["machine"], doc["nprocs"]) == ("t3d", 64)
    study = run_study(
        benchmarks=BENCHMARKS,
        keys=EXPERIMENT_KEYS,
        machine="t3d",
        nprocs=64,
        jobs=1,
        cache=False,
    )
    cells = set()
    for outcome in study.outcomes:
        job, result = outcome.job, outcome.record["result"]
        actual = {
            "static_count": result["static_count"],
            "dynamic_count": result["dynamic_count"],
            "execution_time": repr(result["execution_time"]),
            "total_messages": result["total_messages"],
            "total_bytes": result["total_bytes"],
        }
        expected = doc["cells"][job.benchmark][job.experiment]
        assert actual == expected, f"{job.benchmark}/{job.experiment}"
        cells.add((job.benchmark, job.experiment))
    assert len(cells) == len(BENCHMARKS) * len(EXPERIMENT_KEYS) == 24
    assert cells == {(b, k) for b, cs in doc["cells"].items() for k in cs}
