"""The rendered paper, pinned byte for byte.

``repro experiments --no-cache`` prints Figures 8, 10(a), 10(b), 11 and
12 and Tables 1–4; ``repro figure6`` prints Figure 6.  Each runs here
cold, in a fresh process with a null result cache, and its standard
output must equal the committed file in ``tests/goldens/``.  An
intended output change re-renders them from the repository root:

    PYTHONPATH=src python -m repro experiments --no-cache > tests/goldens/experiments.txt
    PYTHONPATH=src python -m repro figure6 > tests/goldens/figure6.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = Path(__file__).resolve().parent / "goldens"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["experiments", "--no-cache"], "experiments.txt"),
        (["figure6"], "figure6.txt"),
    ],
    ids=["experiments", "figure6"],
)
def test_rendered_output_matches_golden(argv, golden, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDENS / golden).read_bytes()
    # a null cache leaves nothing behind
    assert list(tmp_path.iterdir()) == []
