"""The paper-shape checks: the tables, figures and ablations of the
paper's evaluation, each with the findings the paper reports asserted on
the rows it renders.

A rendered table that no other golden pins must equal its file in
``tests/goldens/paper/`` byte for byte.  Each module here re-renders its
own files when run as a script from the repository root:

    PYTHONPATH=src python -m tests.paper.test_figures
    PYTHONPATH=src python -m tests.paper.test_ablations
"""

from pathlib import Path

GOLDENS = Path(__file__).resolve().parents[1] / "goldens" / "paper"


def assert_golden(name: str, text: str) -> None:
    assert (text + "\n").encode() == (GOLDENS / f"{name}.txt").read_bytes(), name


def write_golden(name: str, text: str) -> None:
    (GOLDENS / f"{name}.txt").write_bytes((text + "\n").encode())
