"""The virtual processor mesh.

ZPL (and hence ZL) distributes arrays block-wise over a two-dimensional
virtual processor mesh; a shifted reference therefore communicates with
mesh neighbours (including diagonal ones for directions like ``ne``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple


@dataclass(frozen=True)
class ProcessorGrid:
    """A ``rows x cols`` mesh of processors, ranks numbered row-major."""

    rows: int
    cols: int

    @property
    def nprocs(self) -> int:
        return self.rows * self.cols

    def coords(self, rank: int) -> Tuple[int, int]:
        """(row, col) of a rank."""
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} out of range 0..{self.nprocs - 1}")
        return divmod(rank, self.cols)

    def rank_of(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"coords ({row}, {col}) outside {self.rows}x{self.cols}")
        return row * self.cols + col

    def neighbor(self, rank: int, step: Sequence[int]) -> Optional[int]:
        """Rank at mesh offset ``step = (drow, dcol)``; None off the edge.

        The mesh is not a torus: ZL programs read shifted data only where
        the shifted region stays inside the array domain, so edge
        processors simply have no partner in that direction.
        """
        row, col = self.coords(rank)
        nrow, ncol = row + step[0], col + step[1]
        if 0 <= nrow < self.rows and 0 <= ncol < self.cols:
            return self.rank_of(nrow, ncol)
        return None

    def ranks(self) -> Iterator[int]:
        return iter(range(self.nprocs))

    def __str__(self) -> str:
        return f"{self.rows}x{self.cols} mesh"
