"""Block distribution of index space over the processor mesh.

All arrays are *trivially aligned*: element ``(i, j)`` of every array
lives on the same processor.  To guarantee this across arrays declared
over different (but same-rank) regions, the partition is computed once
per array rank from the bounding region of all declared domains of that
rank, and every array of that rank uses it.

Distribution convention (ZPL's, as the paper describes):

* rank-2 arrays: dim 0 over mesh rows, dim 1 over mesh columns;
* rank-3 arrays: dims 0 and 1 over the mesh, dim 2 local to each node;
* rank-1 arrays: dim 0 over mesh rows, resident on mesh column 0
  (processors in other columns own nothing and idle through rank-1
  statements — the owner-computes rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import RuntimeFault
from repro.lang.regions import Region, bounding_region
from repro.runtime.grid import ProcessorGrid


def split_extent(low: int, high: int, parts: int) -> List[Tuple[int, int]]:
    """Split the inclusive range ``[low, high]`` into ``parts`` contiguous
    blocks whose sizes differ by at most one (larger blocks first).  Empty
    blocks (when ``parts`` exceeds the extent) are ``(lo, lo-1)`` pairs.
    """
    n = high - low + 1
    if n < 0:
        raise ValueError(f"bad extent [{low}..{high}]")
    base, rem = divmod(n, parts)
    out: List[Tuple[int, int]] = []
    cursor = low
    for i in range(parts):
        size = base + (1 if i < rem else 0)
        out.append((cursor, cursor + size - 1))
        cursor += size
    return out


@dataclass(frozen=True)
class RankClassLayout:
    """Partition of one array-rank class over the mesh."""

    rank: int
    bounding: Region
    #: per distributed dim: list of (low, high) per mesh coordinate
    dim_splits: Tuple[Tuple[Tuple[int, int], ...], ...]
    #: which array dims are distributed (0-based), in mesh-dim order
    distributed_dims: Tuple[int, ...]


class ProblemLayout:
    """Owner map for every array in a program on a given mesh."""

    def __init__(
        self, grid: ProcessorGrid, array_domains: Dict[str, Region]
    ) -> None:
        self.grid = grid
        self.array_domains = dict(array_domains)
        self._classes: Dict[int, RankClassLayout] = {}
        self._blocks: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._counts: Dict[Tuple, np.ndarray] = {}
        by_rank: Dict[int, List[Region]] = {}
        for region in array_domains.values():
            by_rank.setdefault(region.rank, []).append(region)
        for rank, regions in by_rank.items():
            cls = self._build_class(rank, regions)
            self._classes[rank] = cls
            self._blocks[rank] = self._owned_boxes(cls)

    # ------------------------------------------------------------------
    def _build_class(self, rank: int, regions: List[Region]) -> RankClassLayout:
        bounding = bounding_region(f"<rank{rank}>", regions)
        assert bounding is not None
        if rank == 1:
            dist_dims: Tuple[int, ...] = (0,)
            mesh_sizes = (self.grid.rows,)
        else:
            dist_dims = (0, 1)
            mesh_sizes = (self.grid.rows, self.grid.cols)
        splits = tuple(
            tuple(
                split_extent(bounding.lows[d], bounding.highs[d], mesh_sizes[i])
            )
            for i, d in enumerate(dist_dims)
        )
        return RankClassLayout(
            rank=rank,
            bounding=bounding,
            dim_splits=splits,
            distributed_dims=dist_dims,
        )

    def _owned_boxes(self, cls: RankClassLayout) -> Tuple[np.ndarray, np.ndarray]:
        """Every processor's owned box of one rank class, as read-only
        ``(nprocs, rank)`` int arrays of lows and highs."""
        nprocs = self.grid.nprocs
        mesh_coords = np.divmod(np.arange(nprocs), self.grid.cols)
        lows = np.tile(np.array(cls.bounding.lows, dtype=np.int64), (nprocs, 1))
        highs = np.tile(np.array(cls.bounding.highs, dtype=np.int64), (nprocs, 1))
        for i, d in enumerate(cls.distributed_dims):
            splits = np.array(cls.dim_splits[i], dtype=np.int64)
            lows[:, d] = splits[mesh_coords[i], 0]
            highs[:, d] = splits[mesh_coords[i], 1]
        if cls.rank == 1:
            # resident on mesh column 0 only
            idle = mesh_coords[1] != 0
            lows[idle, 0] = cls.bounding.lows[0]
            highs[idle, 0] = cls.bounding.lows[0] - 1
        lows.setflags(write=False)
        highs.setflags(write=False)
        return lows, highs

    # ------------------------------------------------------------------
    def rank_class(self, array_rank: int) -> RankClassLayout:
        try:
            return self._classes[array_rank]
        except KeyError:
            raise RuntimeFault(
                f"no rank-{array_rank} arrays were declared; cannot lay out"
            ) from None

    def distributed_dims(self, array_rank: int) -> Tuple[int, ...]:
        return self.rank_class(array_rank).distributed_dims

    def block_bounds(self, array_rank: int) -> Tuple[np.ndarray, np.ndarray]:
        """The owned box of every processor for one rank class:
        ``(lows, highs)``, each a read-only ``(nprocs, array_rank)`` int
        array whose row ``p`` is :meth:`owned` ``(array_rank, p)``.  Idle
        processors (rank-1 arrays off mesh column 0) hold an empty box."""
        self.rank_class(array_rank)  # names the missing class
        return self._blocks[array_rank]

    def owned(self, array_rank: int, proc: int) -> Region:
        """The block of the rank-class index space owned by ``proc``
        (empty region for idle processors)."""
        self.grid.coords(proc)  # range check
        lows, highs = self.block_bounds(array_rank)
        return Region(
            f"<own{proc}>", tuple(lows[proc].tolist()), tuple(highs[proc].tolist())
        )

    def element_counts(self, region: Region) -> np.ndarray:
        """Elements of ``region`` on each processor, as a read-only
        float64 vector (memoized per region bounds)."""
        key = (region.lows, region.highs)
        counts = self._counts.get(key)
        if counts is None:
            lows, highs = self.block_bounds(region.rank)
            extent = np.minimum(highs, region.highs) - np.maximum(lows, region.lows) + 1
            counts = np.maximum(extent, 0).prod(axis=1).astype(np.float64)
            counts.setflags(write=False)
            self._counts[key] = counts
        return counts

    def owners(self, array_rank: int, indices: np.ndarray) -> np.ndarray:
        """The processor owning each row of an ``(n, array_rank)`` array
        of global indices."""
        cls = self.rank_class(array_rank)
        indices = np.asarray(indices, dtype=np.int64).reshape(-1, array_rank)
        mesh_coords = []
        for i, d in enumerate(cls.distributed_dims):
            column = indices[:, d]
            outside = (column < cls.bounding.lows[d]) | (column > cls.bounding.highs[d])
            if outside.any():
                index = tuple(indices[np.argmax(outside)].tolist())
                raise RuntimeFault(
                    f"index {index} outside the rank-{array_rank} "
                    f"bounding region {cls.bounding}"
                )
            # the first block reaching the index owns it; empty blocks
            # trail the mesh and never come first
            block_highs = np.array(cls.dim_splits[i], dtype=np.int64)[:, 1]
            mesh_coords.append(np.searchsorted(block_highs, column))
        row = mesh_coords[0]
        # rank-1 arrays are resident on mesh column 0
        col = mesh_coords[1] if len(mesh_coords) > 1 else 0
        return row * self.grid.cols + col

    def owner_of(self, array_rank: int, index: Sequence[int]) -> int:
        """Processor owning a global index (for tests/diagnostics)."""
        return int(self.owners(array_rank, [index])[0])

    def check_fluff_feasible(
        self, fluff: Dict[str, Tuple[int, ...]]
    ) -> None:
        """Every shift offset must fit within a single neighbouring block;
        otherwise a strip would span multiple processors and the
        nearest-neighbour transfer model breaks.  (The paper's benchmarks
        use unit offsets; this guards hand-written configurations.)"""
        for array, widths in fluff.items():
            domain = self.array_domains[array]
            cls = self.rank_class(domain.rank)
            for i, d in enumerate(cls.distributed_dims):
                width = widths[d]
                if width == 0:
                    continue
                for lo, hi in cls.dim_splits[i]:
                    size = hi - lo + 1
                    if 0 < size < width:
                        raise RuntimeFault(
                            f"array {array!r}: shift width {width} in dim "
                            f"{d} exceeds a block of size {size}; use a "
                            "smaller mesh or a larger problem"
                        )
