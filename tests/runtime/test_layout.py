"""Unit tests for block distribution."""

import itertools

import pytest

from repro.errors import RuntimeFault
from repro.lang.regions import Region
from repro.runtime.grid import ProcessorGrid
from repro.runtime.layout import ProblemLayout, split_extent


class TestSplitExtent:
    def test_even_split(self):
        assert split_extent(1, 8, 4) == [(1, 2), (3, 4), (5, 6), (7, 8)]

    def test_remainder_goes_to_leading_blocks(self):
        assert split_extent(1, 10, 4) == [(1, 3), (4, 6), (7, 8), (9, 10)]

    def test_more_parts_than_elements(self):
        parts = split_extent(1, 2, 4)
        assert parts[0] == (1, 1) and parts[1] == (2, 2)
        assert all(hi < lo for lo, hi in parts[2:])  # empty

    def test_single_part(self):
        assert split_extent(3, 9, 1) == [(3, 9)]


def layout_2d(rows=2, cols=2, n=8):
    grid = ProcessorGrid(rows, cols)
    domain = Region("R", (1, 1), (n, n))
    return ProblemLayout(grid, {"A": domain}), domain


class TestOwnership2D:
    def test_blocks_tile_the_domain(self):
        layout, domain = layout_2d()
        total = 0
        for p in layout.grid.ranks():
            total += layout.owned(2, p).intersect(domain).size
        assert total == domain.size

    def test_blocks_disjoint(self):
        layout, _ = layout_2d()
        a = layout.owned(2, 0)
        b = layout.owned(2, 3)
        assert a.intersect(b).is_empty

    def test_owner_of(self):
        layout, _ = layout_2d()
        assert layout.owner_of(2, (1, 1)) == 0
        assert layout.owner_of(2, (8, 8)) == 3
        assert layout.owner_of(2, (1, 8)) == 1

    def test_owner_of_outside_raises(self):
        layout, _ = layout_2d()
        with pytest.raises(RuntimeFault):
            layout.owner_of(2, (0, 0))

    def test_alignment_across_arrays(self):
        """Arrays over different same-rank regions share the partition."""
        grid = ProcessorGrid(2, 2)
        layout = ProblemLayout(
            grid,
            {
                "A": Region("R", (1, 1), (8, 8)),
                "B": Region("In", (2, 2), (7, 7)),
            },
        )
        for idx in [(2, 2), (5, 5), (7, 2)]:
            assert layout.owner_of(2, idx) == layout.owner_of(2, idx)


class TestRank3:
    def test_third_dimension_not_distributed(self):
        grid = ProcessorGrid(2, 2)
        layout = ProblemLayout(grid, {"U": Region("R", (1, 1, 1), (4, 4, 16))})
        assert layout.distributed_dims(3) == (0, 1)
        owned = layout.owned(3, 0)
        assert (owned.lows[2], owned.highs[2]) == (1, 16)


class TestRank1:
    def test_resident_on_column_zero(self):
        grid = ProcessorGrid(2, 2)
        layout = ProblemLayout(grid, {"V": Region("L", (1,), (8,))})
        assert not layout.owned(1, 0).is_empty
        assert layout.owned(1, 1).is_empty  # column 1 idles
        assert layout.owner_of(1, (8,)) == grid.rank_of(1, 0)


def mixed_layout(rows=2, cols=3):
    """Uneven blocks (and, on a 4-row mesh, empty ones) in every rank class."""
    grid = ProcessorGrid(rows, cols)
    return ProblemLayout(
        grid,
        {
            "V": Region("L", (0,), (2,)),
            "A": Region("R", (1, 1), (7, 10)),
            "U": Region("C", (1, 1, 1), (5, 2, 3)),
        },
    )


class TestBlockBounds:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 3), (4, 2)])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_rows_follow_the_mesh_splits(self, rows, cols, rank):
        layout = mixed_layout(rows, cols)
        bounding = layout.rank_class(rank).bounding
        lows, highs = layout.block_bounds(rank)
        assert lows.shape == highs.shape == (rows * cols, rank)
        for p in layout.grid.ranks():
            row, col = layout.grid.coords(p)
            lo, hi = list(bounding.lows), list(bounding.highs)
            if rank == 1 and col != 0:
                hi[0] = lo[0] - 1  # idle off mesh column 0
            else:
                for d, (coord, parts) in enumerate(((row, rows), (col, cols))[:rank]):
                    lo[d], hi[d] = split_extent(lo[d], hi[d], parts)[coord]
            assert (tuple(lows[p]), tuple(highs[p])) == (tuple(lo), tuple(hi))
            owned = layout.owned(rank, p)
            assert (owned.lows, owned.highs) == (tuple(lo), tuple(hi))

    def test_bounds_are_read_only(self):
        lows, _ = mixed_layout().block_bounds(2)
        with pytest.raises(ValueError):
            lows[0, 0] = 99

    @pytest.mark.parametrize("rows,cols", [(2, 3), (4, 2)])
    def test_element_counts_match_owned_intersections(self, rows, cols):
        layout = mixed_layout(rows, cols)
        regions = [
            Region("L", (1,), (2,)),
            Region("In", (2, 2), (6, 9)),
            Region("Edge", (7, 1), (7, 10)),
            Region("Empty", (3, 3), (2, 9)),
            Region("Z", (1, 1, 2), (5, 2, 3)),
        ]
        for region in regions:
            counts = layout.element_counts(region)
            expected = [
                region.intersect(layout.owned(region.rank, p)).size
                for p in layout.grid.ranks()
            ]
            assert counts.dtype.kind == "f"
            assert counts.tolist() == expected
            assert layout.element_counts(region) is counts  # memoized

    @pytest.mark.parametrize("rows,cols", [(2, 3), (4, 2)])
    def test_owners_match_owned_boxes(self, rows, cols):
        layout = mixed_layout(rows, cols)
        for rank, domain in ((1, (0, 2)), (2, (1, 7, 1, 10))):
            axes = [range(domain[2 * i], domain[2 * i + 1] + 1) for i in range(rank)]
            indices = list(itertools.product(*axes))
            owners = layout.owners(rank, indices)
            for index, owner in zip(indices, owners.tolist()):
                assert layout.owned(rank, owner).contains_index(index)
                assert layout.owner_of(rank, index) == owner


class TestFluffFeasibility:
    def test_unit_fluff_ok(self):
        layout, _ = layout_2d()
        layout.check_fluff_feasible({"A": (1, 1)})

    def test_oversized_fluff_rejected(self):
        grid = ProcessorGrid(4, 1)
        layout = ProblemLayout(grid, {"A": Region("R", (1, 1), (8, 8))})
        with pytest.raises(RuntimeFault, match="shift width"):
            layout.check_fluff_feasible({"A": (3, 0)})

    def test_zero_width_always_ok(self):
        layout, _ = layout_2d()
        layout.check_fluff_feasible({"A": (0, 0)})
