"""Unit tests for the processor mesh."""

import pytest

from repro.runtime.grid import ProcessorGrid


class TestCoords:
    def test_row_major_numbering(self):
        g = ProcessorGrid(2, 3)
        assert g.coords(0) == (0, 0)
        assert g.coords(4) == (1, 1)
        assert g.rank_of(1, 2) == 5

    def test_roundtrip(self):
        g = ProcessorGrid(3, 4)
        for r in g.ranks():
            assert g.rank_of(*g.coords(r)) == r

    def test_out_of_range_rejected(self):
        g = ProcessorGrid(2, 2)
        with pytest.raises(ValueError):
            g.coords(4)
        with pytest.raises(ValueError):
            g.rank_of(2, 0)


class TestNeighbors:
    def test_axis_neighbors(self):
        g = ProcessorGrid(3, 3)
        center = g.rank_of(1, 1)
        assert g.neighbor(center, (0, 1)) == g.rank_of(1, 2)
        assert g.neighbor(center, (-1, 0)) == g.rank_of(0, 1)

    def test_diagonal_neighbor(self):
        g = ProcessorGrid(3, 3)
        assert g.neighbor(g.rank_of(1, 1), (1, 1)) == g.rank_of(2, 2)

    def test_edge_has_no_neighbor(self):
        g = ProcessorGrid(2, 2)
        assert g.neighbor(0, (-1, 0)) is None
        assert g.neighbor(3, (0, 1)) is None

    def test_not_a_torus(self):
        g = ProcessorGrid(1, 4)
        assert g.neighbor(3, (0, 1)) is None


def test_nprocs_and_str():
    g = ProcessorGrid(2, 8)
    assert g.nprocs == 16
    assert "2x8" in str(g)
